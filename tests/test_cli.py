import contextlib
import copy
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from aseq import cli, sim
from aseq.cli import main
from aseq.divergence import build_instance_table
from aseq.errors import InvalidPmf
from aseq.modelio import instance_to_dict, load_instance
from aseq.region import build_polytope, compute_region, decision_risk_exponents

from conftest import make_instance, oracle_constraints

MODEL = str(Path(__file__).resolve().parent.parent / "models" / "chernoff3x2.json")


def test_validate_ok(capsys):
    assert main(["validate", "--model", MODEL]) == 0
    out = capsys.readouterr().out
    assert "llr_bound" in out
    assert "assumption2_ok true" in out


def test_validate_missing_file():
    assert main(["validate", "--model", "/nonexistent/model.json"]) == 2


def test_usage_error_exit_code():
    assert main(["validate"]) == 2  # missing required --model


def test_malformed_model_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"M": 2}', encoding="utf-8")
    assert main(["validate", "--model", str(bad)]) == 1


# Malformed values that once escaped main() as a TypeError traceback: where
# each goes in the example model (with one budget), the JSON path the error
# must name, and the value.
BAD_VALUES = {
    "prob_list": (("availability", 0, "prob"), "$.availability[0].prob", [1]),
    "subset_int": (("availability", 0, "subset"), "$.availability[0].subset", 5),
    "rate_null": (("budgets", 0, "rate"), "$.budgets[0].rate", None),
    "coeff_object": (("budgets", 0, "coeff"), "$.budgets[0].coeff", {"a": 1}),
    "action_int": (("actions", 0), "$.actions[0]", 1),
    # json.loads reads NaN, Infinity and integers beyond float range.
    "prob_nan": (("availability", 0, "prob"), "$.availability[0].prob", float("nan")),
    "coeff_nan": (("budgets", 0, "coeff"), "$.budgets[0].coeff", [float("nan"), 1.0]),
    "rate_inf": (("budgets", 0, "rate"), "$.budgets[0].rate", float("inf")),
    "prob_huge": (("availability", 0, "prob"), "$.availability[0].prob", 10**400),
}


def _example_with_budget() -> dict:
    cfg = json.loads(Path(MODEL).read_text())
    cfg["budgets"] = [{"coeff": [1, 1], "rate": 0.8}]
    return cfg


def _resolve(cfg, keys):
    """(container, key) that cfg[k0]...[kn] names, or None if it names nothing."""
    node = cfg
    for i, k in enumerate(keys):
        if isinstance(node, dict) and k in node or \
                isinstance(node, list) and isinstance(k, int) and k < len(node):
            if i == len(keys) - 1:
                return node, k
            node = node[k]
        else:
            return None
    return None


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_malformed_value_exits_1(tmp_path, capsys, case):
    keys, json_path, value = BAD_VALUES[case]
    cfg = _example_with_budget()
    node, key = _resolve(cfg, keys)
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["validate", "--model", str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {json_path}: ")


def test_hypothesis_with_both_forms_exits_1(tmp_path, capsys):
    """The schema gives a hypothesis 'joint' or 'independent', not both; the
    loader took 'joint' and dropped the other without a word."""
    cfg = json.loads(Path(MODEL).read_text())
    cfg["hypotheses"][1]["joint"] = np.full((3, 3), 1 / 9).tolist()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["validate", "--model", str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: $.hypotheses[1]: ")
    assert "not both" in err[0]


def test_invalid_distribution_exit_code(tmp_path):
    cfg = json.loads(Path(MODEL).read_text())
    cfg["hypotheses"][0] = {"independent": [[0.9, 0.2, 0.03], [0.78, 0.17, 0.05]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["validate", "--model", str(bad)]) == 1


def test_dump_normalized_round_trip(tmp_path):
    out = tmp_path / "normalized.json"
    assert main(["validate", "--model", MODEL, "--dump-normalized", str(out)]) == 0
    orig = load_instance(MODEL)
    redone = load_instance(out)
    assert instance_to_dict(orig) == instance_to_dict(redone)


def test_divergence_csv(tmp_path):
    out = tmp_path / "div.csv"
    assert main(["divergence", "--model", MODEL, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert {r["action"] for r in rows} == {"-", "1", "2"}
    empties = [float(r["kl_nats"]) for r in rows if r["action"] == "-"]
    assert all(v == 0.0 for v in empties)
    v = [float(r["kl_nats"]) for r in rows
         if r["action"] == "1" and r["m"] == "0" and r["theta"] == "1"]
    assert v[0] == pytest.approx(1.62498, abs=1e-5)


def test_region_json(tmp_path):
    out = tmp_path / "region.json"
    assert main(["region", "--model", MODEL, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["gamma"]) == 3
    assert data["gamma"][0] == pytest.approx(1.83605, abs=1e-4)
    assert len(data["per_m"]) == 3
    assert data["per_m"][0]["facets"] is not None


@pytest.mark.parametrize("four", [False, True])
def test_region_json_document(tmp_path, four):
    """The region JSON is one line plus a newline, and parses to the payload
    built here from the library (a 2-D staircase on the example, qhull
    facets on a four-hypothesis model)."""
    model = MODEL
    if four:
        inst = make_instance(4, 2, (2, 3), rng=np.random.default_rng(3))
        model = tmp_path / "four.json"
        model.write_text(json.dumps(instance_to_dict(inst)), encoding="utf-8")
    inst = load_instance(model)
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    region = compute_region(table, poly)
    gamma, _ = decision_risk_exponents(table, poly)
    payload = {
        "gamma": [float(g) for g in gamma],
        "per_m": [{"declared": sub.declared, "thetas": list(sub.thetas),
                   "corners": sub.corners.tolist(), "vertices": sub.vertices.tolist(),
                   "facets": None if sub.facets is None else
                   [{"normal": list(n), "offset": b} for n, b in sub.facets]}
                  for sub in region.per_m],
    }
    out = tmp_path / "region.json"
    assert main(["region", "--model", str(model), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == payload
    assert len(payload["per_m"][0]["thetas"]) == (3 if four else 2)


def test_simulate_byte_identical(tmp_path):
    args = ["simulate", "--model", MODEL, "--T", "6,9", "--trials", "100",
            "--seed", "11", "--epsilon", "0", "--truth", "0"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("T,truth,declared,count,pi_hat,ci_lo,ci_hi,mean_tau")
    summary = json.loads((tmp_path / "r1_summary.json").read_text())
    assert summary["trials"] == 100
    assert {c["name"] for c in summary["constraint_checks"]} == {"expected_stopping_time"}


def test_exponents_from_csv(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--model", MODEL, "--T", "5,7,9,11", "--trials", "400",
                 "--seed", "13", "--epsilon", "0", "--out", str(out)]) == 0
    fit_out = tmp_path / "fits.json"
    assert main(["exponents", "--in", str(out), "--out", str(fit_out)]) == 0
    fits = json.loads(fit_out.read_text())
    assert all(f["kind"] in ("fit", "lower_bound", "insufficient") for f in fits)
    assert len(fits) == 6
    # The file-based fit and the run's summary come from one fitter and one
    # serializer, which writes a lower bound's missing stderr as null.
    summary = _strict_json((tmp_path / "runs_summary.json").read_text())
    assert fits == summary["fitted_exponents"]
    assert any(f["stderr"] is None for f in fits)


def _strict_json(text: str):
    """json.loads that refuses NaN and the infinities, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_summary_writes_null_for_nan(tmp_path):
    """A cell with no valid trial has no mean stopping time and no
    estimates: the summary writes them as null, not as a bare NaN, while
    the results CSV keeps its nan."""
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--model", MODEL, "--T", "60", "--trials", "5", "--seed", "3",
                 "--epsilon", "0", "--max-steps", "1", "--truth", "0",
                 "--out", str(out)]) == 0
    summary = _strict_json((tmp_path / "runs_summary.json").read_text())
    cell, = summary["cells"]
    assert cell["n_valid"] == 0 and cell["n_invalid"] == 5
    assert cell["mean_tau"] is None and cell["pi_hat"] == [None, None, None]
    assert all(row["pi_hat"] == "nan" for row in csv.DictReader(out.read_text().splitlines()))


@pytest.mark.parametrize("text, where", [
    ("T,truth,count\n5.0,0,3\n", "declared column"),
    ("T,truth,declared,count\n5.0,0,0,7\n5.0,0,1\n", "line 3"),
    ("T,truth,declared,count\n5.0,0,-1,3\n", "line 2"),
    ("T,truth,declared,count\n5.0,0,0,7\n5.0,0,1,3\n5.0,0,2,1\n5.0,4,0,1\n", "line 5"),
    (f"T,truth,declared,count\n5.0,0,0,7\n5.0,0,1,{10**400}\n", "line 3"),
], ids=["no_declared_column", "short_row", "negative_declared", "truth_past_rows",
        "huge_count"])
def test_exponents_bad_results_exit_1(tmp_path, capsys, text, where):
    """A results CSV without a needed column, with a short row, with a
    negative hypothesis index or with a count above 2**53 (a 401-digit count
    raised an OverflowError traceback) is refused in one line that names the
    column or the line, and no fit file is written."""
    runs, out = tmp_path / "runs.csv", tmp_path / "fits.json"
    runs.write_text(text, encoding="utf-8")
    assert main(["exponents", "--in", str(runs), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert captured.out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and where in err
    assert not out.exists()


def test_exponents_huge_declared_exit_1_fast(tmp_path, capsys):
    """A declared index of three million in a three-row file is refused at
    its line within a second; taken as M, it built count lists of three
    million entries per cell and ran past 20 s."""
    runs, out = tmp_path / "runs.csv", tmp_path / "fits.json"
    runs.write_text("T,truth,declared,count\n5.0,0,0,7\n5.0,0,1,3\n5.0,0,3000000,1\n",
                    encoding="utf-8")
    start = time.perf_counter()
    assert main(["exponents", "--in", str(runs), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "line 4" in err
    assert not out.exists()


def test_slice_csv_families(tmp_path):
    out = tmp_path / "slice.csv"
    assert main(["region", "--model", MODEL, "--slice", "e2=0.3",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    fams = {r["family"] for r in rows}
    assert fams == {"adaptive", "nonadaptive", "tuncel"}
    for fam in fams:
        pts = [(float(r["x"]), float(r["y"])) for r in rows if r["family"] == fam]
        assert len(pts) >= 2
        assert all(x >= 0 and y >= 0 for x, y in pts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", ["q=0.1", "e5=0.3", "e-1=0.3", "e2=nan", "e2=inf",
                                  "e2=-1e308", "e2=-0.5"])
def test_slice_bad_spec(tmp_path, capsys, spec):
    """Each is refused with one usage line and no CSV. An error exponent is
    >= 0: e2=-1e308 exited 0 after overflow warnings from the slice LP, and
    e2=-0.5 wrote a CSV that differed from the one for e2=0."""
    out = tmp_path / "slice.csv"
    assert main(["region", "--model", MODEL, "--slice", spec, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and repr(spec) in err


@pytest.mark.parametrize("spec", ["abc", "0.5", "-1,2", "nan,1", "inf,0"])
def test_slice_bad_beta_sources(capsys, spec):
    assert main(["region", "--model", MODEL, "--slice", "e2=0.3",
                 f"--beta-sources={spec}"]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and repr(spec) in err


def test_beta_sources_without_slice_exits_2(capsys):
    """--beta-sources sets the fixed-length family's proportions, which only
    --slice draws; without it the option was ignored with exit 0."""
    assert main(["region", "--model", MODEL, "--beta-sources", "0.5,0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "--beta-sources" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["10", "1e6", "1e308"])
def test_slice_beyond_every_divergence_is_empty_and_quiet(tmp_path, capsys, value):
    """A fixed exponent past every divergence gives a header-only CSV with
    nothing on stderr; at 1e308 the slice LP used to warn of overflow."""
    out = tmp_path / "slice.csv"
    assert main(["region", "--model", MODEL, "--slice", f"e2={value}", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == b"x,y,family\r\n"


def test_slice_default_beta_sources_exactly_uniform(tmp_path):
    """Without --beta-sources the fixed-length family uses exactly 1/n per
    source. The default was formatted with %g and read back, 0.333333 on
    three sources, which moved this model's tuncel rows."""
    hyps = [[0.8, 0.1, 0.2], [0.3, 0.2, 0.8], [0.8, 0.6, 0.1]]
    model = tmp_path / "three.json"
    model.write_text(json.dumps({
        "M": 3, "n": 3, "alphabets": [2, 2, 2],
        "hypotheses": [{"independent": [[p, 1 - p] for p in row]} for row in hyps],
        "availability": [{"subset": [1, 2, 3], "prob": 1.0}],
        "actions": [[1], [2], [3]]}), encoding="utf-8")
    default, given = tmp_path / "default.csv", tmp_path / "given.csv"
    args = ["region", "--model", str(model), "--slice", "e2=0.05"]
    assert main(args + ["--out", str(default)]) == 0
    assert main(args + ["--out", str(given), "--beta-sources", ",".join([repr(1 / 3)] * 3)]) == 0
    assert "tuncel" in default.read_text()
    assert default.read_bytes() == given.read_bytes()


@pytest.mark.parametrize("args", [["--truth", "7"], ["--T", "inf"], ["--T", "nan"]])
def test_simulate_bad_argument_exits_1(tmp_path, capsys, args):
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--model", MODEL, "--T", "5", "--trials", "10",
                 "--out", str(out), *args]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", "-0x1", "1.5", "abc"])
def test_bad_seed_exits_2_at_parse_time(tmp_path, capsys, monkeypatch, seed):
    """A seed that is not a non-negative integer is refused by the parser:
    one line naming --seed, before the model is loaded."""
    monkeypatch.setattr(cli, "_load", None)  # any call would fail with exit 1
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--model", MODEL, "--T", "5", "--trials", "10",
                 "--out", str(out), f"--seed={seed}"]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--seed" in err and repr(seed) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", ["0", "-3", "1.5", "abc"])
def test_bad_max_steps_exits_2_at_parse_time(tmp_path, capsys, monkeypatch, steps):
    """A step cap below 1, which made every trial invalid and wrote a CSV of
    nan estimates with exit 0, is refused by the parser: one line naming
    --max-steps, before the model is loaded."""
    monkeypatch.setattr(cli, "_load", None)  # any call would fail with exit 1
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--model", MODEL, "--T", "5", "--trials", "10",
                 "--out", str(out), "--max-steps", steps]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--max-steps" in err and repr(steps) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, value", [
    ("--trials", "0"), ("--trials", "-2"), ("--trials", "1.5"), ("--trials", "abc"),
    ("--trials", "4294967297"),
    ("--truth", "abc"), ("--truth", "-1"), ("--truth", "1.0"),
    ("--T", "abc"), ("--T", "5,"), ("--T", "5,x"),
    ("--epsilon", "1"), ("--epsilon", "1.5"), ("--epsilon", "-0.1"), ("--epsilon", "nan"),
    ("--epsilon", "abc"),
])
def test_bad_simulate_option_exits_2_at_parse_time(tmp_path, capsys, monkeypatch,
                                                   option, value):
    """A trial count outside 1..2**32, a truth that is neither 'all' nor a
    non-negative integer, a budget list with a non-number and an exploration
    probability outside [0, 1) are refused by the parser: one line naming
    the option, before the model is loaded. They exited 1 with a line from
    int(), float(), ExperimentConfig or build_params that named no option."""
    monkeypatch.setattr(cli, "_load", None)  # any call would fail with exit 1
    out = tmp_path / "runs.csv"
    argv = {"--T": "5", "--trials": "10", option: value}
    assert main(["simulate", "--model", MODEL, "--out", str(out),
                 *(f"{k}={v}" for k, v in argv.items())]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and option in err and repr(value) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threads", ["abc", "0", "-4", "1.5"])
def test_bad_aseq_threads_exits_2_before_loading(tmp_path, capsys, monkeypatch, threads):
    """ASEQ_THREADS that is not a positive integer exits 2 in one line naming
    it, before the model is loaded. 'abc' exited 1 from int() after the LPs,
    naming no variable; 0 and -4 ran serially without a word."""
    monkeypatch.setattr(cli, "_load", None)  # any call would fail with exit 1
    monkeypatch.setenv("ASEQ_THREADS", threads)
    assert main(["simulate", "--model", MODEL, "--T", "5", "--trials", "10",
                 "--out", str(tmp_path / "runs.csv")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "ASEQ_THREADS" in err and repr(threads) in err
    assert list(tmp_path.iterdir()) == []


def test_huge_budget_exits_1_without_a_step_cap(tmp_path, capsys):
    """At T = 1e307 the default step cap 200 T overflows: the run ended in an
    OverflowError traceback. It exits 1 in one line naming T and --max-steps
    and writes nothing; with a cap the same run exits 0."""
    out = tmp_path / "runs.csv"
    argv = ["simulate", "--model", MODEL, "--T", "1e307", "--trials", "2",
            "--epsilon", "0", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "T=1e+307" in err and "--max-steps" in err
    assert list(tmp_path.iterdir()) == []
    assert main(argv + ["--max-steps", "5"]) == 0 and out.exists()


@pytest.mark.parametrize("spelling", ["same", "dot_slash"])
def test_out_and_summary_same_file_exits_2(tmp_path, capsys, monkeypatch, spelling):
    """--summary naming the --out file is refused before the model is
    loaded. Both went through one temporary: the run exited 1 and left the
    summary JSON in place of the results CSV."""
    monkeypatch.setattr(cli, "_load", None)  # any call would fail with exit 1
    monkeypatch.chdir(tmp_path)
    summary = "same.csv" if spelling == "same" else "./same.csv"
    assert main(["simulate", "--model", MODEL, "--T", "5", "--trials", "10",
                 "--out", "same.csv", "--summary", summary]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--out" in err and "--summary" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry, where", [
    ({"a": 1}, "$[0]"), ([[0.5, 0.5], [0.5]], "$[0]"), ("abc", "$[0]"), ([[0.0]], "$[0]"),
    ([[None], [0.5], [0.5]], "hypothesis 0"), ([[float("nan")], [0.5], [0.5]], "$[0]"),
    ([[10**400], [0.5], [0.5]], "$[0]"),
], ids=["object", "ragged", "string", "wrong_shape", "null", "nan", "huge"])
def test_bad_beta_file_exits_1(tmp_path, capsys, entry, where):
    """A frequency file whose first matrix is not a numeric table of the
    model's shape, or holds a null (read as NaN), a NaN or an integer beyond
    float range, is refused in one line naming it, and nothing is written.
    An object entry raised a TypeError traceback, a null entry ran and
    exited 0, and a 401-digit entry raised an OverflowError traceback."""
    beta, out = tmp_path / "beta.json", tmp_path / "runs.csv"
    ok = [[0.0], [0.5], [0.5]]
    beta.write_text(json.dumps([entry, ok, ok]), encoding="utf-8")
    assert main(["simulate", "--model", MODEL, "--T", "5", "--trials", "10",
                 "--out", str(out), "--beta", str(beta)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and where in err
    assert sorted(tmp_path.iterdir()) == [beta]


@pytest.mark.parametrize("level", ["1.5", "nan", "0", "1"])
def test_bad_ci_level_exits_2(tmp_path, capsys, level):
    """A confidence level outside (0, 1) is refused by both commands that
    take one, before any output is written; unchecked, 1.5 and nan wrote
    ci_lo 0 and ci_hi 1 on every row."""
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--model", MODEL, "--T", "5", "--trials", "10",
                 "--out", str(out), "--ci", level]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--ci" in err
    assert list(tmp_path.iterdir()) == []
    runs = tmp_path / "given.csv"
    runs.write_text("T,truth,declared,count\n5.0,0,1,3\n", encoding="utf-8")
    assert main(["exponents", "--in", str(runs), "--ci", level]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
    assert "--ci" in captured.err


def test_simulate_budgeted_model(tmp_path):
    cfg = json.loads(Path(MODEL).read_text())
    cfg["budgets"] = [{"coeff": [1, 1], "rate": 0.8}]
    model = tmp_path / "budgeted.json"
    model.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--model", str(model), "--T", "6", "--trials", "200",
                 "--seed", "5", "--epsilon", "0", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert "budget_0_usage" in rows[0]
    assert all(float(r["budget_0_usage"]) >= 0 for r in rows)  # plain numbers
    summary = json.loads((tmp_path / "runs_summary.json").read_text())
    budget = [c for c in summary["constraint_checks"] if c["name"] == "budget_0"]
    assert len(budget) == 3
    assert all(isinstance(c["ok"], bool) for c in budget)


def _many_action_model():
    # Four binary sources, every action (16 with the empty one), two
    # availability sets and a budget: the polytope has 1272 vertices.
    pmfs = [[0.2, 0.35, 0.5, 0.65], [0.8, 0.3, 0.6, 0.45], [0.4, 0.7, 0.25, 0.55]]
    return {"M": 3, "n": 4, "alphabets": [2] * 4,
            "hypotheses": [{"independent": [[p, 1 - p] for p in row]} for row in pmfs],
            "availability": [{"subset": [1, 2, 3, 4], "prob": 0.6},
                             {"subset": [1, 2], "prob": 0.4}],
            "actions": [list(s) for r in range(1, 5)
                        for s in itertools.combinations(range(1, 5), r)],
            "budgets": [{"coeff": [1, 1, 1, 1], "rate": 1.5}]}


def test_slice_many_actions_shared_frequency(tmp_path):
    # 32 frequencies, too many for a grid. The slice is a few LPs, and HiGHS
    # finds a shared frequency for each of its nonadaptive points.
    from scipy.optimize import linprog

    model = tmp_path / "many.json"
    model.write_text(json.dumps(_many_action_model()), encoding="utf-8")
    out = tmp_path / "slice.csv"
    start = time.perf_counter()
    assert main(["region", "--model", str(model), "--slice", "e2=0.3", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 60
    inst = load_instance(model)
    table = build_instance_table(inst)
    A_eq, b_eq, G, r = oracle_constraints(inst)
    rows = [(float(row["x"]), float(row["y"])) for row in csv.DictReader(out.open())
            if row["family"] == "nonadaptive"]
    assert len(rows) >= 3
    D = np.stack([table.pair_matrix(m, t).reshape(-1)
                  for m in range(3) for t in range(3) if t != m])
    for x, y in rows:
        # Truths 0, 1 and 2 need x, y and 0.3 against every declared m.
        e = np.tile([x, y, 0.3], (3, 1))[~np.eye(3, dtype=bool)]
        res = linprog(np.zeros(D.shape[1]), A_ub=np.vstack([G, -D]),
                      b_ub=np.concatenate([r, -(e - 1e-9 * (1 + e))]), A_eq=A_eq, b_eq=b_eq,
                      method="highs")
        assert res.status == 0, (x, y)


def test_region_too_many_active_sets_exits_1(tmp_path, capsys):
    # Five binary sources, all 32 actions, four availability sets and a
    # budget: 128 coordinates and C(129, 124) active sets, refused up front.
    cfg = _many_action_model()
    cfg.update(n=5, alphabets=[2] * 5,
               actions=[list(s) for r in range(6) for s in itertools.combinations(range(1, 6), r)],
               availability=[{"subset": [1, 2, 3, 4, 5], "prob": 0.4},
                             {"subset": [1, 2], "prob": 0.3},
                             {"subset": [3, 4, 5], "prob": 0.2},
                             {"subset": [1], "prob": 0.1}],
               budgets=[{"coeff": [1] * 5, "rate": 1.5}])
    for h in cfg["hypotheses"]:
        h["independent"].append([0.5, 0.5])
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(cfg), encoding="utf-8")
    start = time.perf_counter()
    assert main(["region", "--model", str(model), "--out", str(tmp_path / "r.json")]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "275234400 active sets" in err
    assert not (tmp_path / "r.json").exists()
    # Simulation enumerates no vertices and still runs on the same model.
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--model", str(model), "--T", "4", "--trials", "20",
                 "--seed", "3", "--epsilon", "0", "--out", str(out)]) == 0
    assert out.exists()


def test_simulate_failure_leaves_no_outputs(tmp_path, monkeypatch):
    def broken(report):
        raise RuntimeError("summary failed")

    monkeypatch.setattr(sim, "summary_dict", broken)
    out = tmp_path / "runs.csv"
    assert main(["simulate", "--model", MODEL, "--T", "6", "--trials", "20",
                 "--seed", "1", "--epsilon", "0", "--out", str(out)]) == 1
    assert not out.exists()
    assert not (tmp_path / "runs_summary.json").exists()
    assert list(tmp_path.iterdir()) == []  # no temporaries left either


def test_internal_error_exits_1(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvalidPmf("action probabilities exceed 1 by 1e-3\nsecond line")

    monkeypatch.setattr(cli, "compute_region", broken)
    assert main(["region", "--model", MODEL]) == 1
    err = capsys.readouterr().err.strip()
    assert err == ("internal error: InvalidPmf: action probabilities exceed 1 by 1e-3 "
                   "second line")


SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _fresh(code: str):
    """The JSON value that code prints last, run in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                         capture_output=True, text=True, check=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cold_start_loads_no_scipy(tmp_path):
    """import aseq, import aseq.cli and `aseq region` on the M = 3 example
    load no scipy module, and the imports load no numpy.random (a simulation
    loads it on its first chunk); an M = 4 region still exits 0 through the
    qhull import deferred to its hull."""
    loaded = f"[{SCIPY_LOADED}, 'numpy.random' in sys.modules]"
    assert _fresh(f"import aseq\nfirst = {loaded}\nimport aseq.cli\n"
                  f"print(json.dumps([first, {loaded}]))") == [[[], False], [[], False]]
    region = f"from aseq import cli\nrc = cli.main(['region', '--model', {{!r}}, '--out', {{!r}}])\n"
    assert _fresh(region.format(MODEL, str(tmp_path / "m3.json"))
                  + f"print(json.dumps([rc, {SCIPY_LOADED}]))") == [0, []]
    model = tmp_path / "m4_model.json"
    inst = make_instance(4, 2, (3, 3), rng=np.random.default_rng(4))
    model.write_text(json.dumps(instance_to_dict(inst)), encoding="utf-8")
    assert _fresh(region.format(str(model), str(tmp_path / "m4.json"))
                  + "print(json.dumps([rc, 'scipy.spatial' in sys.modules]))") == [0, True]


# ------------------------------------------------------------------- fuzz

def _paths(node, prefix=()):
    """Every key path into a JSON value, parents before children."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


FUZZ_BASE = _example_with_budget()
FUZZ_BASE.update(availability=[{"subset": [1, 2], "prob": 0.7}, {"subset": [1], "prob": 0.3}],
                 actions=[[1], [2], [1, 2]])
FUZZ_PATHS = list(_paths(FUZZ_BASE))
# Wrong types, zeros, and empty, duplicate or out-of-range subsets.
FUZZ_VALUES = [None, True, "x", 0, 0.0, -1, 0.5, 5, [], {}, {"a": 1}, [0], [3],
               [1, 1], [2, 1], [1, 2, 3], [[1]], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0],
               float("nan"), float("inf"), 10**400]
MUTATION = st.tuples(st.sampled_from(["set", "drop", "dup"]), st.sampled_from(FUZZ_PATHS),
                     st.sampled_from(FUZZ_VALUES))


@st.composite
def _grown(draw) -> dict:
    """An independent-source model with 2 to 4 hypotheses and 1 to 3 sources
    of 2 to 4 symbols, every source always available, one action each."""
    M, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {"M": M, "n": n, "alphabets": sizes,
            "hypotheses": [{"independent": [rng.dirichlet(np.ones(k)).tolist() for k in sizes]}
                           for _ in range(M)],
            "availability": [{"subset": list(range(1, n + 1)), "prob": 1.0}],
            "actions": [[j] for j in range(1, n + 1)], "budgets": []}


def _mutated(base, zeros, mutations) -> dict:
    cfg = copy.deepcopy(base)
    for j, k in zeros:  # symbol k of source j gets zero mass under every hypothesis
        for h in cfg["hypotheses"]:
            row = h["independent"][j] if j < len(h["independent"]) else []
            if k < len(row) and sum(row) > row[k]:
                row[k] = 0.0
                h["independent"][j] = [v / sum(row) for v in row]
    for op, keys, value in mutations:
        found = _resolve(cfg, keys)
        if found is None:
            continue
        node, key = found
        if op == "set":
            node[key] = copy.deepcopy(value)
        elif op == "drop":
            del node[key]
        elif isinstance(node[key], list) and node[key]:
            node[key].append(copy.deepcopy(node[key][-1]))
    return cfg


def _with_bad_values(test):
    for keys, _, value in BAD_VALUES.values():
        test = example(base=FUZZ_BASE, zeros=[], mutations=[("set", keys, value)],
                       slice_at=0.3)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(base=st.one_of(st.just(FUZZ_BASE), _grown()),
       zeros=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=2),
       mutations=st.lists(MUTATION, max_size=3),
       slice_at=st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0]))
@example(base=FUZZ_BASE, zeros=[], mutations=[], slice_at=0.3)
@example(base=FUZZ_BASE, zeros=[(1, 2)], mutations=[("set", ("budgets", 0, "rate"), 0)],
         slice_at=0.3)
@_with_bad_values
def test_cli_fuzz_mutated_model(base, zeros, mutations, slice_at):
    """validate, region and a small simulate on the example (with a budget and
    two availability sets) or on a grown model, then mutated, each end in
    exit 0 or 1 (every argument list is valid, so a 2 would mean a stale
    flag), with a one-line message when they fail and no numpy
    RuntimeWarning. With M = 3, the e2 slice runs too, so the fixed-length
    dual meets random models and zero-mass symbols."""
    cfg = _mutated(base, zeros, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(cfg), encoding="utf-8")
        runs = [["validate"], ["region", "--out", f"{tmp}/region.json"],
                ["simulate", "--T", "4", "--trials", "20", "--seed", "1",
                 "--epsilon", "0", "--out", f"{tmp}/runs.csv"]]
        if cfg.get("M") == 3:
            runs.append(["region", "--slice", f"e2={slice_at}", "--out", f"{tmp}/slice.csv"])
        for args in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([args[0], "--model", str(model)] + args[1:])
            assert code in (0, 1)
            event(f"{' '.join(args[:2])} exit {code}")
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
                [str(w.message) for w in caught]
            if code:
                assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
