import contextlib
import copy
import csv
import io
import itertools
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from aseq import cli, sim
from aseq.cli import main
from aseq.errors import InvalidPmf
from aseq.modelio import instance_to_dict, load_instance

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
    # The file-based fit and the run's summary come from one fitter.
    summary = json.loads((tmp_path / "runs_summary.json").read_text())
    assert [(f["declared"], f["truth"], f["kind"], f["slope"]) for f in fits] == [
        (f["declared"], f["truth"], f["kind"], f["slope"])
        for f in summary["fitted_exponents"]]


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


def test_slice_bad_spec():
    assert main(["region", "--model", MODEL, "--slice", "q=0.1"]) == 2


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


def test_slice_grid_too_large_exits_1(tmp_path, capsys):
    model = tmp_path / "many.json"
    model.write_text(json.dumps(_many_action_model()), encoding="utf-8")
    start = time.perf_counter()
    assert main(["region", "--model", str(model), "--slice", "e2=0.3",
                 "--out", str(tmp_path / "slice.csv")]) == 1
    assert time.perf_counter() - start < 60
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "exceeds cap" in err


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
               [1, 1], [2, 1], [1, 2, 3], [[1]], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]
MUTATION = st.tuples(st.sampled_from(["set", "drop", "dup"]), st.sampled_from(FUZZ_PATHS),
                     st.sampled_from(FUZZ_VALUES))


def _mutated(zeros, mutations) -> dict:
    cfg = copy.deepcopy(FUZZ_BASE)
    for j, k in zeros:  # symbol k of source j gets zero mass under every hypothesis
        for h in cfg["hypotheses"]:
            row = h["independent"][j]
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
        test = example(zeros=[], mutations=[("set", keys, value)])(test)
    return test


@settings(max_examples=300, deadline=None)
@given(zeros=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=2),
       mutations=st.lists(MUTATION, max_size=3))
@example(zeros=[], mutations=[])
@example(zeros=[(1, 2)], mutations=[("set", ("budgets", 0, "rate"), 0)])
@_with_bad_values
def test_cli_fuzz_mutated_model(zeros, mutations):
    """validate, region and a small simulate on a mutated model each end in
    exit 0, 1 or 2, with a one-line message when they fail."""
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(_mutated(zeros, mutations)), encoding="utf-8")
        for args in (["validate"], ["region", "--out", f"{tmp}/region.json"],
                     ["simulate", "--T", "4", "--trials", "20", "--seed", "1",
                      "--epsilon", "0", "--out", f"{tmp}/runs.csv"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([args[0], "--model", str(model)] + args[1:])
            assert code in (0, 1, 2)
            event(f"{args[0]} exit {code}")
            if code:
                assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
