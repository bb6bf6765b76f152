"""Command-line interface.

Subcommands: validate, divergence, region, simulate, exponents. Data goes to
files or stdout; diagnostics go to stderr. Exit codes: 0 success, 1 validation,
data or internal error, 2 usage error. All randomness flows from --seed, so
repeated invocations produce byte-identical outputs, and `simulate` writes its
results CSV and summary as a whole set or not at all.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import modelio, sim
from .errors import ModelFormatError
from .model import validate_model
from .region import (build_polytope, compute_region, decision_risk_exponents,
                     individual_hypothesis_region_slice, nonadaptive_slice,
                     source_marginals, tuncel_slice)

USAGE_EXIT = 2
DATA_EXIT = 1


class SystemExit2(Exception):
    """Usage-level failure; main() maps it to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, like every other usage error."""

    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _arg_type(convert, what: str):
    """An argparse type from convert(text), which raises ValueError on a bad
    value; the parser refuses that value in one line naming the option."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
    return parse


def _int_in(low: int, high: float = math.inf):
    def convert(text: str) -> int:
        if not low <= (value := int(text)) <= high:
            raise ValueError(text)
        return value
    return convert


def _number_where(ok):
    def convert(text: str) -> float:
        if not ok(value := float(text)):  # nan fails every comparison
            raise ValueError(text)
        return value
    return convert


_CI_LEVEL = _arg_type(_number_where(lambda v: 0.0 < v < 1.0),
                      "a confidence level strictly between 0 and 1, like 0.95")


def _load(path: str):
    p = Path(path)
    if not p.exists():
        raise SystemExit2(f"model file not found: {path}")
    return modelio.load_instance(p)


def _fmt_subset(s: tuple[int, ...]) -> str:
    return "+".join(str(j) for j in s) if s else "-"


def cmd_validate(args) -> int:
    inst = _load(args.model)
    report = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    if args.dump_normalized:
        modelio.dump_instance(inst, args.dump_normalized)
    print(f"llr_bound {report.llr_bound!r}")
    print(f"assumption2_ok {str(report.assumption2_ok).lower()}")
    print(f"assumption3_ok {str(report.assumption3_ok).lower()}")
    return 0


def cmd_divergence(args) -> int:
    inst = _load(args.model)
    table = validate_model(inst.model, inst.avail, inst.actions, inst.budgets).table
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["action", "z", "m", "theta", "kl_nats"])
        for ai, a in enumerate(inst.actions.actions):
            for zi, z in enumerate(inst.avail.sets):
                for m in range(inst.model.M):
                    for t in range(inst.model.M):
                        if t == m:
                            continue
                        w.writerow([_fmt_subset(a), _fmt_subset(z), m, t,
                                    repr(float(table.table[ai, zi, m, t]))])
    finally:
        if args.out:
            out.close()
    return 0


def _parse_slice(expr: str, M: int) -> tuple[int, float]:
    try:
        name, value = expr.split("=")
        k, v = int(name[1:]), float(value)
        if not name.startswith("e") or not 0 <= k < M or not (math.isfinite(v) and v >= 0):
            raise ValueError
        return k, v
    except ValueError:
        raise SystemExit2(f"bad slice argument {expr!r}; expected eK=V with K in "
                          f"0..{M - 1} and V finite and >= 0, like e2=0.1")


def _parse_beta_sources(spec: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in spec.split(",")])
    except ValueError:
        raise SystemExit2(f"bad --beta-sources {spec!r}; expected a comma list of "
                          f"per-source proportions, like 0.5,0.5")


def cmd_region(args) -> int:
    if args.beta_sources is not None and not args.slice:
        raise SystemExit2("--beta-sources applies to the fixed-length family of --slice only")
    inst = _load(args.model)
    fixed = dict([_parse_slice(args.slice, inst.model.M)]) if args.slice else None
    beta_sources = (np.full(inst.model.n, 1.0 / inst.model.n) if args.beta_sources is None
                    else _parse_beta_sources(args.beta_sources))
    table = validate_model(inst.model, inst.avail, inst.actions, inst.budgets).table
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    region = compute_region(table, poly)

    if fixed:
        rows: list[tuple[float, float, str]] = []
        adaptive = individual_hypothesis_region_slice(region, fixed)
        rows += [(float(x), float(y), "adaptive") for x, y in adaptive.points]
        na = nonadaptive_slice(table, poly, fixed)
        rows += [(float(x), float(y), "nonadaptive") for x, y in na.points]
        try:
            source_marginals(inst.model)
        except ValueError as exc:  # dependent sources or differing supports
            print(f"skipping tuncel family: {exc}", file=sys.stderr)
        else:
            try:
                tc = tuncel_slice(inst.model, beta_sources, fixed)
            except ValueError as exc:  # proportions the fixed-length dual refuses
                raise SystemExit2(f"bad --beta-sources {args.beta_sources!r}: {exc}")
            rows += [(float(x), float(y), "tuncel") for x, y in tc.points]
        out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
        try:
            w = csv.writer(out)
            w.writerow(["x", "y", "family"])
            for x, y, fam in rows:
                w.writerow([repr(x), repr(y), fam])
        finally:
            if args.out:
                out.close()
        return 0

    gamma, _ = decision_risk_exponents(table, poly)
    payload = {
        "gamma": [float(g) for g in gamma],
        "per_m": [
            {"declared": sub.declared,
             "thetas": list(sub.thetas),
             "corners": sub.corners.tolist(),
             "vertices": sub.vertices.tolist(),
             "facets": None if sub.facets is None else
             [{"normal": list(n), "offset": b} for n, b in sub.facets]}
            for sub in region.per_m
        ],
    }
    # One line: any indent sends json through its pure-Python encoder, which
    # took half the call on a region of a thousand vertices.
    text = json.dumps(payload) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    summary_path = args.summary or (str(Path(args.out).with_suffix("")) + "_summary.json")
    if Path(summary_path).resolve() == Path(args.out).resolve():
        raise SystemExit2(f"--out and --summary name the same file: {args.out!r}")
    try:
        workers = sim.env_workers()
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None
    inst = _load(args.model)
    if args.beta == "auto":
        betas = "auto"
    else:
        betas = tuple(modelio.load_betas(args.beta, inst))
    config = sim.ExperimentConfig(
        instance=inst, T_grid=args.T, trials=args.trials, seed=args.seed,
        betas=betas, ci_level=args.ci, truths=args.truth, max_steps=args.max_steps,
        epsilon=args.epsilon, workers=workers)
    report = sim.estimate_errors(config)
    # Both files go to temporaries beside their targets and are renamed only
    # once both are complete, so a failure leaves no half-written set.
    tmp_csv, tmp_summary = _temp_beside(args.out), _temp_beside(summary_path)
    try:
        sim.write_report_csv(report, tmp_csv)
        tmp_summary.write_text(json.dumps(sim.summary_dict(report), indent=2) + "\n",
                               encoding="utf-8")
        os.replace(tmp_csv, args.out)
        os.replace(tmp_summary, summary_path)
    finally:
        tmp_csv.unlink(missing_ok=True)
        tmp_summary.unlink(missing_ok=True)
    print(f"wrote {args.out} and {summary_path}", file=sys.stderr)
    return 0


def _temp_beside(path: str) -> Path:
    p = Path(path)
    return p.with_name(f".{p.name}.{os.getpid()}.tmp")


_COUNT_COLUMNS = ("T", "truth", "declared", "count")


def _read_counts(path: str) -> dict[tuple[float, int], dict[int, int]]:
    """Declared-hypothesis counts per (T, truth) cell of a results CSV.
    Raises ValueError naming a missing column or the line of a bad row. A
    results CSV has one row per declared hypothesis in each cell, so a truth
    or declared index at or past the file's row count is a bad row: M is
    taken from the indices, and a huge one would build huge count lists."""
    rows: list[tuple[int, float, int, int, int]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)  # an empty file has no fieldnames and no rows
        missing = [c for c in _COUNT_COLUMNS if c not in (reader.fieldnames or _COUNT_COLUMNS)]
        if missing:
            raise ValueError(f"{path}: no {', '.join(missing)} column in the header")
        for row in reader:
            try:
                T = float(row["T"])
                truth, declared, count = (int(row[c]) for c in _COUNT_COLUMNS[1:])
                # A count beyond 2**53 is no exact float, and far beyond one overflows.
                ok = 0.0 < T < math.inf and min(truth, declared, count) >= 0 and count <= 2**53
            except (TypeError, ValueError):  # TypeError: a short row's missing fields
                ok = False
            if not ok:
                raise ValueError(f"{path} line {reader.line_num}: expected T > 0 and "
                                 f"non-negative integers truth, declared and count, "
                                 f"count at most 2**53")
            rows.append((reader.line_num, T, truth, declared, count))
    cells: dict[tuple[float, int], dict[int, int]] = {}
    for line, T, truth, declared, count in rows:
        if max(truth, declared) >= len(rows):
            raise ValueError(f"{path} line {line}: truth and declared must be below the "
                             f"file's {len(rows)} rows (one row per hypothesis in each cell)")
        cells.setdefault((T, truth), {})[declared] = count
    return cells


def cmd_exponents(args) -> int:
    cells = _read_counts(args.infile)
    if not cells:
        raise SystemExit2("results file has no rows")
    M = 1 + max(m for counts in cells.values() for m in counts)
    counts = {key: [c.get(m, 0) for m in range(M)] for key, c in cells.items()}
    fits = sim._fit_counts(counts, M, sorted({truth for _, truth in cells}), args.ci)
    text = json.dumps([f.as_json() for f in fits.values()], indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="aseq", description="Active sequential multi-hypothesis "
                                         "testing: regions, policy, simulation.")
    subs = p.add_subparsers(dest="cmd", required=True)

    v = subs.add_parser("validate", help="check a model file, print diagnostics")
    v.add_argument("--model", required=True)
    v.add_argument("--dump-normalized", default=None, metavar="OUT")
    v.set_defaults(fn=cmd_validate)

    d = subs.add_parser("divergence", help="dump the pairwise divergence table as CSV")
    d.add_argument("--model", required=True)
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_divergence)

    r = subs.add_parser("region", help="exponent region as JSON, or 2-D slices as CSV")
    r.add_argument("--model", required=True)
    r.add_argument("--out", default=None)
    r.add_argument("--slice", default=None, metavar="eK=V")
    r.add_argument("--beta-sources", default=None,
                   help="per-source proportions for the fixed-length family "
                        "(comma list; default uniform)")
    r.set_defaults(fn=cmd_region)

    s = subs.add_parser("simulate", help="Monte Carlo error estimation")
    s.add_argument("--model", required=True)
    s.add_argument("--T", required=True, help="comma-separated budgets",
                   type=_arg_type(lambda text: tuple(map(float, text.split(","))),
                                  "a comma list of numbers, like 2,4,8"))
    s.add_argument("--beta", default="auto", help="'auto' or a frequency file")
    s.add_argument("--truth", default="all", type=_arg_type(
        lambda text: None if text == "all" else (_int_in(0)(text),),
        "'all' or a non-negative integer"))
    # ExperimentConfig's bound: each trial's index must fit one seed word
    s.add_argument("--trials", type=_arg_type(_int_in(1, 2**32), "an integer in 1..2**32"),
                   required=True)
    s.add_argument("--seed", type=_arg_type(_int_in(0), "a non-negative integer"), default=0)
    s.add_argument("--max-steps", type=_arg_type(_int_in(1), "a positive integer"),
                   default=None)
    s.add_argument("--epsilon", default=None,
                   type=_arg_type(_number_where(lambda v: 0.0 <= v < 1.0),
                                  "a probability in [0, 1), like 0.1"),
                   help="exploration probability override (0 disables exploration "
                        "and forfeits the finite-budget regime guarantee)")
    s.add_argument("--ci", type=_CI_LEVEL, default=0.95)
    s.add_argument("--out", required=True)
    s.add_argument("--summary", default=None)
    s.set_defaults(fn=cmd_simulate)

    e = subs.add_parser("exponents", help="fit decay rates from a results CSV")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--ci", type=_CI_LEVEL, default=0.95)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_exponents)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except RuntimeError as exc:  # InvalidPmf, a simplex or LP that failed, ...
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
