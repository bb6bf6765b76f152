"""Benchmark of aseq: region, slice and Monte Carlo workloads, end to end and
layer by layer, with every output checked apart from the program.

    python3 bench/run.py --workload region --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --selftest

One run writes the workload's model files from --seed, sets up three times
in fresh interpreters, then repeats whole rounds of the workload for
--seconds and checks each round's outputs. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. --trace 0 gives
the end-to-end metrics; --trace 1 reruns the same rounds with spans around
every public call and gives the per-layer metrics. Details in README.md.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOADS = ("region", "slice", "sim-short", "sim-long")

# name -> (unit, layer, how the layer's spans become the metric)
PER_LAYER = {
    "aseq.import_s": ("s", "aseq.import", "setup"),
    "modelio.load_s": ("s", "modelio.load", "setup"),
    "model.validate_s": ("s", "model.validate", "setup"),
    "divergence.table_s": ("s", "divergence.table", "setup"),
    "region.build_polytope_s": ("s", "region.build_polytope", "setup"),
    "region.enumerate_vertices_s": ("s", "region.enumerate_vertices", "total"),
    "region.compute_region_s": ("s", "region.compute_region", "self"),
    "region.decision_risk_exponents_s": ("s", "region.decision_risk_exponents", "total"),
    "linprog.solve_lp_s": ("s", "linprog.solve_lp", "call"),
    "region.nonadaptive_membership_s": ("s", "region.nonadaptive_membership", "call"),
    "region.adaptive_slice_s": ("s", "region.adaptive_slice", "total"),
    "region.nonadaptive_slice_s": ("s", "region.nonadaptive_slice", "total"),
    "region.tuncel_slice_s": ("s", "region.tuncel_slice", "total"),
    "region.tuncel_membership_s": ("s", "region.tuncel_membership", "call"),
    "policy.build_params_s": ("s", "policy.build_params", "total"),
    "policy.run_trial_trials_per_s": ("1/s", "policy.run_trial", "calls_rate"),
    "policy.run_trial_steps_per_s": ("1/s", "policy.run_trial", "steps_rate"),
    "sim.estimate_errors_s": ("s", "sim.estimate_errors", "total"),
    "sim.fit_exponents_s": ("s", "sim.fit_exponents", "total"),
    "sim.verify_constraints_s": ("s", "sim.verify_constraints", "total"),
    "sim.write_report_csv_s": ("s", "sim.write_report_csv", "total"),
}


def setup_times(paths: list[Path]) -> list[dict]:
    """Phase times of SETUP_REPEATS cold starts on the workload's models."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *map(str, paths)],
                              capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


def layer_metric(tracer, layer: str, kind: str) -> tuple[float, str]:
    """The metric from the workload's own rounds (numbered; the worker-count
    rerun also feeds the trial-kernel rates), or from the probe when the
    workload never calls the layer."""
    def pick(keep):
        return [st for (rnd, name), st in tracer.stats.items() if name == layer and keep(rnd)]

    stats, source = pick(lambda rnd: isinstance(rnd, int)
                         or (kind.endswith("rate") and rnd == "workers")), "workload"
    if not stats:
        stats, source = pick(lambda rnd: rnd == "probe"), "probe"
    if not stats:
        raise RuntimeError(f"layer {layer} was never called")
    if kind == "call":
        return statistics.median(d for st in stats for d in st["durations"]), source
    if kind in ("total", "self"):
        return statistics.median(st[kind] for st in stats), source
    count = sum(st["steps" if kind == "steps_rate" else "calls"] for st in stats)
    return count / sum(st["total"] for st in stats), source


def run(args) -> int:
    import numpy as np
    import workloads
    from tracing import Tracer, instrument

    seed = args.seed % 2 ** 63
    work = OUT / f"run-{args.workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, work, seed)
        setups = setup_times(wl.write_models())
        wl.prepare()
        rng = np.random.default_rng([seed, 4])
        tracer = Tracer()
        rounds, failures = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            tracer.round = len(rounds)
            with instrument(tracer) if args.trace else nullcontext():
                r = wl.round()
            failures += wl.check(r, rng)
            if args.trace:
                failures += wl.traced_checks(r, tracer.results, rng)
                tracer.results.clear()
            rounds.append(r)
        if args.trace:
            tracer.round = "workers"
            with instrument(tracer):
                failures += wl.traced_extra(rounds[-1])
            tracer.round = "probe"
            with instrument(tracer):
                workloads.probe(work, seed)

        e2e = {
            "setup_s": (statistics.median(sum(s.values()) for s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "compute_s": (statistics.median(r.compute_s for r in rounds), "s"),
            "ops_per_s": (statistics.median(r.ops / r.ops_s for r in rounds), "1/s"),
        }
        if args.trace:
            metrics, sources = {}, {}
            for name, (unit, layer, kind) in PER_LAYER.items():
                if kind == "setup":
                    value, sources[name] = statistics.median(s[layer] for s in setups), "setup"
                else:
                    value, sources[name] = layer_metric(tracer, layer, kind)
                metrics[name] = {"value": value, "unit": unit}
            tracer.dump(OUT / f"trace-{args.workload}-{seed}.json",
                        {"workload": args.workload, "seed": seed, "rounds": len(rounds),
                         "metric_sources": sources, "setup": setups,
                         "end_to_end_traced": {k: v for k, (v, _) in e2e.items()}})
            print("traced end to end: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in e2e.items()),
                  file=sys.stderr)
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        for r in rounds:
            if "cli" in r.out and r.failed:
                print(f"aseq simulate failed: {r.out['cli']}", file=sys.stderr)
                break
        for f in failures:
            print(f"check failed: {f}", file=sys.stderr)
        result = {"correct": not failures,
                  "attempted": sum(r.attempted for r in rounds),
                  "failed": sum(r.failed for r in rounds),
                  "metrics": metrics}
        line = json.dumps(result)
        (OUT / f"result-{args.workload}-{seed}-trace{args.trace}.json").write_text(line + "\n")
        print(line)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def selftest() -> int:
    """Each workload at a tiny size, traced, must pass its checks; then
    corrupted outputs must fail them."""
    import checks
    import numpy as np
    import workloads
    from tracing import Tracer, instrument

    problems = []

    def expect(label: str, fails: list[str], caught: bool) -> None:
        ok = bool(fails) == caught
        print(f"selftest {'ok' if ok else 'FAILED'}: {label}"
              + (f" -> {fails[0]}" if fails else ""))
        if not ok:
            problems.append(label)

    work = OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rng = np.random.default_rng(5)
        for name in WORKLOADS:
            wl = workloads.make(name, work, seed=1, tiny=True)
            wl.write_models()
            wl.prepare()
            tracer = Tracer()
            tracer.round = 0
            with instrument(tracer):
                r = wl.round()
            fails = wl.check(r, rng) + wl.traced_checks(r, tracer.results, rng)
            with instrument(tracer):
                fails += wl.traced_extra(r)
            expect(f"{name}: clean outputs pass", fails, caught=False)

            if name == "region":
                V = tracer.results["region.enumerate_vertices"][0].copy()
                V[0, 0] += 0.05
                expect("shifted vertex", checks.check_polytope(wl.sys["m3"], V, rng), True)
                for key in ("m3", "m4"):
                    payload = copy.deepcopy(r.out[key])
                    facets = payload["per_m"][0]["facets"]
                    del facets[max(range(len(facets)), key=lambda i: sum(facets[i]["normal"]))]
                    expect(f"dropped facet ({key})",
                           checks.check_region(wl.sys[key], payload, rng), True)
                verdicts = list(r.out["verdicts"])
                flip = wl.in_band.index(False)
                verdicts[flip] = not verdicts[flip]
                expect("wrong membership verdict",
                       checks.check_verdicts(verdicts, wl.expected, wl.in_band), True)
            if name == "sim-short":
                rep = copy.deepcopy(r.out["report"])
                T = max(wl.T_grid)
                cell = rep.cells[(T, 0)]
                m = 1 if wl.thresholds[T][1, 0] >= wl.thresholds[T][2, 0] else 2
                moved = int(cell.declared[0]) // 2
                cell.declared[0] -= moved
                cell.declared[m] += moved
                expect("error counts above the martingale bound",
                       checks.check_cells(rep, wl.trials, wl.thresholds), True)
        tracer = Tracer()
        tracer.round = "probe"
        with instrument(tracer):
            workloads.probe(work, 1)
        missing = [n for n, (_, layer, kind) in PER_LAYER.items() if kind != "setup"
                   and not any(name == layer for (_, name) in tracer.stats)]
        expect("probe reaches every layer", missing, caught=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run each workload at a tiny size and corrupt its outputs")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "aseq" / "__init__.py").is_file():
        print(f"error: no aseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return selftest() if args.selftest else run(args)


if __name__ == "__main__":
    sys.exit(main())
