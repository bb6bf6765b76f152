"""The four workloads. Each round calls the program's public functions on the
generated model files, times them, and keeps the outputs for the checks.

A round is a fixed list of operations: every round of a workload attempts
the same operations, so the share that fails is the same in every run.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import aseq.cli as cli
import aseq.divergence as divergence
import aseq.model as model
import aseq.modelio as modelio
import aseq.policy as policy
import aseq.region as region
import aseq.sim as sim

import checks
import models

SLICE_AT = (2, 0.3)            # the e2=0.3 slice of the README
BETA_SOURCES = np.array([0.5, 0.5])
# `aseq region --slice` draws the fixed-length family with these options.
CLI_SLICE = region.TuncelOptions(grid_step=0.1, descent_starts=3, descent_iters=120)
# Criterion 3 asks its fixed-length queries with these.
CRITERION3 = region.TuncelOptions(grid_step=0.1, descent_starts=4, descent_iters=80)
CHEAP = region.TuncelOptions(grid_step=0.25, descent_starts=2, descent_iters=10)


@dataclass
class Round:
    compute_s: float = 0.0      # the workload's main computation
    ops: int = 0                # queries answered or valid trials run
    ops_s: float = 0.0          # wall time of those operations
    attempted: int = 0
    failed: int = 0
    out: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _load(path: Path):
    inst = modelio.load_instance(path)
    model.validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    table = divergence.build_instance_table(inst)
    return inst, table, region.build_polytope(inst.avail, inst.actions, inst.budgets)


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work, self.seed = work, seed
        self.model_dicts: dict[str, dict] = {}

    @property
    def paths(self) -> dict[str, Path]:
        return {k: self.work / f"{k}.json" for k in self.model_dicts}

    def write_models(self) -> list[Path]:
        for key, d in self.model_dicts.items():
            models.write(d, self.paths[key])
        self.sys = {k: checks.system(d) for k, d in self.model_dicts.items()}
        return list(self.paths.values())

    def prepare(self) -> None:
        """Untimed set-up in the measuring process."""

    def round(self) -> Round:
        raise NotImplementedError

    def check(self, r: Round, rng: np.random.Generator) -> list[str]:
        raise NotImplementedError

    def traced_checks(self, r: Round, results: dict, rng) -> list[str]:
        """Checks that need values captured by the traced run."""
        return []

    def traced_extra(self, last: Round) -> list[str]:
        """Once per traced run, after its rounds; ``last`` is the last round."""
        return []


class RegionWorkload(Workload):
    """`aseq region` (JSON) on models (a) and (b), then non-adaptive membership
    queries on (a) spread across the boundary."""

    name = "region"

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        n3, n4 = (2, 2) if tiny else (4, 3)
        self.model_dicts = {"m3": models.region_m3(seed, n3), "m4": models.region_m4(seed, n4)}
        self.n_queries = 16 if tiny else 1600

    def prepare(self):
        _, self.table, self.poly = _load(self.paths["m3"])
        rng = np.random.default_rng([self.seed, 1])
        self.queries, self.expected, self.in_band = checks.nonadaptive_queries(
            self.sys["m3"], rng, self.n_queries)

    def round(self):
        r = Round()
        r.out["verdicts"] = []
        half = len(self.queries) // 2
        # Half the query batch after each model, so the queries are timed
        # across the whole round.
        for (key, path), batch in zip(self.paths.items(),
                                      (self.queries[:half], self.queries[half:])):
            out = self.work / f"region-{key}.json"
            code, dt = _timed(cli.main, ["region", "--model", str(path), "--out", str(out)])
            r.compute_s += dt
            r.attempted += 1
            if code:
                r.failed += 1
            else:
                r.out[key] = json.loads(out.read_text(encoding="utf-8"))
            verdicts, dt = _timed(lambda: [region.nonadaptive_membership(e, self.table, self.poly)
                                           for e in batch])
            r.out["verdicts"] += verdicts
            r.ops_s += dt
        r.ops = len(self.queries)
        r.attempted += r.ops
        return r

    def check(self, r, rng):
        fails = []
        for key in self.paths:
            if key in r.out:
                fails += [f"{key}: {f}" for f in checks.check_region(self.sys[key], r.out[key], rng)]
        return fails + checks.check_verdicts(r.out["verdicts"], self.expected, self.in_band)

    def traced_checks(self, r, results, rng):
        fails = []
        vertices = results.get("region.enumerate_vertices", [])
        if len(vertices) != len(self.paths):
            return [f"{len(vertices)} vertex enumerations for {len(self.paths)} models"]
        for (key, sys), V in zip(self.sys.items(), vertices):
            fails += [f"{key}: {f}" for f in checks.check_polytope(sys, V, rng)]
            if key in r.out and any(len(sub["corners"]) != len(V) for sub in r.out[key]["per_m"]):
                fails.append(f"{key}: corner count differs from the vertex count {len(V)}")
        return fails


class SliceWorkload(Workload):
    """The e2=0.3 slice of the example model with all three families, then
    fixed-length membership queries from criterion 3's family."""

    name = "slice"

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.model_dicts = {"example": models.example(seed)}
        self.samples = 2
        self.slice_options = CHEAP if tiny else CLI_SLICE
        self.query_options = CHEAP if tiny else CRITERION3
        self.grid_step = 0.05 if tiny else 0.01
        self.n_queries = 3 if tiny else 30

    def prepare(self):
        rng = np.random.default_rng([self.seed, 2])
        self.queries = checks.fixed_length_queries(self.sys["example"], BETA_SOURCES, rng,
                                                   self.n_queries)

    def round(self):
        r = Round()
        k, v = SLICE_AT
        start = time.perf_counter()
        inst, table, poly = _load(self.paths["example"])
        reg = region.compute_region(table, poly)
        region.decision_risk_exponents(table, poly)
        r.out["adaptive"] = region.individual_hypothesis_region_slice(reg, {k: v}).points
        r.out["nonadaptive"] = region.nonadaptive_slice(table, poly, {k: v},
                                                        step=self.grid_step).points
        r.out["tuncel"] = region.tuncel_slice(inst.model, BETA_SOURCES, {k: v},
                                              samples=self.samples,
                                              options=self.slice_options).points
        r.compute_s = time.perf_counter() - start
        r.attempted += 3
        start = time.perf_counter()
        r.out["results"] = [region.tuncel_membership(e, inst.model, BETA_SOURCES,
                                                     self.query_options)
                            for e in self.queries]
        r.ops_s = time.perf_counter() - start
        r.ops = len(self.queries)
        r.attempted += r.ops
        return r

    def check(self, r, rng):
        sys = self.sys["example"]
        return (checks.check_slices(sys, SLICE_AT, r.out["adaptive"], r.out["nonadaptive"],
                                    r.out["tuncel"])
                + checks.check_fixed_length(sys, BETA_SOURCES, self.queries, r.out["results"]))

    def traced_checks(self, r, results, rng):
        return [f for V in results.get("region.enumerate_vertices", [])
                for f in checks.check_polytope(self.sys["example"], V, rng)]


class SimWorkload(Workload):
    """estimate_errors at epsilon = 0, then fit_exponents, verify_constraints
    and write_report_csv; sim-long adds one small `aseq simulate` call."""

    def __init__(self, work, seed, tiny, long: bool):
        super().__init__(work, seed, tiny)
        self.long = long
        self.name = "sim-long" if long else "sim-short"
        if long:
            self.model_dicts = {"simlong": models.sim_long(seed)}
            self.T_grid = (24.0, 36.0) if tiny else (24.0, 36.0, 48.0)
            self.trials = 20 if tiny else 200
            self.workers = 1
        else:
            self.model_dicts = {"example": models.example(seed)}
            self.T_grid = (2.0, 3.0, 4.0) if tiny else (2.0, 3.0, 4.0, 5.0, 6.0)
            self.trials = 200 if tiny else 1500
            self.workers = 2

    @property
    def key(self) -> str:
        return next(iter(self.model_dicts))

    def config(self, workers: int) -> sim.ExperimentConfig:
        return sim.ExperimentConfig(self.inst, self.T_grid, self.trials, seed=self.seed,
                                    betas="auto", epsilon=0.0, workers=workers)

    def prepare(self):
        self.inst, table, poly = _load(self.paths[self.key])
        llr = model.validate_model(self.inst.model, self.inst.avail, self.inst.actions,
                                   self.inst.budgets).llr_bound
        _, betas = region.decision_risk_exponents(table, poly)
        self.thresholds = {T: policy.build_params(T, self.inst, table, llr, betas,
                                                  epsilon=0.0).thresholds
                           for T in self.T_grid}

    def round(self):
        r = Round()
        csv_path = self.work / "results.csv"
        start = time.perf_counter()
        rep = sim.estimate_errors(self.config(self.workers))
        fits = sim.fit_exponents(rep)
        sim.verify_constraints(rep)
        sim.write_report_csv(rep, csv_path)
        r.compute_s = r.ops_s = time.perf_counter() - start
        r.ops = sum(c.n_valid for c in rep.cells.values())
        r.attempted += 4
        with open(csv_path, newline="", encoding="utf-8") as fh:
            r.out.update(report=rep, fits=fits, csv=list(csv.DictReader(fh)))
        if self.long:
            r.attempted += 1
            try:
                code = cli.main(["simulate", "--model", str(self.paths[self.key]),
                                 "--T", "24", "--trials", "20", "--seed", str(self.seed),
                                 "--epsilon", "0", "--out", str(self.work / "cli.csv"),
                                 "--summary", str(self.work / "cli_summary.json")])
                r.out["cli"] = f"exit {code}"
            except Exception as exc:  # counted as a failed operation, not a crash
                code = 1
                r.out["cli"] = f"{type(exc).__name__}: {exc}"
            if code:
                r.failed += 1
        return r

    def check(self, r, rng):
        sys, rep = self.sys[self.key], r.out["report"]
        fails = (checks.check_cells(rep, self.trials, self.thresholds)
                 + checks.check_fits(sys, r.out["fits"], rep.betas_used)
                 + checks.check_csv(rep, r.out["csv"]))
        if self.long:
            fails += checks.check_budget_rate(sys, rep)
        return fails

    def traced_extra(self, last):
        """Counts must not depend on the worker count: rerun the round's
        configuration with the other worker count and compare."""
        other = sim.estimate_errors(self.config(2 if self.workers == 1 else 1))
        return checks.same_counts(last.out["report"], other)


def make(name: str, work: Path, seed: int, tiny: bool = False) -> Workload:
    if name == "region":
        return RegionWorkload(work, seed, tiny)
    if name == "slice":
        return SliceWorkload(work, seed, tiny)
    return SimWorkload(work, seed, tiny, long=name == "sim-long")


def probe(work: Path, seed: int) -> None:
    """One small call of every traced layer on the example model, so a traced
    run reports layers its own workload never calls."""
    path = models.write(models.example(seed), work / "probe.json")
    sys = checks.system(models.example(seed))
    rng = np.random.default_rng([seed, 3])
    k, v = SLICE_AT
    inst, table, poly = _load(path)
    reg = region.compute_region(table, poly)
    region.decision_risk_exponents(table, poly)
    for e in checks.nonadaptive_queries(sys, rng, 8)[0]:
        region.nonadaptive_membership(e, table, poly)
    region.individual_hypothesis_region_slice(reg, {k: v})
    region.nonadaptive_slice(table, poly, {k: v}, step=0.05)
    region.tuncel_slice(inst.model, BETA_SOURCES, {k: v}, samples=2, options=CHEAP)
    for e in checks.fixed_length_queries(sys, BETA_SOURCES, rng, 2):
        region.tuncel_membership(e, inst.model, BETA_SOURCES, CHEAP)
    rep = sim.estimate_errors(sim.ExperimentConfig(inst, (2.0, 3.0, 4.0), 100, seed=seed,
                                                   betas="auto", epsilon=0.0, workers=1))
    sim.fit_exponents(rep)
    sim.verify_constraints(rep)
    sim.write_report_csv(rep, work / "probe.csv")
