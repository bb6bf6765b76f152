"""Monte Carlo verification: error-rate estimation, exponent fits, constraint
checks.

Trials are independent given their derived seeds, so estimates are
reproducible bit-for-bit regardless of worker scheduling: trial k under truth
theta and budget T always uses the generator seeded by (master, theta,
bits(T), k), and aggregation is a sum of integer counts merged in chunk
order. Budget costs are formed from those counts once per cell, so they do
not depend on the chunking either.

Each (T, truth) cell is cut into chunks of trials/workers trials (workers
from the config, else ASEQ_THREADS, else 1). A chunk builds the cell's
TrialKernel once and calls run_trial for each of its trials. All chunks of
the grid go to one process pool of at most min(workers, chunks, CPUs)
processes; with one process they run in-process.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .divergence import DivergenceTable, build_instance_table
from .errors import TrialBudgetExceeded
from .model import Instance
from .policy import TestParams, TrialKernel, build_params, run_trial
from .region import build_polytope, decision_risk_exponents


@dataclass(frozen=True)
class ExperimentConfig:
    """What to simulate: instance, budgets grid, trial counts, seeding."""

    instance: Instance
    T_grid: tuple[float, ...]
    trials: int
    seed: int
    betas: tuple[np.ndarray, ...] | str = "auto"
    ci_level: float = 0.95
    truths: tuple[int, ...] | None = None
    max_steps: int | None = None
    epsilon: float | None = None
    workers: int = 0  # 0: take ASEQ_THREADS, default serial

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial per cell")
        if any(b >= a for a, b in zip(self.T_grid[1:], self.T_grid)):
            raise ValueError("T grid must be strictly increasing")


@dataclass
class CellStats:
    """Aggregates for one (T, truth) cell."""

    T: float
    truth: int
    regime: int
    n_valid: int = 0
    n_invalid: int = 0
    declared: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sum_tau: float = 0.0
    sum_tau2: float = 0.0
    source_totals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sum_cost: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sum_cost2: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def pi_hat(self, m: int) -> float:
        return float(self.declared[m]) / self.n_valid if self.n_valid else float("nan")

    @property
    def mean_tau(self) -> float:
        return self.sum_tau / self.n_valid if self.n_valid else float("nan")


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    betas_used: tuple[np.ndarray, ...]
    cells: dict[tuple[float, int], CellStats]

    @property
    def M(self) -> int:
        return self.config.instance.model.M


def wilson_interval(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    z = float(ndtri(0.5 + level / 2.0))
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def _trial_seed(master: int, truth: int, T: float, index: int) -> np.random.Generator:
    t_bits = int(np.float64(T).view(np.uint64))
    ss = np.random.SeedSequence((master, truth, t_bits, index))
    return np.random.Generator(np.random.PCG64(ss))


def _run_chunk(inst: Instance, params: TestParams, truth: int, T: float,
               seed: int, start: int, stop: int, max_steps: int | None):
    """Counts of trials start..stop-1 of one cell. Source counts are
    integers, so their sums and the sum of their outer products are exact
    and do not depend on how the trials were chunked."""
    M, n = inst.model.M, inst.model.n
    kernel = TrialKernel.build(inst, params, truth)
    declared = np.zeros(M)
    n_valid = n_invalid = 0
    sum_tau = sum_tau2 = 0.0
    source_totals = np.zeros(n)
    source_outer = np.zeros((n, n))
    for idx in range(start, stop):
        rng = _trial_seed(seed, truth, T, idx)
        try:
            res = run_trial(inst, params, truth, rng, max_steps, kernel=kernel)
        except TrialBudgetExceeded:
            n_invalid += 1
            continue
        n_valid += 1
        declared[res.declared] += 1
        sum_tau += res.stopping_time
        sum_tau2 += res.stopping_time ** 2
        source_totals += res.source_counts
        if inst.budgets.size:
            source_outer += np.outer(res.source_counts, res.source_counts)
    return declared, n_valid, n_invalid, sum_tau, sum_tau2, source_totals, source_outer


def _pool_size(workers: int, n_chunks: int, cpus: int | None) -> int:
    """Worker processes for a grid: no more than asked for, than there are
    chunks to run, or than the machine has CPUs."""
    return max(1, min(workers, n_chunks, cpus or 1))


def resolve_betas(config: ExperimentConfig, table: DivergenceTable
                  ) -> tuple[np.ndarray, ...]:
    """Explicit frequencies, or per-hypothesis worst-case maximizers."""
    if isinstance(config.betas, str):
        if config.betas != "auto":
            raise ValueError("betas must be matrices or 'auto'")
        inst = config.instance
        poly = build_polytope(inst.avail, inst.actions, inst.budgets)
        _, argmax = decision_risk_exponents(table, poly)
        return tuple(argmax)
    return tuple(np.asarray(b, dtype=float) for b in config.betas)


def estimate_errors(config: ExperimentConfig) -> ExperimentReport:
    """Run the full grid of (T, truth) cells and aggregate counts."""
    inst = config.instance
    from .model import validate_model

    report_info = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    table = build_instance_table(inst)
    betas = resolve_betas(config, table)
    truths = config.truths if config.truths is not None else tuple(range(inst.model.M))
    workers = config.workers or int(os.environ.get("ASEQ_THREADS", "1"))

    cells: dict[tuple[float, int], CellStats] = {}
    jobs = []  # (cell key, _run_chunk arguments), merged in this order
    n = config.trials
    chunk = max(1, n // max(workers, 1))
    for T in config.T_grid:
        params = build_params(T, inst, table, report_info.llr_bound, betas,
                              epsilon=config.epsilon)
        for truth in truths:
            cells[(T, truth)] = CellStats(T, truth, params.regime,
                                          declared=np.zeros(inst.model.M),
                                          source_totals=np.zeros(inst.model.n))
            jobs += [((T, truth), (inst, params, truth, T, config.seed, s,
                                   min(s + chunk, n), config.max_steps))
                     for s in range(0, n, chunk)]
    size = _pool_size(workers, len(jobs), os.cpu_count())
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            results = list(pool.map(_run_chunk_star, [args for _, args in jobs]))
    else:
        results = [_run_chunk(*args) for _, args in jobs]

    outer = {key: np.zeros((inst.model.n, inst.model.n)) for key in cells}
    for (key, _), (declared, nv, ni, st, st2, src, ss) in zip(jobs, results):
        cell = cells[key]
        cell.declared += declared
        cell.n_valid += nv
        cell.n_invalid += ni
        cell.sum_tau += st
        cell.sum_tau2 += st2
        cell.source_totals += src
        outer[key] += ss
    # Per-trial cost c . s sums to c . (sum of s), and its square to
    # c^T (sum of s s^T) c: formed once here, so chunking cannot move them.
    coeffs = inst.budgets.coeffs
    for key, cell in cells.items():
        cell.sum_cost = coeffs @ cell.source_totals
        cell.sum_cost2 = np.einsum("ij,jk,ik->i", coeffs, outer[key], coeffs)
    return ExperimentReport(config, betas, cells)


def _run_chunk_star(args):
    return _run_chunk(*args)


@dataclass(frozen=True)
class FitEntry:
    declared: int
    truth: int
    kind: str  # "fit" | "lower_bound" | "insufficient"
    slope: float
    stderr: float
    n_points: int


def fit_exponents(report: ExperimentReport) -> dict[tuple[int, int], FitEntry]:
    """Least-squares decay rates of -log pi_hat against T, per error type."""
    counts = {key: cell.declared for key, cell in report.cells.items()}
    return _fit_counts(counts, report.M, range(report.M), report.config.ci_level)


def _fit_counts(counts: dict[tuple[float, int], np.ndarray], M: int,
                truths, ci_level: float) -> dict[tuple[int, int], FitEntry]:
    """Decay rates from declared-hypothesis counts per (T, truth) cell.

    Cells need an observed error count and a Wilson interval narrower than
    the estimate itself to enter the regression; pairs with fewer than three
    usable cells fall back to a conservative lower bound from their zero- or
    low-count cells ((errors+1)/N), or are marked insufficient.
    """
    T_grid = sorted({T for T, _ in counts})
    out: dict[tuple[int, int], FitEntry] = {}
    for m in range(M):
        for truth in truths:
            if truth == m:
                continue
            xs, ys = [], []
            bound = -np.inf
            for T in T_grid:
                declared = counts.get((T, truth))
                n = 0 if declared is None else int(np.sum(declared))
                if n == 0:
                    continue
                k = int(declared[m])
                bound = max(bound, math.log(n / (k + 1)) / T)
                if k == 0:
                    continue
                lo, hi = wilson_interval(k, n, ci_level)
                if hi - lo >= k / n:
                    continue
                xs.append(T)
                ys.append(-math.log(k / n))
            if len(xs) >= 3:
                x = np.array(xs)
                y = np.array(ys)
                xc = x - x.mean()
                slope = float(xc @ (y - y.mean()) / (xc @ xc))
                resid = y - y.mean() - slope * xc
                dof = len(xs) - 2
                stderr = float(math.sqrt((resid @ resid) / dof / (xc @ xc)))
                out[(m, truth)] = FitEntry(m, truth, "fit", slope, stderr, len(xs))
            elif math.isfinite(bound):
                out[(m, truth)] = FitEntry(m, truth, "lower_bound", float(bound),
                                           float("nan"), len(xs))
            else:
                out[(m, truth)] = FitEntry(m, truth, "insufficient", float("nan"),
                                           float("nan"), len(xs))
    return out


@dataclass(frozen=True)
class ConstraintCheck:
    T: float
    truth: int
    name: str
    statistic: float
    bound: float
    ok: bool

    @property
    def slack(self) -> float:
        return self.bound - self.statistic


def verify_constraints(report: ExperimentReport, confidence: float = 0.99
                       ) -> list[ConstraintCheck]:
    """One-sided upper-confidence checks of the stopping-time and budget
    constraints for every simulated cell."""
    z = float(ndtri(confidence))
    inst = report.config.instance
    checks: list[ConstraintCheck] = []
    for (T, truth), cell in sorted(report.cells.items()):
        n = cell.n_valid
        if n == 0:
            continue
        mean_tau = cell.mean_tau
        var_tau = max(cell.sum_tau2 / n - mean_tau ** 2, 0.0) * n / max(n - 1, 1)
        ucb = mean_tau + z * math.sqrt(var_tau / n)
        checks.append(ConstraintCheck(T, truth, "expected_stopping_time",
                                      ucb, T, ucb <= T))
        for i in range(inst.budgets.size):
            mean_c = cell.sum_cost[i] / n
            var_c = max(cell.sum_cost2[i] / n - mean_c ** 2, 0.0) * n / max(n - 1, 1)
            ucb_c = mean_c + z * math.sqrt(var_c / n)
            limit = float(inst.budgets.rates[i]) * T
            checks.append(ConstraintCheck(T, truth, f"budget_{i}",
                                          float(ucb_c), limit, bool(ucb_c <= limit)))
    return checks


CSV_COLUMNS = ("T", "truth", "declared", "count", "pi_hat", "ci_lo", "ci_hi",
               "mean_tau")


def write_report_csv(report: ExperimentReport, path) -> None:
    """One row per (T, truth, declared); budget usage columns follow the
    fixed prefix, then invalid_frac and regime."""
    inst = report.config.instance
    n_b = inst.budgets.size
    header = list(CSV_COLUMNS) + [f"budget_{i}_usage" for i in range(n_b)] \
        + ["invalid_frac", "regime"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for (T, truth), cell in sorted(report.cells.items()):
            n = cell.n_valid
            for m in range(report.M):
                k = int(cell.declared[m])
                lo, hi = wilson_interval(k, n, report.config.ci_level)
                usage = [repr(float(cell.sum_cost[i] / n) if n else float("nan"))
                         for i in range(n_b)]
                inv = cell.n_invalid / (n + cell.n_invalid) if n + cell.n_invalid else 0.0
                w.writerow([repr(T), truth, m, k,
                            repr(k / n if n else float("nan")),
                            repr(lo), repr(hi), repr(cell.mean_tau)]
                           + usage + [repr(inv), cell.regime])


def summary_dict(report: ExperimentReport) -> dict:
    """JSON-ready summary: per-cell stats, fitted exponents, constraint checks."""
    fits = fit_exponents(report)
    checks = verify_constraints(report)
    return {
        "T_grid": list(report.config.T_grid),
        "trials": report.config.trials,
        "seed": report.config.seed,
        "cells": [
            {"T": T, "truth": truth, "regime": cell.regime,
             "n_valid": cell.n_valid, "n_invalid": cell.n_invalid,
             "mean_tau": cell.mean_tau,
             "pi_hat": [cell.pi_hat(m) for m in range(report.M)]}
            for (T, truth), cell in sorted(report.cells.items())
        ],
        "fitted_exponents": [
            {"declared": f.declared, "truth": f.truth, "kind": f.kind,
             "slope": f.slope, "stderr": f.stderr, "n_points": f.n_points}
            for f in fits.values()
        ],
        "constraint_checks": [
            {"T": c.T, "truth": c.truth, "name": c.name, "statistic": c.statistic,
             "bound": c.bound, "ok": c.ok}
            for c in checks
        ],
    }
