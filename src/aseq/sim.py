"""Monte Carlo verification: error-rate estimation, exponent fits, constraint
checks.

Trials are independent given their derived seeds, so estimates are
reproducible bit-for-bit regardless of worker scheduling: trial k under truth
theta and budget T always uses the PCG64 generator seeded by
SeedSequence((master, theta, bits(T), k)). Chunks tally their trials'
integer outcomes, and each cell, budget costs included, is reduced once from
the merged tally of its chunks, so chunking cannot move a float.

A chunk computes its trials' seed words with numpy passes of SeedSequence's
own hash (``_seed_words``), _SEED_BLOCK trials per pass, rather than one
SeedSequence per trial, which cost a third of a short trial. The words are
SeedSequence's, and a test holds them to it bit for bit.

Each (T, truth) cell is cut into chunks of trials/workers trials (workers
from the config, 1 by default). The cell's TrialKernel is built once and
sent to each of its chunks; a chunk keeps only one block of seed words and
its tally, which grows with the distinct outcomes, not with the trials. All
chunks of the grid go to one process pool of at most min(workers, chunks,
CPUs) processes; with one process they run in-process.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .divergence import DivergenceTable
from .errors import TrialBudgetExceeded
from .model import Instance, validate_model
from .policy import TrialKernel, build_params, default_max_steps, run_trial
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
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.trials <= 2**32:  # trial indices must fit one seed word
            raise ValueError(f"trials must lie in 1..2**32, got {self.trials!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps!r}")
        if self.max_steps is None:
            for T in filter(math.isfinite, self.T_grid):  # build_params refuses the rest
                default_max_steps(T)
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers!r}")
        if any(b >= a for a, b in zip(self.T_grid[1:], self.T_grid)):
            raise ValueError("T grid must be strictly increasing")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level must lie strictly between 0 and 1, got {self.ci_level!r}")
        if self.epsilon is not None and not 0.0 <= self.epsilon < 1.0:  # nan fails too
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon!r}")
        M = self.instance.model.M
        truths = self.truths or ()
        if any(not 0 <= t < M for t in truths) or len(set(truths)) < len(truths):
            raise ValueError(f"truths must be distinct and in 0..{M - 1}, got {self.truths}")


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


def _normal_quantile(p: float) -> float:
    from scipy.special import ndtri  # deferred: slow import
    return float(ndtri(p))


def wilson_interval(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    z = _normal_quantile(0.5 + level / 2.0)
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


# numpy.random.SeedSequence's hash constants; its pool holds four words.
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_POOL = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """n as SeedSequence splits an integer: 32-bit words, least significant
    first; zero is one word."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(master: int, truth: int, T: float, start: int, stop: int) -> np.ndarray:
    """Row k - start holds the four uint64 words that
    SeedSequence((master, truth, bits(T), k)).generate_state(4, np.uint64)
    returns, for k in start..stop-1 (stop <= 2**32, so k is one word).

    SeedSequence's own mixing, run over the chunk as uint32 arrays: only the
    last entropy word, the index, differs between rows. There are at least
    four entropy words, one or more from each input, so they fill the pool."""
    t_bits = int(np.float64(T).view(np.uint64))
    index = np.arange(start, stop, dtype=np.uint32)
    entropy = [np.full_like(index, w) for w in
               _uint32_words(master) + _uint32_words(truth) + _uint32_words(t_bits)]
    entropy.append(index)
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    # Eight uint32 words, cycling over the pool, pair up into four uint64s.
    state = np.empty((index.size, 8), dtype=np.uint32)
    hash_b = _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * np.uint32(hash_b)
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _generator_from_words():
    """A function from one row of ``_seed_words`` to its trial's Generator.
    PCG64 seeds itself from the row through its own C code. Built on first
    use, so that ``import aseq`` loads no numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Hands PCG64 the words it asks for: generate_state(4, np.uint64)."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(SeedWords(words)))


_SEED_BLOCK = 4096


def _run_chunk(kernel: TrialKernel, seed: int, start: int, stop: int,
               max_steps: int | None) -> Counter:
    """Tally of the outcomes (stopping time, declared hypothesis, source
    counts) of trials start..stop-1 of the kernel's cell. A trial that hits
    the step cap is not tallied. Seed words are computed _SEED_BLOCK trials
    at a time, so a chunk's memory does not grow with its trial count."""
    tally = Counter()
    generator = _generator_from_words()
    for lo in range(start, stop, _SEED_BLOCK):
        hi = min(lo + _SEED_BLOCK, stop)
        for words in _seed_words(seed, kernel.truth, kernel.params.T, lo, hi):
            try:
                res = run_trial(kernel, generator(words), max_steps)
            except TrialBudgetExceeded:
                continue
            tally[res.stopping_time, res.declared, res.source_counts] += 1
    return tally


def _cell(key: tuple[float, int], kernel: TrialKernel, tally: Counter, trials: int,
          coeffs: np.ndarray) -> CellStats:
    """The statistics of the cell ``key`` from the merged tally of its trials.

    Every value is an integer below 2**53 held in float64, so every sum is
    exact and none depends on how the trials were chunked. A trial's cost
    c . s sums to c . (sum of s), and its square to c^T (sum of s s^T) c."""
    w = np.array(list(tally.values()), dtype=float)
    tau = np.array([k[0] for k in tally], dtype=float)
    S = np.array([k[2] for k in tally], dtype=float).reshape(len(tally), kernel.n_sources)
    # An empty bincount is int64 even with weights.
    declared = np.bincount([k[1] for k in tally], w, len(kernel.params.betas)).astype(float)
    n_valid = tally.total()
    source_totals = w @ S
    return CellStats(*key, kernel.params.regime, n_valid, trials - n_valid, declared,
                     float(w @ tau), float(w @ tau ** 2), source_totals,
                     coeffs @ source_totals,
                     np.einsum("ij,jk,ik->i", coeffs, S.T @ (w[:, None] * S), coeffs))


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
    report_info = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    table = report_info.table
    betas = resolve_betas(config, table)
    truths = config.truths if config.truths is not None else tuple(range(inst.model.M))

    kernels: dict[tuple[float, int], TrialKernel] = {}
    for T in config.T_grid:
        params = build_params(T, inst, table, report_info.llr_bound, betas,
                              epsilon=config.epsilon)
        for truth in truths:
            kernels[(T, truth)] = TrialKernel.build(inst, params, truth)
    n = config.trials
    chunk = max(1, n // config.workers)
    jobs = [(key, (kernel, config.seed, s, min(s + chunk, n), config.max_steps))
            for key, kernel in kernels.items() for s in range(0, n, chunk)]
    size = _pool_size(config.workers, len(jobs), os.cpu_count())
    if size > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: slow import
        with ProcessPoolExecutor(max_workers=size) as pool:
            tallies = list(pool.map(_run_chunk, *zip(*(args for _, args in jobs))))
    else:
        tallies = [_run_chunk(*args) for _, args in jobs]

    merged = {key: Counter() for key in kernels}
    for (key, _), tally in zip(jobs, tallies):
        merged[key].update(tally)
    cells = {key: _cell(key, kernel, merged[key], n, inst.budgets.coeffs)
             for key, kernel in kernels.items()}
    return ExperimentReport(config, betas, cells)


@dataclass(frozen=True)
class FitEntry:
    declared: int
    truth: int
    kind: str  # "fit" | "lower_bound" | "insufficient"
    slope: float
    stderr: float
    n_points: int

    def as_json(self) -> dict:
        """The fit as a JSON-ready dict, with null for a NaN slope or stderr."""
        return {"declared": self.declared, "truth": self.truth, "kind": self.kind,
                "slope": _null_nan(self.slope), "stderr": _null_nan(self.stderr),
                "n_points": self.n_points}


def _null_nan(v: float) -> float | None:
    return None if math.isnan(v) else v


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


def verify_constraints(report: ExperimentReport) -> list[ConstraintCheck]:
    """One-sided 99% upper-confidence checks of the stopping-time and budget
    constraints for every simulated cell."""
    z = _normal_quantile(0.99)

    def ucb(total, total2, n: int) -> float:
        """Mean plus z standard errors, from a sum and a sum of squares; the
        summary's statistics keep their bits only in this order of operations."""
        mean = total / n
        var = max(total2 / n - mean ** 2, 0.0) * n / max(n - 1, 1)
        return float(mean + z * math.sqrt(var / n))

    inst = report.config.instance
    checks: list[ConstraintCheck] = []
    for (T, truth), cell in sorted(report.cells.items()):
        n = cell.n_valid
        if n == 0:
            continue
        stat = ucb(cell.sum_tau, cell.sum_tau2, n)
        checks.append(ConstraintCheck(T, truth, "expected_stopping_time", stat, T, stat <= T))
        for i in range(inst.budgets.size):
            stat = ucb(cell.sum_cost[i], cell.sum_cost2[i], n)
            limit = float(inst.budgets.rates[i]) * T
            checks.append(ConstraintCheck(T, truth, f"budget_{i}", stat, limit, stat <= limit))
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
    """JSON-ready summary: per-cell stats, fitted exponents, constraint checks.
    A NaN (the mean stopping time and estimates of a cell with no valid
    trial, a fit's missing slope or stderr) is written as null."""
    fits = fit_exponents(report)
    checks = verify_constraints(report)
    return {
        "T_grid": list(report.config.T_grid),
        "trials": report.config.trials,
        "seed": report.config.seed,
        "cells": [
            {"T": T, "truth": truth, "regime": cell.regime,
             "n_valid": cell.n_valid, "n_invalid": cell.n_invalid,
             "mean_tau": _null_nan(cell.mean_tau),
             "pi_hat": [_null_nan(cell.pi_hat(m)) for m in range(report.M)]}
            for (T, truth), cell in sorted(report.cells.items())
        ],
        "fitted_exponents": [f.as_json() for f in fits.values()],
        "constraint_checks": [
            {"T": c.T, "truth": c.truth, "name": c.name, "statistic": c.statistic,
             "bound": c.bound, "ok": c.ok}
            for c in checks
        ],
    }
