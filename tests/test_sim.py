import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aseq
from aseq import sim
from aseq.errors import TrialBudgetExceeded
from aseq.model import BudgetSpec, Instance, validate_model
from aseq.policy import TrialKernel, build_params, run_trial
from aseq.sim import (CellStats, ExperimentConfig, ExperimentReport, _pool_size,
                      estimate_errors, fit_exponents, resolve_betas,
                      verify_constraints, wilson_interval, write_report_csv)

from conftest import make_instance, reference_trial_seed, two_set_instance
from test_model import P01, P02, P11, P12


def weak_binary():
    return make_instance(2, 1, (2,), pmf_rows=[[[0.6, 0.4]], [[0.4, 0.6]]])


def test_config_validation():
    inst = weak_binary()
    with pytest.raises(ValueError):
        ExperimentConfig(inst, (10.0, 5.0), 100, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(inst, (5.0, 10.0), 0, 0)
    for level in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="ci_level"):
            ExperimentConfig(inst, (5.0, 10.0), 100, 0, ci_level=level)
    # Seeds are non-negative, and every trial index must fit one 32-bit seed word.
    with pytest.raises(ValueError, match="seed.*-1"):
        ExperimentConfig(inst, (5.0,), 100, -1)
    with pytest.raises(ValueError, match=f"trials.*{2**32 + 1}"):
        ExperimentConfig(inst, (5.0,), 2**32 + 1, 0)
    ExperimentConfig(inst, (5.0,), 2**32, 2**70)  # the largest count, a many-word seed
    for steps in (0, -3):
        with pytest.raises(ValueError, match=f"max_steps.*{steps}"):
            ExperimentConfig(inst, (5.0,), 100, 0, max_steps=steps)
    # A repeated truth ran its cell twice: n_valid 200 for a 100-trial cell.
    for truths in ((0, 0), (1, 0, 1)):
        with pytest.raises(ValueError, match=f"distinct.*{re.escape(str(truths))}"):
            ExperimentConfig(inst, (5.0,), 100, 0, truths=truths)
    for epsilon in (1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            ExperimentConfig(inst, (5.0,), 100, 0, epsilon=epsilon)
    for workers in (0, -1):
        with pytest.raises(ValueError, match=f"workers.*{workers}"):
            ExperimentConfig(inst, (5.0,), 100, 0, workers=workers)
    # 200 T, the default step cap, overflowed into an OverflowError mid-run.
    with pytest.raises(ValueError, match=r"T=1e\+307.*--max-steps"):
        ExperimentConfig(inst, (5.0, 1e307), 100, 0)
    ExperimentConfig(inst, (5.0, 1e307), 100, 0, max_steps=5)
    ExperimentConfig(inst, (5.0, math.inf), 100, 0)  # build_params refuses it


@pytest.mark.parametrize("threads", ["abc", "0", "-4", "1.5", "4"])
def test_library_ignores_aseq_threads(monkeypatch, threads):
    """Only the CLI reads ASEQ_THREADS: estimate_errors takes its worker
    count from ExperimentConfig.workers, 1 by default, and starts no pool."""
    cfg = ExperimentConfig(weak_binary(), (30.0,), 40, 0, epsilon=0.0)
    want = estimate_errors(cfg)
    monkeypatch.setenv("ASEQ_THREADS", threads)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)  # any pool would fail
    _cells_equal(estimate_errors(cfg), want)


def test_reproducible_reports(tmp_path):
    inst = weak_binary()
    cfg = ExperimentConfig(inst, (30.0, 60.0), 300, seed=5, epsilon=0.0)
    r1 = estimate_errors(cfg)
    r2 = estimate_errors(cfg)
    for key in r1.cells:
        assert np.all(r1.cells[key].declared == r2.cells[key].declared)
        assert r1.cells[key].sum_tau == r2.cells[key].sum_tau
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(r1, p1)
    write_report_csv(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_identical_hypotheses_random_guess():
    inst = make_instance(2, 1, (3,), pmf_rows=[[P01], [P01]])
    # discrimination fails, so betas='auto' still works (all exponents zero)
    cfg = ExperimentConfig(inst, (50.0,), 4000, seed=1,
                           betas=(np.array([[1.0], [0.0]]),) * 2)
    rep = estimate_errors(cfg)
    cell = rep.cells[(50.0, 0)]
    assert cell.regime == 1
    assert cell.pi_hat(1) == pytest.approx(0.5, abs=0.03)


def test_error_rates_decrease_with_T():
    inst = weak_binary()
    cfg = ExperimentConfig(inst, (30.0, 90.0), 4000, seed=2, epsilon=0.0)
    rep = estimate_errors(cfg)
    lo = rep.cells[(30.0, 0)].pi_hat(1)
    hi = rep.cells[(90.0, 0)].pi_hat(1)
    assert 0 < hi < lo < 0.5
    for cell in rep.cells.values():
        assert int(cell.declared.sum()) == cell.n_valid


def test_wilson_basic_properties():
    lo, hi = wilson_interval(0, 100, 0.95)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo < 0.5 < hi


def test_wilson_coverage():
    rng = np.random.default_rng(33)
    p, n, level = 0.07, 400, 0.95
    hits = 0
    reps = 1000
    for _ in range(reps):
        k = rng.binomial(n, p)
        lo, hi = wilson_interval(int(k), n, level)
        hits += lo <= p <= hi
    assert 0.93 <= hits / reps <= 0.97


def _report_from_counts(inst, grid, counts, n, ci=0.95):
    cfg = ExperimentConfig(inst, tuple(grid), n, 0, betas=(np.array([[1.0], [0.0]]),) * 2,
                           ci_level=ci)
    cells = {}
    for T, k in zip(grid, counts):
        cell = CellStats(T, 0, 2, n_valid=n, declared=np.array([n - k, k], dtype=float),
                         sum_tau=float(n), source_totals=np.zeros(1),
                         sum_cost=np.zeros(0), sum_cost2=np.zeros(0))
        cells[(T, 0)] = cell
    return ExperimentReport(cfg, cfg.betas, cells)


def test_fit_exact_exponential():
    # pi_hat values lying exactly on exp(-cT) recover c
    inst = weak_binary()
    n = 2 ** 24
    grid = [2.0, 3.0, 4.0]
    counts = [2 ** 16, 2 ** 12, 2 ** 8]  # pi = 2^-8, 2^-12, 2^-16
    rep = _report_from_counts(inst, grid, counts, n)
    fits = fit_exponents(rep)
    c = 4 * math.log(2)
    assert fits[(1, 0)].kind == "fit"
    assert fits[(1, 0)].slope == pytest.approx(c, abs=1e-9)
    assert fits[(1, 0)].stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_constant_pi_zero_slope():
    inst = weak_binary()
    n = 10 ** 6
    rep = _report_from_counts(inst, [2.0, 3.0, 4.0], [1000, 1000, 1000], n)
    fits = fit_exponents(rep)
    assert fits[(1, 0)].slope == pytest.approx(0.0, abs=1e-12)


def test_fit_zero_errors_lower_bound():
    inst = weak_binary()
    n = 10 ** 5
    rep = _report_from_counts(inst, [10.0, 20.0, 40.0], [0, 0, 0], n)
    fits = fit_exponents(rep)
    f = fits[(1, 0)]
    assert f.kind == "lower_bound"
    assert f.slope == pytest.approx(math.log(n) / 10.0)


def test_fit_insufficient_points():
    inst = weak_binary()
    n = 1000
    rep = _report_from_counts(inst, [2.0, 3.0], [10, 5], n)
    fits = fit_exponents(rep)
    assert fits[(1, 0)].kind in ("lower_bound", "insufficient")


def test_verify_constraints_no_budget():
    inst = weak_binary()
    cfg = ExperimentConfig(inst, (30.0,), 500, seed=3, epsilon=0.0)
    rep = estimate_errors(cfg)
    checks = verify_constraints(rep)
    assert all(c.name == "expected_stopping_time" for c in checks)
    assert all(c.ok for c in checks)


def test_verify_constraints_with_budget():
    budgets = BudgetSpec(np.array([[1.0, 1.0]]), np.array([0.8]))
    base = make_instance(3, 2, (3, 3), pmf_rows=[[P01, P02], [P11, P12],
                                                 [[0.05, 0.1, 0.85], [0.15, 0.05, 0.8]]])
    inst = Instance(base.model, base.avail, base.actions, budgets)
    cfg = ExperimentConfig(inst, (200.0,), 400, seed=4)
    rep = estimate_errors(cfg)
    checks = verify_constraints(rep)
    names = {c.name for c in checks}
    assert "budget_0" in names
    assert all(c.ok for c in checks)  # regime-1 cells satisfy trivially
    assert all(rep.cells[k].regime == 1 for k in rep.cells)


def _cells_equal(a, b):
    assert a.cells.keys() == b.cells.keys()
    for key in a.cells:
        for f in fields(CellStats):
            x, y = getattr(a.cells[key], f.name), getattr(b.cells[key], f.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y), (key, f.name)
            else:
                assert x == y, (key, f.name)


def test_worker_pool_counts_match_serial():
    inst = weak_binary()
    base = dict(T_grid=(30.0,), trials=240, seed=9, epsilon=0.0)
    serial = estimate_errors(ExperimentConfig(inst, workers=1, **base))
    pooled = estimate_errors(ExperimentConfig(inst, workers=2, **base))
    for key in serial.cells:
        assert np.all(serial.cells[key].declared == pooled.cells[key].declared)
        assert serial.cells[key].sum_tau == pooled.cells[key].sum_tau
    # Several cells in one pool, a budget with fractional coefficients (whose
    # per-trial cost sums would round by chunk) and some capped trials: every
    # aggregate must be the same at every worker count.
    inst = two_set_instance([0.7, 1.3])
    base = dict(T_grid=(24.0, 36.0), trials=90, seed=4, epsilon=0.0, max_steps=20)
    serial = estimate_errors(ExperimentConfig(inst, workers=1, **base))
    assert sum(c.n_invalid for c in serial.cells.values()) > 0
    for workers in (2, 3):
        _cells_equal(serial, estimate_errors(ExperimentConfig(inst, workers=workers, **base)))


def test_pool_size_bounded():
    assert _pool_size(5000, 240, 2) == 2
    assert _pool_size(5000, 3, 64) == 3
    assert _pool_size(2, 30, 64) == 2
    assert _pool_size(1, 30, 64) == 1
    assert _pool_size(4, 30, None) == 1


def test_huge_worker_count_starts_small_pool(monkeypatch):
    # workers=5000 must not ask for 5000 processes; chunks are still cut
    # for the requested count (one trial each here), so counts do not move.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            iterables = [list(it) for it in iterables]
            sizes.append(len(iterables[0]))
            return map(fn, *iterables)

    # sim imports the pool class only where it builds a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    inst = weak_binary()
    base = dict(T_grid=(30.0, 40.0), trials=60, seed=9, epsilon=0.0)
    pooled = estimate_errors(ExperimentConfig(inst, workers=5000, **base))
    assert sizes == [2, 2 * 2 * 60]
    _cells_equal(estimate_errors(ExperimentConfig(inst, workers=1, **base)), pooled)


def test_invalid_trial_accounting():
    inst = weak_binary()
    cfg = ExperimentConfig(inst, (60.0,), 50, seed=6, epsilon=0.0, max_steps=2)
    rep = estimate_errors(cfg)
    cell = rep.cells[(60.0, 0)]
    assert cell.n_invalid > 0
    assert cell.n_valid + cell.n_invalid == 50


def test_import_skips_scipy_stats():
    # scipy.stats alone takes most of a second to import; only the normal
    # quantile is needed, and scipy.special provides it.
    src = str(Path(aseq.__file__).resolve().parents[1])
    code = "import sys, aseq; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# ------------------------------------------------ seeding against its oracle

MASTERS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                    st.integers(2**64, 2**200))
WINDOW_STARTS = st.one_of(st.just(0), st.just(2**32 - 3), st.integers(0, 2**32 - 3))


@settings(max_examples=300, deadline=None)
@given(master=MASTERS, truth=st.integers(0, 9),
       T=st.floats(1.0, 1e300, allow_nan=False, allow_infinity=False),
       start=WINDOW_STARTS, width=st.integers(1, 3))
@example(master=0, truth=0, T=2.0, start=0, width=3)  # bits(2.0) has a zero low word
@example(master=2**64, truth=3, T=6.0, start=2**32 - 3, width=3)
def test_seed_words_match_seed_sequence(master, truth, T, start, width):
    """A chunk's seed words are SeedSequence's bit for bit, and seed the same
    stream: trial k's row against reference_trial_seed(..., k)."""
    words = sim._seed_words(master, truth, T, start, start + width)
    assert words.dtype == np.uint64 and words.shape == (width, 4)
    generator = sim._generator_from_words()
    for k, row in enumerate(words, start):
        ref = reference_trial_seed(master, truth, T, k)
        assert np.array_equal(row, ref.bit_generator.seed_seq.generate_state(4, np.uint64))
        assert generator(row).random(64).tobytes() == ref.random(64).tobytes()


def reference_chunk(inst, params, truth, T, seed, start, stop, max_steps):
    """The tally of trials start..stop-1 from one reference_trial_seed per
    trial, and their statistics accumulated trial by trial."""
    kernel = TrialKernel.build(inst, params, truth)
    tally = Counter()
    declared = np.zeros(inst.model.M)
    n_valid = n_invalid = 0
    sum_tau = sum_tau2 = 0.0
    source_totals = np.zeros(inst.model.n)
    source_outer = np.zeros((inst.model.n, inst.model.n))
    for idx in range(start, stop):
        rng = reference_trial_seed(seed, truth, T, idx)
        try:
            res = run_trial(kernel, rng, max_steps)
        except TrialBudgetExceeded:
            n_invalid += 1
            continue
        tally[res.stopping_time, res.declared, res.source_counts] += 1
        n_valid += 1
        declared[res.declared] += 1
        sum_tau += res.stopping_time
        sum_tau2 += res.stopping_time ** 2
        source_totals += res.source_counts
        source_outer += np.outer(res.source_counts, res.source_counts)
    coeffs = inst.budgets.coeffs
    return tally, CellStats(T, truth, params.regime, n_valid, n_invalid, declared, sum_tau,
                            sum_tau2, source_totals, coeffs @ source_totals,
                            np.einsum("ij,jk,ik->i", coeffs, source_outer, coeffs))


CHUNK_CASES = {  # instance, T, exploration override, step cap
    "weak_binary": (weak_binary, 30.0, 0.0, None),
    "two_set_capped": (lambda: two_set_instance([0.7, 1.3]), 36.0, 0.0, 20),
    "all_capped": (weak_binary, 30.0, 0.0, 1),
    "regime1": (weak_binary, 2.0, None, None),
}


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_run_chunk_matches_reference_seeding(case, monkeypatch):
    """A chunk's tally and cell equal a per-trial SeedSequence loop's; the
    trials 5..64 also cross several edges of a small seed-word block."""
    make, T, epsilon, max_steps = CHUNK_CASES[case]
    inst = make()
    cfg = ExperimentConfig(inst, (T,), 60, seed=2**40 + 7, epsilon=epsilon, max_steps=max_steps)
    report = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    params = build_params(T, inst, report.table, report.llr_bound,
                          resolve_betas(cfg, report.table), epsilon=epsilon)
    assert params.regime == (1 if case == "regime1" else 2)
    valid = invalid = 0
    for truth in range(inst.model.M):
        kernel = TrialKernel.build(inst, params, truth)
        got = sim._run_chunk(kernel, cfg.seed, 5, 65, max_steps)
        tally, want = reference_chunk(inst, params, truth, T, cfg.seed, 5, 65, max_steps)
        assert type(got) is Counter and got == tally
        with monkeypatch.context() as m:
            m.setattr(sim, "_SEED_BLOCK", 7)
            assert sim._run_chunk(kernel, cfg.seed, 5, 65, max_steps) == tally
        cell = sim._cell((T, truth), kernel, got, 60, inst.budgets.coeffs)
        for f in fields(CellStats):
            a, b = getattr(cell, f.name), getattr(want, f.name)
            assert type(a) is type(b) and np.shape(a) == np.shape(b), f.name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
        valid += cell.n_valid
        invalid += cell.n_invalid
    assert (invalid > 0) == (max_steps is not None)
    assert (valid == 0) == (case == "all_capped")


def test_regime1_chunk_tallies_at_most_M_outcomes():
    """A chunk keeps one entry per distinct outcome, not one per trial: a
    regime-1 trial stops at once with a guess, so 20,000 of them tally at
    most M outcomes."""
    inst = weak_binary()
    cfg = ExperimentConfig(inst, (2.0,), 20_000, seed=3)
    report = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    params = build_params(2.0, inst, report.table, report.llr_bound,
                          resolve_betas(cfg, report.table))
    assert params.regime == 1
    tally = sim._run_chunk(TrialKernel.build(inst, params, 0), cfg.seed, 0, 20_000, None)
    assert len(tally) <= inst.model.M and tally.total() == 20_000
