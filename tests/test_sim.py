import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import aseq
from aseq import sim
from aseq.model import BudgetSpec, Instance
from aseq.sim import (CellStats, ExperimentConfig, ExperimentReport, _pool_size,
                      estimate_errors, fit_exponents, verify_constraints,
                      wilson_interval, write_report_csv)

from conftest import make_instance, two_set_instance
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
    # ASEQ_THREADS=5000 must not ask for 5000 processes; chunks are still cut
    # for the requested count (one trial each here), so counts do not move.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            sizes.append(len(jobs))
            return map(fn, jobs)

    # sim imports the pool class only where it builds a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("ASEQ_THREADS", "5000")
    inst = weak_binary()
    base = dict(T_grid=(30.0, 40.0), trials=60, seed=9, epsilon=0.0)
    pooled = estimate_errors(ExperimentConfig(inst, **base))
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
