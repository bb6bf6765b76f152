from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
import hypothesis
from hypothesis import event, given, settings
from hypothesis import strategies as st

from aseq.divergence import build_instance_table, exponent
from aseq.errors import InvalidBeta, NoExplorationPossible, TrialBudgetExceeded
from aseq.model import ActionSpace, BudgetSpec, Instance, marginal, validate_model
from aseq.policy import (ExplorationPlan, TrialKernel, TrialResult, _square, action_pmf,
                         build_params, choose_exploration_rate, offset_correction, run_trial,
                         solve_drift_margin)
from aseq.region import build_polytope, decision_risk_exponents

from conftest import (four_hypothesis_instance, kernel_path, make_instance, random_instance,
                      reference_build_params, reference_exploration_plan, two_set_instance)
from test_model import P01, P02, P11, P12, P21, P22


@pytest.fixture(scope="module")
def example(example_instance):
    inst = example_instance
    rep = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    _, betas = decision_risk_exponents(table, poly)
    return inst, table, rep.llr_bound, betas


def forced_adaptive(params, T):
    """Regime-2 parameters at desk-scale T for loop testing (the honest
    regime threshold is astronomically large)."""
    thr = T * params.threshold_slope - params.max_slope[:, None]
    thr[np.diag_indices_from(thr)] = 0.0
    return replace(params, regime=2, threshold_offset=params.max_slope.copy(),
                   thresholds=thr)


def _adaptive(inst, T=25.0):
    """Forced regime-2 parameters with exploration 0.2 for any instance."""
    _, table, L, betas = _setup(inst)
    return forced_adaptive(build_params(T, inst, table, L, betas, epsilon=0.2), T)


# ------------------------------------------------------------- exploration

def test_exploration_rate_chernoff(example):
    inst, table, _, _ = example
    plan = choose_exploration_rate(inst.avail, inst.actions, inst.budgets, table)
    assert plan.rate == pytest.approx(1.0 / 3.0)
    assert plan.support == (1, 2)


def test_exploration_rate_budget_limited():
    budgets = BudgetSpec(np.array([[1.0, 1.0]]), np.array([0.2]))
    inst = make_instance(3, 2, (3, 3),
                         pmf_rows=[[P01, P02], [P11, P12], [P21, P22]],
                         budgets=budgets)
    table = build_instance_table(inst)
    plan = choose_exploration_rate(inst.avail, inst.actions, inst.budgets, table)
    ones = np.ones((3, 1))
    from aseq.model import omega
    w = omega(inst.actions, inst.avail, ones, n=2)
    expect = min(1.0 / 3.0, 0.2 / float(np.array([1.0, 1.0]) @ w))
    assert plan.rate == pytest.approx(expect)


def test_exploration_zero_rate_budget_prunes():
    # source 1 carries a zero-rate cost; both hypotheses differ only there
    budgets = BudgetSpec(np.array([[1.0, 0.0]]), np.array([0.0]))
    inst = make_instance(2, 2, (2, 2),
                         pmf_rows=[[[0.9, 0.1], [0.5, 0.5]],
                                   [[0.2, 0.8], [0.5, 0.5]]],
                         budgets=budgets)
    table = build_instance_table(inst)
    with pytest.raises(NoExplorationPossible):
        choose_exploration_rate(inst.avail, inst.actions, inst.budgets, table)


def test_exploration_zero_rate_budget_keeps_other_sources():
    budgets = BudgetSpec(np.array([[1.0, 0.0]]), np.array([0.0]))
    inst = make_instance(2, 2, (2, 2),
                         pmf_rows=[[[0.9, 0.1], [0.8, 0.2]],
                                   [[0.2, 0.8], [0.3, 0.7]]],
                         budgets=budgets)
    table = build_instance_table(inst)
    plan = choose_exploration_rate(inst.avail, inst.actions, inst.budgets, table)
    kept = [inst.actions.actions[i] for i in plan.support]
    assert kept == [(2,)]


def _plan_or_message(choose, inst, table):
    try:
        return choose(inst.avail, inst.actions, inst.budgets, table)
    except NoExplorationPossible as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_budgets=st.integers(0, 2),
       forced=st.sampled_from([None, 0.0]))
def test_exploration_plan_matches_reference(seed, n_budgets, forced):
    """The plan read off the selection matrix equals the set-intersection
    derivation bit for bit: same rate, same support, or the same refusal.
    A forced zero rate, with some coefficients zeroed, makes budgets that
    prune the support. (BudgetSpec refuses a NaN rate.)"""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_budgets=n_budgets)
    if n_budgets and forced is not None:
        coeffs, rates = inst.budgets.coeffs.copy(), inst.budgets.rates.copy()
        rates[rng.integers(n_budgets)] = forced
        coeffs[rng.random(coeffs.shape) < 0.4] = 0.0
        inst = replace(inst, budgets=BudgetSpec(coeffs, rates))
    table = build_instance_table(inst)
    got = _plan_or_message(choose_exploration_rate, inst, table)
    want = _plan_or_message(reference_exploration_plan, inst, table)
    event("refused" if isinstance(want, str) else "plan")
    assert got == want
    if not isinstance(want, str):
        assert type(got.rate) is float and all(type(i) is int for i in got.support)


# ------------------------------------------------------------ params engine

def test_offset_correction_endpoints():
    assert offset_correction(-math.exp(-1)) == -1.0
    assert offset_correction(0.0) == 0.0
    assert -1.0 < offset_correction(-0.2) < 0.0


def test_margin_solver_closed_form():
    assert solve_drift_margin(4.0) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_margin_solver_residual(seed):
    rng = np.random.default_rng(seed)
    for c in 10 ** rng.uniform(-6, 3, size=50):
        x = solve_drift_margin(float(c))
        assert abs(x * (1 + x) ** 2 - c) <= 1e-12


def test_params_tiny_T_regime1(example):
    inst, table, L, betas = example
    params = build_params(2.0, inst, table, L, betas)
    assert params.regime == 1


def test_params_desk_T_regime1_huge_threshold(example):
    inst, table, L, betas = example
    params = build_params(200.0, inst, table, L, betas)
    assert params.regime == 1
    assert params.regime_threshold > 1e5


def test_params_invalid_beta(example):
    inst, table, L, betas = example
    bad = [b.copy() for b in betas]
    bad[0] = bad[0] * 0.5  # availability equality broken
    with pytest.raises(InvalidBeta):
        build_params(100.0, inst, table, L, bad)


def test_params_regime_matches_direct_evaluation(example):
    inst, table, L, betas = example
    for T in [2.0, 10.0, 1e3, 1e6, 1e9, 3e10]:
        params = build_params(T, inst, table, L, betas)
        if T < math.e:
            assert params.regime == 1
            continue
        q = params.regime_threshold
        assert params.regime == (2 if T >= max(math.e, q) else 1)


def test_params_regime2_reached_eventually(example):
    inst, table, L, betas = example
    params = build_params(5e10, inst, table, L, betas)
    assert params.regime == 2
    assert -math.exp(-1) <= params.tail_bound < 0
    assert -1.0 <= params.offset_scale <= 0.0
    # threshold = T * slope - offset
    T = 5e10
    want = T * params.threshold_slope[0, 1] - params.threshold_offset[0]
    assert params.thresholds[0, 1] == pytest.approx(want, rel=1e-12)


def test_params_epsilon_zero_forces_adaptive(example):
    inst, table, L, betas = example
    params = build_params(10.0, inst, table, L, betas, epsilon=0.0)
    assert params.regime == 2
    assert params.explore_prob == 0.0
    assert np.allclose(params.threshold_offset, params.max_slope)


@pytest.mark.parametrize("epsilon", [1.0, 1.5, -0.1, float("nan")])
def test_params_epsilon_range_checked_without_exploration(example_instance, epsilon):
    """A zero-rate budget on both sources of the example rules out all
    exploration. An out-of-range override returned regime-1 parameters there
    instead of being refused."""
    inst0 = example_instance
    inst = Instance(inst0.model, inst0.avail, inst0.actions,
                    BudgetSpec(np.array([[1.0, 1.0]]), np.array([0.0])))
    inst, table, L, betas = _setup(inst)
    assert build_params(10.0, inst, table, L, betas).regime == 1
    with pytest.raises(ValueError, match="exploration probability"):
        build_params(10.0, inst, table, L, betas, epsilon=epsilon)


def _same_bits(got, want, name):
    """Equal bit for bit, with the same Python type, and for arrays the same
    dtype and shape."""
    assert type(got) is type(want), (name, type(got), type(want))
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), \
            (name, got, want)
    elif isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (name, got, want)
    elif isinstance(want, tuple):
        assert len(got) == len(want), name
        for i, (g, w) in enumerate(zip(got, want)):
            _same_bits(g, w, f"{name}[{i}]")
    elif isinstance(want, ExplorationPlan):
        _same_bits(got.rate, want.rate, f"{name}.rate")
        _same_bits(got.support, want.support, f"{name}.support")
    else:
        assert got == want, (name, got, want)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_budgets=st.integers(0, 2), zero_rate=st.booleans(),
       T=st.sampled_from([1.0, 2.0, math.e, 3.0, 50.0, 1e4, 1e9, 5e10, 1e15]),
       epsilon=st.sampled_from([None, 0.0, 0.2, 0.9]))
# One example per exit: no exploration support; T < e at the default epsilon;
# regime 1 and regime 2 (min_drift > 0) on a pruned support; regime 2 at epsilon 0.
@hypothesis.example(seed=0, n_budgets=1, zero_rate=True, T=1e4, epsilon=0.2)
@hypothesis.example(seed=0, n_budgets=0, zero_rate=False, T=2.0, epsilon=None)
@hypothesis.example(seed=0, n_budgets=2, zero_rate=True, T=50.0, epsilon=0.2)
@hypothesis.example(seed=1, n_budgets=2, zero_rate=True, T=1e15, epsilon=None)
@hypothesis.example(seed=0, n_budgets=0, zero_rate=False, T=3.0, epsilon=0.0)
def test_build_params_matches_reference(seed, n_budgets, zero_rate, T, epsilon):
    """build_params on the table's arrays equals the pair-by-pair loop of
    reference_build_params in every field, bit for bit and type for type, at
    every exit of the threshold chain. A zero-rate budget prunes the
    exploration support or leaves none."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n_budgets=n_budgets)
    if n_budgets and zero_rate:
        rates = inst.budgets.rates.copy()
        rates[rng.integers(n_budgets)] = 0.0
        inst = replace(inst, budgets=BudgetSpec(inst.budgets.coeffs, rates))
    inst, table, L, betas = _setup(inst)
    got = build_params(T, inst, table, L, betas, epsilon)
    want = reference_build_params(T, inst, table, L, betas, epsilon)
    if epsilon != 0.0 and not want.plan.support:
        event("no exploration support")
    elif epsilon is None and T < math.e:
        event("T < e, default epsilon")
    elif want.regime == 1:
        event("regime 1, tail quantities")
    else:
        event("regime 2, " + ("min_drift > 0" if want.min_drift > 0 else "epsilon 0"))
    for f in fields(want):
        _same_bits(getattr(got, f.name), getattr(want, f.name), f.name)


# ---------------------------------------------------------------------- mle
# run_trial's estimate matches the oracle's mle() on every trial it runs
# (test_run_trial_matches_reference); these pin down mle() itself.

def test_mle_all_zero_ties_to_zero():
    assert mle(LlrState.initial(3)) == 0


def test_mle_clear_winner():
    S = np.zeros((3, 3))
    S[2, 0], S[0, 2] = 1.0, -1.0
    S[2, 1], S[1, 2] = 0.5, -0.5
    S[0, 1], S[1, 0] = 0.2, -0.2
    assert mle(LlrState(S, 3)) == 2


@pytest.mark.parametrize("seed", range(20))
def test_mle_matches_potential_order(seed):
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=4)
    S = lam[:, None] - lam[None, :]
    assert mle(LlrState(S, 1)) == int(np.argmax(lam))


# --------------------------------------------------------------- action pmf

def test_action_pmf_sums_to_one(example):
    inst, table, L, betas = example
    params = forced_adaptive(build_params(50.0, inst, table, L, betas,
                                          epsilon=0.3), 50.0)
    for th in range(3):
        pmf = action_pmf(0, th, params, inst)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf >= 0)
        # every explored action keeps the uniform floor
        for ai in params.plan.support:
            assert pmf[ai] >= 0.3 * params.plan.rate - 1e-12


def test_action_pmf_exploitation_only(example):
    inst, table, L, betas = example
    b = np.zeros((3, 1))
    b[1, 0] = 1.0
    params = build_params(50.0, inst, table, L, [b, b, b], epsilon=0.0)
    pmf = action_pmf(0, 0, params, inst)
    assert pmf[1] == pytest.approx(1.0)


def test_action_pmf_heavy_exploration(example):
    inst, table, L, betas = example
    params = forced_adaptive(build_params(50.0, inst, table, L, betas,
                                          epsilon=0.9), 50.0)
    pmf = action_pmf(0, 1, params, inst)
    for ai in params.plan.support:
        assert pmf[ai] >= 0.9 * params.plan.rate / 1.0 - 1e-12


# ------------------------------------------------------------------- update

def test_update_empty_action_no_change(example_instance):
    # A step whose action selects no available source reads no symbol and
    # leaves S alone: its kernel entry is empty.
    for inst in (example_instance, two_set_instance([1, 1])):
        kernel = TrialKernel.build(inst, _adaptive(inst), 0)
        for ai, a in enumerate(inst.actions.actions):
            for zi, z in enumerate(inst.avail.sets):
                for by_set in kernel.steps:
                    assert (by_set[zi][1][ai] is None) == (not set(a) & set(z))


def test_update_antisymmetry_and_bound(example):
    inst, _, L, _ = example
    kernel = TrialKernel.build(inst, _adaptive(inst), 0)
    incs = [_square(inc, 3) for _, cells in kernel.steps[0] for seen in cells
            if seen is not None for inc in seen[1]]
    assert incs
    for inc in incs:
        A = np.array(inc)
        assert np.array_equal(A, -A.T)
        assert np.max(np.abs(A)) <= L + 1e-12
    rng = np.random.default_rng(4)
    prev = np.zeros((3, 3))
    for _, _, S in kernel_path(kernel, 0, rng, 50):
        S = np.array(S)
        assert np.array_equal(S, -S.T)
        assert np.max(np.abs(S - prev)) <= L + 1e-12
        prev = S


# -------------------------------------------------------------- should stop
# The stopping rule of run_trial itself, probed with a hand-built kernel
# whose one step always draws action 1 and adds S to the zero matrix.

def _stop_after(inst, params, S):
    n_a, M = inst.actions.size, inst.model.M
    act_cdf = [0.0] + [1.0] * (n_a - 1)
    cells = [None] * n_a
    cells[1] = ([1.0], [np.asarray(S, dtype=float)[~np.eye(M, dtype=bool)].tolist()], (0,))
    kernel = replace(TrialKernel.build(inst, params, 0), z_cdf=[1.0],
                     steps=[[(act_cdf, cells)]] * M)
    try:
        res = run_trial(kernel, np.random.default_rng(0), max_steps=1)
    except TrialBudgetExceeded:
        return None
    assert res.stopping_time == 1 and res.source_counts[0] == 1
    return res.declared


def _full_scan(S, thresholds):
    """The smallest row of S that clears its thresholds, else None."""
    M = len(S)
    return next((t for t in range(M)
                 if all(S[t, m] >= thresholds[t, m] for m in range(M) if m != t)), None)


def test_should_stop_none_at_zero(example):
    inst, table, L, betas = example
    params = forced_adaptive(build_params(50.0, inst, table, L, betas,
                                          epsilon=0.2), 50.0)
    assert _stop_after(inst, params, np.zeros((3, 3))) is None


def test_should_stop_row_above(example):
    inst, table, L, betas = example
    params = forced_adaptive(build_params(50.0, inst, table, L, betas,
                                          epsilon=0.2), 50.0)
    S = np.zeros((3, 3))
    S[1, :] = params.thresholds[1, :] + 1.0
    S[1, 1] = 0.0
    S[:, 1] = -S[1, :]
    assert _stop_after(inst, params, S) == 1


@pytest.mark.parametrize("seed", range(10))
def test_should_stop_matches_exhaustive(example, seed):
    inst, table, L, betas = example
    params = forced_adaptive(build_params(50.0, inst, table, L, betas,
                                          epsilon=0.2), 50.0)
    rng = np.random.default_rng(seed)
    lam = rng.normal(scale=30.0, size=3)
    S = lam[:, None] - lam[None, :]
    assert _stop_after(inst, params, S) == _full_scan(S, params.thresholds)


def _with_nonpositive_rows(params, rng):
    """``params`` with some off-diagonal thresholds of a random nonempty set
    of rows replaced by draws from [-60, 0] or by 0 itself."""
    thr = params.thresholds.copy()
    M = len(thr)
    rows = rng.permutation(M)[:rng.integers(1, M + 1)]
    for t in rows:
        picked = [m for m in range(M) if m != t and rng.random() < 0.6] or [(t + 1) % M]
        for m in picked:
            thr[t, m] = 0.0 if rng.random() < 0.2 else -60.0 * rng.random()
    return replace(params, thresholds=thr)


def test_should_stop_matches_exhaustive_nonpositive_rows(example):
    """Rows with a nonpositive threshold are tested whatever the estimate:
    the hand-built step stops where the full scan does, also at rows other
    than the estimate, and whole trials agree with reference_run_trial."""
    inst, table, L, betas = example
    base = forced_adaptive(build_params(50.0, inst, table, L, betas, epsilon=0.2), 50.0)
    rng = np.random.default_rng(2023)
    not_estimate = 0
    for case in range(300):
        params = _with_nonpositive_rows(base, rng)
        lam = rng.normal(scale=30.0, size=3)
        S = lam[:, None] - lam[None, :]
        want = _full_scan(S, params.thresholds)
        assert _stop_after(inst, params, S) == want
        not_estimate += want is not None and want != int(np.argmax(lam))
        if case % 10 == 0:
            truth = case % 3
            kernel = TrialKernel.build(inst, params, truth)
            for seed in range(case, case + 5):
                got = _outcome(lambda: run_trial(kernel, np.random.default_rng(seed), 30))
                assert got == _outcome(lambda: reference_run_trial(
                    inst, table, params, truth, np.random.default_rng(seed), 30))
    assert not_estimate > 0


@pytest.mark.parametrize("rows", [(2,), (1, 2), (0, 2)])
def test_stop_at_step_one_when_nothing_selected(example_instance, rows):
    """A first step that selects nothing leaves S = 0, and the test stops
    there at the smallest row whose thresholds are all <= 0, with zero
    counts, as the full scan and reference_run_trial do."""
    inst, table, L, _ = _setup(example_instance)
    b = np.zeros((inst.actions.size, 1))
    b[0, 0] = 1.0  # the empty action, always
    thr = 5.0 - 5.0 * np.eye(3)
    for t in rows:
        thr[t, (t + 1) % 3], thr[t, (t + 2) % 3] = 0.0, -1.0
    params = replace(build_params(10.0, inst, table, L, [b] * 3, epsilon=0.0), thresholds=thr)
    assert _full_scan(np.zeros((3, 3)), thr) == rows[0]
    for seed in range(5):
        got = run_trial(TrialKernel.build(inst, params, 1), np.random.default_rng(seed))
        assert got == TrialResult(1, rows[0], (0, 0))
        assert got == reference_run_trial(inst, table, params, 1, np.random.default_rng(seed))


# --------------------------------------------------------------------- trial

def test_run_trial_inconsistent_s_takes_largest_row_sum(example_instance):
    """After a first observation that makes S an antisymmetric 3-cycle
    (S01 = -1, S12 = -0.1, S20 = -0.5), no row of S is all >= 0. The row
    sums are (-0.5, 0.9, -0.4), so the estimate is 1, the row of largest
    sum. The second step's tables differ by estimate, and only those under
    estimate 1 end the trial, with a declaration of 1."""
    # Increments of S01, S02, S10, S12, S20, S21, the order of the flat S.
    incs = [[-1.0, 0.5, 1.0, -0.1, -0.5, 0.1],     # estimate 0: the 3-cycle again
            [-10.0, 0.0, 10.0, 10.0, 0.0, -10.0],  # estimate 1: row 1 clears 5
            [0.0, -10.0, 0.0, -10.0, 10.0, 10.0]]  # estimate 2: row 2 clears 5
    # One availability set, one action and one symbol, of source 0.
    steps = [[([math.inf], [([math.inf], [inc], (0,))])] for inc in incs]
    kernel = TrialKernel(_adaptive(example_instance), 0, 1, [math.inf], steps, [[5.0, 5.0]] * 3,
                         [(0,), (1,), (2,)])
    for seed in range(3):
        assert run_trial(kernel, np.random.default_rng(seed), 2) == TrialResult(2, 1, (2,))


def test_run_trial_regime1(example):
    inst, table, L, betas = example
    params = build_params(100.0, inst, table, L, betas)
    assert params.regime == 1
    kernel = TrialKernel.build(inst, params, 0)
    counts = np.zeros(3)
    for i in range(3000):
        rng = np.random.default_rng(i)
        res = run_trial(kernel, rng)
        assert res.stopping_time == 1
        assert res.source_counts == (0,) * inst.model.n
        counts[res.declared] += 1
    assert np.all(np.abs(counts / 3000 - 1 / 3) < 0.05)  # uniform guess


def test_run_trial_accuracy_and_counts(example):
    inst, table, L, betas = example
    T = 25.0
    params = forced_adaptive(build_params(T, inst, table, L, betas,
                                          epsilon=0.2), T)
    kernel = TrialKernel.build(inst, params, 1)
    correct = 0
    for i in range(200):
        rng = np.random.default_rng(900 + i)
        res = run_trial(kernel, rng)
        correct += res.declared == 1
    assert correct / 200 > 0.95


def test_run_trial_deterministic(example):
    inst, table, L, betas = example
    T = 20.0
    params = forced_adaptive(build_params(T, inst, table, L, betas,
                                          epsilon=0.2), T)
    kernel = TrialKernel.build(inst, params, 2)
    r1 = run_trial(kernel, np.random.default_rng(123))
    r2 = run_trial(kernel, np.random.default_rng(123))
    assert r1 == r2


def test_run_trial_budget_cap(example):
    inst, table, L, betas = example
    T = 25.0
    params = forced_adaptive(build_params(T, inst, table, L, betas,
                                          epsilon=0.2), T)
    with pytest.raises(TrialBudgetExceeded):
        run_trial(TrialKernel.build(inst, params, 0), np.random.default_rng(0), max_steps=2)


def test_run_trial_refuses_overflowing_default_cap(example):
    """The default step cap 200 T overflows at T = 1e307: run_trial raised
    OverflowError from int(inf); it now refuses the budget by name."""
    inst, table, L, betas = example
    kernel = TrialKernel.build(inst, build_params(1e307, inst, table, L, betas, epsilon=0.0), 0)
    with pytest.raises(ValueError, match=r"T=1e\+307.*--max-steps"):
        run_trial(kernel, np.random.default_rng(0))


# ------------------------------------------------- trial kernel vs oracle

# The trial loop as it stood before the tables moved into TrialKernel and
# the steps onto Python scalars, kept verbatim as the oracle together with
# the LlrState and mle() it used.
@dataclass
class LlrState:
    """Cumulative pairwise log-likelihood ratios S[t, m] and the step count."""

    S: np.ndarray
    t: int = 0

    @staticmethod
    def initial(M: int) -> "LlrState":
        return LlrState(np.zeros((M, M)), 0)


def mle(state: LlrState) -> int:
    """Smallest hypothesis whose row of pairwise ratios is all nonnegative.

    The ratios derive from per-hypothesis likelihood potentials, so such a row
    exists whenever the matrix is consistent; with injected inconsistent
    matrices (possible in tests) fall back to the largest row sum.
    """
    mins = state.S.min(axis=1)
    idx = np.flatnonzero(mins >= 0)
    if idx.size:
        return int(idx[0])
    return int(np.argmax(state.S.sum(axis=1)))


def reference_run_trial(inst: Instance, table: DivergenceTable, params: TestParams, truth: int,
                        rng: np.random.Generator, max_steps: int | None = None) -> TrialResult:
    """Simulate one trial under ``truth``, deterministic given the generator.

    Regime 1 stops at step one with a uniform guess and selects nothing.
    Regime 2 loops draw-availability / estimate / draw-action / sample /
    update / check-stop. Raises TrialBudgetExceeded when the safety cap
    (default 200 T) is hit; callers account such trials as invalid rather
    than fabricating a decision.
    """
    model = inst.model
    n_a, n_z = inst.actions.size, len(inst.avail.sets)
    if params.regime == 1:
        return TrialResult(1, int(rng.integers(model.M)), (0,) * model.n)
    if max_steps is None:
        max_steps = int(math.ceil(200 * params.T))

    z_cdf = np.cumsum(inst.avail.probs)
    # Per (estimate, set): action CDF. Per (action, set): log-likelihood rows
    # per symbol and the truth's sampling CDF over the sub-alphabet.
    act_cdfs = [[np.cumsum(action_pmf(zi, th, params, inst)) for zi in range(n_z)]
                for th in range(model.M)]
    inter: list[list[tuple[int, ...]]] = [[() for _ in range(n_z)] for _ in range(n_a)]
    sub_tables: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    for ai, a in enumerate(inst.actions.actions):
        for zi, z in enumerate(inst.avail.sets):
            keep = tuple(sorted(set(a) & set(z)))
            inter[ai][zi] = keep
            if keep and keep not in sub_tables:
                flats = [marginal(model, keep, t).reshape(-1)
                         for t in range(model.M)]
                loglik = np.log(np.stack(flats, axis=1))  # (n_symbols, M)
                sub_tables[keep] = (loglik, np.cumsum(flats[truth]))

    S = np.zeros((model.M, model.M))
    thresholds = params.thresholds
    source_counts = np.zeros(model.n)
    state = LlrState(S, 0)
    for t in range(1, max_steps + 1):
        zi = int(np.searchsorted(z_cdf, rng.random(), side="right"))
        zi = min(zi, n_z - 1)
        theta_hat = mle(state)
        cdf = act_cdfs[theta_hat][zi]
        ai = min(int(np.searchsorted(cdf, rng.random(), side="right")), n_a - 1)
        keep = inter[ai][zi]
        if keep:
            loglik, samp_cdf = sub_tables[keep]
            sym = min(int(np.searchsorted(samp_cdf, rng.random(), side="right")),
                      loglik.shape[0] - 1)
            lam = loglik[sym]
            state = LlrState(state.S + (lam[:, None] - lam[None, :]), t)
            for j in keep:
                source_counts[j - 1] += 1
        else:
            state = LlrState(state.S, t)
        diff = state.S - thresholds
        hits = np.flatnonzero(diff.min(axis=1) >= 0)
        if hits.size:
            return TrialResult(t, int(hits[0]), tuple(int(c) for c in source_counts))
    raise TrialBudgetExceeded(f"no decision within {max_steps} steps")


def _setup(inst):
    rep = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    table = build_instance_table(inst)
    _, betas = decision_risk_exponents(table, build_polytope(inst.avail, inst.actions,
                                                             inst.budgets))
    return inst, table, rep.llr_bound, betas


@pytest.fixture(scope="module")
def oracle_models(example_instance):
    return {"example": _setup(example_instance),
            "budgeted_two_sets": _setup(two_set_instance([1, 1])),
            "four_hypotheses": _setup(four_hypothesis_instance())}


def _outcome(call):
    try:
        r = call()
    except TrialBudgetExceeded as exc:
        return ("cap", str(exc))
    return ("stop", type(r.stopping_time), r.stopping_time, type(r.declared), r.declared,
            type(r.source_counts), [type(c) for c in r.source_counts], r.source_counts)


@settings(max_examples=250, deadline=None)
@given(name=st.sampled_from(["example", "budgeted_two_sets", "four_hypotheses"]),
       mode=st.sampled_from(["epsilon0", "explore", "regime1"]),
       T=st.sampled_from([2.0, 3.0, 5.0, 8.0, 12.0, 24.0]),
       truth=st.integers(0, 3), seed=st.integers(0, 2 ** 63 - 1),
       max_steps=st.sampled_from([None, 1, 2, 3, 5]))
def test_run_trial_matches_reference(oracle_models, name, mode, T, truth, seed,
                                     max_steps):
    inst, table, L, betas = oracle_models[name]
    truth %= inst.model.M
    if mode == "epsilon0":
        params = build_params(T, inst, table, L, betas, epsilon=0.0)
    elif mode == "explore":
        params = forced_adaptive(build_params(T, inst, table, L, betas, epsilon=0.3), T)
    else:
        params = build_params(T, inst, table, L, betas)
    assert params.regime == (1 if mode == "regime1" else 2)
    kernel = TrialKernel.build(inst, params, truth)
    want = _outcome(lambda: reference_run_trial(inst, table, params, truth,
                                                np.random.default_rng(seed), max_steps))
    got = _outcome(lambda: run_trial(kernel, np.random.default_rng(seed), max_steps))
    event(f"{mode}: {want[0]}")
    assert got == want


# --------------------------------------------------- stochastic invariants

def test_likelihood_ratio_martingale_small():
    # mean of exp(S_{t,m,theta}) stays at 1 under theta
    inst = make_instance(2, 1, (2,), pmf_rows=[[[0.55, 0.45]], [[0.45, 0.55]]])
    rep = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    _, betas = decision_risk_exponents(table, poly)
    T = 30.0
    params = forced_adaptive(build_params(T, inst, table, rep.llr_bound, betas,
                                          epsilon=0.3), T)
    n_runs, horizon = 20000, 10
    kernel = TrialKernel.build(inst, params, 0)
    vals = np.zeros(n_runs)
    for i in range(n_runs):
        rng = np.random.default_rng(10_000 + i)
        *_, (_, _, S) = kernel_path(kernel, 0, rng, horizon)
        vals[i] = math.exp(S[1][0])  # m=1 against truth 0
    mean = vals.mean()
    half = 2.576 * vals.std(ddof=1) / math.sqrt(n_runs)
    assert abs(mean - 1.0) < half + 1e-3


def test_budget_supermartingale(example_instance):
    # mean of cost(counts at stop) - rate * tau stays nonpositive
    inst0 = example_instance
    budgets = BudgetSpec(np.array([[1.0, 1.0]]), np.array([0.8]))
    inst = Instance(inst0.model, inst0.avail, inst0.actions, budgets)
    rep = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    _, betas = decision_risk_exponents(table, poly)
    T = 25.0
    params = forced_adaptive(build_params(T, inst, table, rep.llr_bound, betas,
                                          epsilon=0.2), T)
    kernels = [TrialKernel.build(inst, params, truth) for truth in range(3)]
    drifts = []
    for i in range(4000):
        rng = np.random.default_rng(50_000 + i)
        res = run_trial(kernels[i % 3], rng)
        cost = float(sum(res.source_counts))
        drifts.append(cost - 0.8 * res.stopping_time)
    drifts = np.array(drifts)
    ucb = drifts.mean() + 2.576 * drifts.std(ddof=1) / math.sqrt(len(drifts))
    assert ucb <= 1e-9 or drifts.mean() <= 0.0
