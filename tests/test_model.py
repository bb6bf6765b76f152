import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aseq.divergence import build_instance_table
from aseq.errors import InvalidDistribution, SupportMismatch
from aseq.model import (ActionSpace, AvailabilityDist, BudgetSpec, JointModel,
                        in_constraint_set, marginal, observed_sources, omega,
                        validate_model)
from aseq.policy import TrialKernel, build_params

from conftest import kernel_path, make_instance, two_set_instance

P01 = [0.9, 0.07, 0.03]
P02 = [0.78, 0.17, 0.05]
P11 = [0.12, 0.83, 0.05]
P12 = [0.04, 0.79, 0.17]
P21 = [0.05, 0.1, 0.85]
P22 = [0.15, 0.05, 0.8]


def test_validate_example_model(example_instance):
    inst = example_instance
    rep = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    assert rep.assumption2_ok
    assert np.isfinite(rep.llr_bound)
    assert np.array_equal(rep.table.table, build_instance_table(inst).table)
    # brute-force the log-ratio bound over the product support
    worst = 0.0
    for t in range(3):
        for m in range(3):
            if m == t:
                continue
            r = np.log(inst.model.pmfs[t] / inst.model.pmfs[m])
            worst = max(worst, float(np.max(np.abs(r))))
    assert rep.llr_bound == pytest.approx(worst, abs=1e-12)


def test_identical_hypotheses_fail_discrimination():
    inst = make_instance(2, 1, (3,), pmf_rows=[[P01], [P01]])
    rep = validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    assert not rep.assumption2_ok
    assert not rep.assumption3_ok


def test_support_mismatch_rejected():
    inst = make_instance(2, 1, (3,), pmf_rows=[[[0.0, 0.5, 0.5]], [[0.2, 0.4, 0.4]]])
    with pytest.raises(SupportMismatch):
        validate_model(inst.model, inst.avail, inst.actions, inst.budgets)


def test_bad_normalization_rejected():
    bad = np.array([0.5, 0.4, 0.2])
    model = JointModel(2, 1, (3,), (bad, np.array([0.2, 0.4, 0.4])))
    inst = make_instance(2, 1, (3,), pmf_rows=[[P01], [P11]])
    with pytest.raises(InvalidDistribution):
        validate_model(model, inst.avail, inst.actions, inst.budgets)


def test_observed_sources_per_cell(example_instance):
    """a∩z per (action, set) cell as a sorted tuple, () where the cell
    observes nothing: the empty action, or an action and a set that share
    no source."""
    inst = example_instance
    assert observed_sources(inst.actions, inst.avail) == [[()], [(1,)], [(2,)]]
    inst = two_set_instance([1, 1])
    assert inst.actions.actions == ((), (1,), (2,), (1, 2))
    assert inst.avail.sets == ((1, 2), (1,))
    assert observed_sources(inst.actions, inst.avail) == [
        [(), ()], [(1,), (1,)], [(2,), ()], [(1, 2), (1,)]]


def test_marginal_of_product_model(example_instance):
    m = marginal(example_instance.model, (1,), 0)
    assert np.allclose(m, P01)


def test_marginal_empty_selection(example_instance):
    m = marginal(example_instance.model, (), 1)
    assert m.shape == ()
    assert float(m) == pytest.approx(1.0)


def test_marginal_joint_pair_is_outer_product(example_instance):
    m = marginal(example_instance.model, (1, 2), 0)
    assert np.allclose(m, np.outer(P01, P02), atol=1e-15)


def test_marginal_normalization_all_combos(example_instance):
    inst = example_instance
    for row in observed_sources(inst.actions, inst.avail):
        for keep in row:
            for t in range(3):
                p = marginal(inst.model, keep, t)
                assert float(p.sum()) == pytest.approx(1.0, abs=1e-12)


def _always_kernel(inst, ai):
    """Kernel under truth 0 whose every step draws action ``ai``."""
    b = np.zeros((inst.actions.size, 1))
    b[ai, 0] = 1.0
    table = build_instance_table(inst)
    llr = validate_model(inst.model, inst.avail, inst.actions, inst.budgets).llr_bound
    params = build_params(10.0, inst, table, llr, [b] * inst.model.M, epsilon=0.0)
    return TrialKernel.build(inst, params, 0)


def test_sample_empty_action(example_instance):
    rng = np.random.default_rng(0)
    for ai, sym, S in kernel_path(_always_kernel(example_instance, 0), 0, rng, 5):
        assert (ai, sym) == (0, None)
        assert S == [[0.0] * 3] * 3


def test_sample_point_mass():
    inst = make_instance(2, 1, (2,), pmf_rows=[[[1.0, 0.0]], [[1.0, 0.0]]])
    rng = np.random.default_rng(1)
    kernel = _always_kernel(inst, 1)
    for ai, sym, _ in kernel_path(kernel, 0, rng, 20):
        assert (ai, sym) == (1, 0)


class _LastDraw:
    """A generator whose every draw is 1 - 2**-53, the largest rng.random()."""

    def random(self):
        return 1.0 - 2.0 ** -53


def test_kernel_clamp_skips_zero_mass_symbol():
    # Ten masses of 0.1 sum to 1 - 2**-53, so the largest draw falls past the
    # last partial sum, onto the CDF's +inf entry (where the clamp of a
    # cumulative sum put it); it must land on the last symbol of positive
    # mass, not on the zero-mass symbol after it.
    inst = make_instance(2, 1, (11,), pmf_rows=[[[0.1] * 10 + [0.0]],
                                                [[0.05, 0.15] * 5 + [0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kernel = _always_kernel(inst, 1)
        path = list(kernel_path(kernel, 0, _LastDraw(), 5))
    assert [(ai, sym) for ai, sym, _ in path] == [(1, 9)] * 5
    assert np.all(np.isfinite(path[-1][2]))
    assert path[-1][2][0][1] == pytest.approx(5 * np.log(0.1 / 0.15))


def test_sample_frequencies_match_marginal(example_instance):
    rng = np.random.default_rng(42)
    N = 1_000_000
    counts = np.zeros(3)
    for _, sym, _ in kernel_path(_always_kernel(example_instance, 1), 0, rng, N):
        counts[sym] += 1
    p = np.array(P01)
    sigma = np.sqrt(p * (1 - p) * N)
    assert np.all(np.abs(counts - N * p) < 3.3 * sigma)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_budget_spec_refuses_bad_rate(rate):
    """A NaN or infinite rate failed only later, inside the region code,
    without naming the cause."""
    with pytest.raises(ValueError, match=rf"budget 1 rate must be finite and nonnegative, "
                                         rf"got {rate!r}"):
        BudgetSpec(np.ones((2, 2)), np.array([0.5, rate]))


def test_omega_empty_only():
    inst = make_instance(2, 2, (2, 2), pmf_rows=[[[0.6, 0.4]] * 2, [[0.3, 0.7]] * 2])
    beta = np.zeros((inst.actions.size, 1))
    beta[0, 0] = 1.0  # all mass on the empty action
    assert np.allclose(omega(inst.actions, inst.avail, beta, n=inst.model.n), 0.0)


def test_omega_chernoff_collapse():
    inst = make_instance(2, 2, (2, 2), pmf_rows=[[[0.6, 0.4]] * 2, [[0.3, 0.7]] * 2])
    beta = np.zeros((3, 1))
    beta[1, 0] = 0.25  # action {1}
    beta[2, 0] = 0.75  # action {2}
    assert np.allclose(omega(inst.actions, inst.avail, beta, n=inst.model.n), [0.25, 0.75])


def test_omega_all_ones_counts_combinations():
    inst = make_instance(2, 2, (2, 2), pmf_rows=[[[0.6, 0.4]] * 2, [[0.3, 0.7]] * 2])
    beta = np.ones((inst.actions.size, len(inst.avail.sets)))
    w = omega(inst.actions, inst.avail, beta, n=inst.model.n)
    expect = np.zeros(2)
    for a in inst.actions.actions:
        for z in inst.avail.sets:
            for j in set(a) & set(z):
                expect[j - 1] += 1
    assert np.allclose(w, expect)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_omega_linear(seed, lam):
    inst = make_instance(2, 2, (2, 2), pmf_rows=[[[0.6, 0.4]] * 2, [[0.3, 0.7]] * 2])
    rng = np.random.default_rng(seed)
    shape = (inst.actions.size, len(inst.avail.sets))
    b1, b2 = rng.uniform(size=shape), rng.uniform(size=shape)
    mix = omega(inst.actions, inst.avail, lam * b1 + (1 - lam) * b2, n=inst.model.n)
    parts = lam * omega(inst.actions, inst.avail, b1, n=inst.model.n) \
        + (1 - lam) * omega(inst.actions, inst.avail, b2, n=inst.model.n)
    assert np.allclose(mix, parts, atol=1e-12)


def _uniform_beta(inst):
    n_a, n_z = inst.actions.size, len(inst.avail.sets)
    beta = np.zeros((n_a, n_z))
    for zi, alpha in enumerate(inst.avail.probs):
        for ai, a in enumerate(inst.actions.actions):
            if a:
                beta[ai, zi] = alpha / (n_a - 1)
    return beta


def test_constraint_set_uniform_singletons(example_instance):
    inst = example_instance
    beta = _uniform_beta(inst)
    assert in_constraint_set(beta, inst.avail, inst.actions, inst.budgets)


def test_constraint_set_availability_violation(example_instance):
    inst = example_instance
    beta = _uniform_beta(inst) * 0.9
    assert not in_constraint_set(beta, inst.avail, inst.actions, inst.budgets)


def test_constraint_set_refuses_nan(example_instance):
    # Every comparison with NaN is false, so a NaN entry passed both the
    # sign and the availability tests.
    inst = example_instance
    beta = _uniform_beta(inst)
    beta[0, 0] = np.nan
    assert not in_constraint_set(beta, inst.avail, inst.actions, inst.budgets)


def test_constraint_set_budget_violation():
    budgets = BudgetSpec(np.array([[1.0, 1.0]]), np.array([0.5]))
    inst = make_instance(2, 2, (2, 2), pmf_rows=[[[0.6, 0.4]] * 2, [[0.3, 0.7]] * 2],
                         budgets=budgets)
    beta = np.zeros((3, 1))
    beta[1, 0] = 1.0  # always select source 1: usage 1 > 0.5
    assert not in_constraint_set(beta, inst.avail, inst.actions, inst.budgets)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_constraint_set_convex(seed, lam):
    rng = np.random.default_rng(seed)
    budgets = BudgetSpec(np.array([[1.0, 0.5]]), np.array([0.7]))
    inst = make_instance(2, 2, (2, 2), pmf_rows=[[[0.6, 0.4]] * 2, [[0.3, 0.7]] * 2],
                         budgets=budgets)
    n_a = inst.actions.size

    def random_member():
        for _ in range(100):
            w = rng.dirichlet(np.ones(n_a))
            beta = w.reshape(-1, 1) * inst.avail.probs
            if in_constraint_set(beta, inst.avail, inst.actions, inst.budgets):
                return beta
        pytest.skip("could not sample two members")

    b1, b2 = random_member(), random_member()
    mix = lam * b1 + (1 - lam) * b2
    assert in_constraint_set(mix, inst.avail, inst.actions, inst.budgets)
