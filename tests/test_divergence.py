import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aseq.divergence import build_instance_table, exponent, kl
from aseq.errors import SupportMismatch
from aseq.model import marginal

from conftest import make_instance, random_instance
from test_model import P01, P02, P11, P12, P21, P22


def direct_kl(p, q):
    # independent summation oracle
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def test_kl_self_zero():
    assert kl(np.array(P01), np.array(P01)) == 0.0


def test_kl_point_mass_vs_uniform():
    assert kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(math.log(2))


def test_kl_example_value():
    v = kl(np.array(P01), np.array(P11))
    assert v == pytest.approx(direct_kl(P01, P11), abs=1e-14)
    assert v == pytest.approx(1.62498, abs=1e-5)


def test_kl_support_mismatch():
    with pytest.raises(SupportMismatch):
        kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    p = rng.dirichlet(np.ones(k)) + 1e-9
    q = rng.dirichlet(np.ones(k)) + 1e-9
    p, q = p / p.sum(), q / q.sum()
    assert kl(p, q) >= 0.0


def test_table_chernoff_entries(example_instance):
    table = build_instance_table(example_instance)
    # action {1} is row 1 (empty action first), single availability set
    assert table.table[1, 0, 0, 1] == pytest.approx(direct_kl(P01, P11), abs=1e-12)
    assert table.table[2, 0, 0, 1] == pytest.approx(direct_kl(P02, P12), abs=1e-12)
    assert table.table[1, 0, 2, 0] == pytest.approx(direct_kl(P21, P01), abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_table_matches_per_cell_loop(example_instance, seed):
    """The table equals one ``kl`` call per action, availability set and
    ordered pair on that cell's own marginals, bit for bit."""
    inst = example_instance if seed == 0 else random_instance(np.random.default_rng(seed))
    M = inst.model.M
    want = np.zeros((inst.actions.size, len(inst.avail.sets), M, M))
    for ai, a in enumerate(inst.actions.actions):
        for zi, z in enumerate(inst.avail.sets):
            keep = tuple(sorted(set(a) & set(z)))
            if keep:
                for m in range(M):
                    for t in range(M):
                        if t != m:
                            want[ai, zi, m, t] = kl(marginal(inst.model, keep, m),
                                                    marginal(inst.model, keep, t))
    assert build_instance_table(inst).table.tobytes() == want.tobytes()


def test_table_empty_action_zero(example_instance):
    table = build_instance_table(example_instance)
    assert np.all(table.table[0] == 0.0)


def test_table_identical_hypotheses_zero_slice():
    inst = make_instance(2, 1, (3,), pmf_rows=[[P01], [P01]])
    table = build_instance_table(inst)
    assert np.all(table.table == 0.0)


def test_table_joint_pair_sums_sources(example_instance):
    # data-processing identity on product models: joint KL = sum of marginals
    inst = make_instance(3, 2, (3, 3),
                         pmf_rows=[[P01, P02], [P11, P12], [P21, P22]],
                         actions=None)
    from aseq.model import ActionSpace, Instance
    actions = ActionSpace(((), (1,), (2,), (1, 2)))
    inst = Instance(inst.model, inst.avail, actions, inst.budgets)
    table = build_instance_table(inst)
    for m in range(3):
        for t in range(3):
            if m == t:
                continue
            joint = table.table[3, 0, m, t]
            split = table.table[1, 0, m, t] + table.table[2, 0, m, t]
            assert joint == pytest.approx(split, abs=1e-12)


def test_exponent_single_source(example_instance):
    table = build_instance_table(example_instance)
    beta = np.zeros((3, 1))
    beta[1, 0] = 1.0
    assert exponent(beta, table, 0, 1) == pytest.approx(direct_kl(P01, P11), abs=1e-12)


def test_exponent_zero_beta(example_instance):
    table = build_instance_table(example_instance)
    assert exponent(np.zeros((3, 1)), table, 0, 1) == 0.0


def test_exponent_uniform_mix(example_instance):
    table = build_instance_table(example_instance)
    beta = np.zeros((3, 1))
    beta[1, 0] = beta[2, 0] = 0.5
    for m, t in [(0, 1), (1, 2), (2, 0)]:
        want = 0.5 * table.table[1, 0, m, t] + 0.5 * table.table[2, 0, m, t]
        assert exponent(beta, table, m, t) == pytest.approx(want, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_exponent_linear_in_beta(example_instance, seed, lam):
    table = build_instance_table(example_instance)
    rng = np.random.default_rng(seed)
    b1 = rng.uniform(size=(3, 1))
    b2 = rng.uniform(size=(3, 1))
    mix = exponent(lam * b1 + (1 - lam) * b2, table, 0, 2)
    assert mix == pytest.approx(lam * exponent(b1, table, 0, 2)
                                + (1 - lam) * exponent(b2, table, 0, 2), abs=1e-12)
