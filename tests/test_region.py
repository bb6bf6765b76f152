import itertools
import math
import time
import warnings

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import logsumexp as scipy_logsumexp

from aseq.divergence import build_instance_table, exponent, kl
from aseq.errors import (DimensionMismatch, InfeasiblePolytope, SupportMismatch,
                         UnsupportedDimension)
from aseq.model import ActionSpace, AvailabilityDist, BudgetSpec, Instance
from aseq.region import (ConstraintPolytope, TuncelOptions, build_polytope, compute_region,
                         decision_risk_exponents, enumerate_vertices,
                         individual_hypothesis_region_slice, nonadaptive_feasibility,
                         nonadaptive_membership, nonadaptive_slice, region_polytope,
                         source_marginals, tuncel_membership, tuncel_slice)
from aseq.region import (_BISECT_STEPS, _GRID_CELLS, _LOG_ZERO, _SPECULATE, _TuncelDual,
                         _corner_lp_contains, _dual_for, _first_of_each, _full_rank,
                         _logsumexp, _simplex_grid, _staircase_2d, _unique_rows)

from conftest import (ReferenceTuncelEvaluator, ReferenceTuncelOptions, _tuncel_objective,
                      criterion3_tuples, flat_corner_instance, grid_betas, make_instance,
                      oracle_max_margin, oracle_slice_support, random_instance,
                      reference_active_set_vertices, reference_bounds,
                      reference_enumerate_vertices, reference_first_of_each, reference_newton,
                      reference_nonadaptive_slice, reference_staircase_2d,
                      reference_tuncel_slice, two_set_instance)
from test_model import P01, P02, P11, P12, P21, P22


@pytest.fixture(scope="module")
def example(example_instance):
    inst = example_instance
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    return inst, table, poly


# ---------------------------------------------------------------- vertices

def test_vertices_chernoff_unit_assignments(example):
    _, _, poly = example
    verts = poly.vertices
    assert verts.shape == (3, 3)
    expect = {tuple(row) for row in np.eye(3)}
    assert {tuple(v) for v in verts} == expect


def test_vertices_two_availability_sets():
    # one action chosen per availability set, each at its probability
    inst = make_instance(
        2, 2, (2, 2), pmf_rows=[[[0.6, 0.4]] * 2, [[0.3, 0.7]] * 2],
        avail=AvailabilityDist(((1, 2), (1,)), np.array([0.6, 0.4])))
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    verts = poly.vertices
    assert len(verts) == inst.actions.size ** 2
    for v in verts:
        beta = v.reshape(inst.actions.size, 2)
        assert np.allclose(beta.sum(axis=0), [0.6, 0.4])
        assert np.all((np.abs(beta) < 1e-12) | (np.abs(beta - 0.6) < 1e-12)
                      | (np.abs(beta - 0.4) < 1e-12))


def test_vertices_one_simplex():
    inst = make_instance(2, 1, (2,), pmf_rows=[[[0.6, 0.4]], [[0.3, 0.7]]],
                         actions=ActionSpace(((), (1,))))
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    assert {tuple(v) for v in poly.vertices} == {(1.0, 0.0), (0.0, 1.0)}


def test_vertices_budget_cut():
    # single source, actions {(), (1,)}, budget usage <= 0.5:
    # vertices (beta_empty, beta_1) in {(1,0), (0.5,0.5)}
    budgets = BudgetSpec(np.array([[1.0]]), np.array([0.5]))
    inst = make_instance(2, 1, (2,), pmf_rows=[[[0.6, 0.4]], [[0.3, 0.7]]],
                         actions=ActionSpace(((), (1,))), budgets=budgets)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    got = {tuple(np.round(v, 9)) for v in poly.vertices}
    assert got == {(1.0, 0.0), (0.5, 0.5)}


def test_vertices_satisfy_constraints_random():
    rng = np.random.default_rng(11)
    for _ in range(8):
        inst = random_instance(rng)
        poly = build_polytope(inst.avail, inst.actions, inst.budgets)
        for v in poly.vertices:
            beta = v.reshape(inst.actions.size, len(inst.avail.sets))
            assert np.all(v >= -1e-9)
            assert np.allclose(beta.sum(axis=0), inst.avail.probs, atol=1e-9)
            if inst.budgets.size:
                assert np.all(poly.budget_matrix @ v <= poly.budget_rhs + 1e-9)


def raw_polytope(sets, probs, acts, coeffs, rates) -> ConstraintPolytope:
    """The polytope of ``build_polytope`` from raw parts, without the model
    checks, so that a set may have probability 0 and the empty action may be
    missing. Budget i costs coeffs[i] @ (sources selected) per step."""
    E = np.kron(np.ones(len(acts)), np.eye(len(sets)))
    G = np.zeros((0, E.shape[1]))
    if coeffs:
        W = np.array([[float(j in a and j in z) for a in acts for z in sets]
                      for j in range(1, len(coeffs[0]) + 1)])
        G = np.array(coeffs) @ W
    return ConstraintPolytope(E, np.array(probs, dtype=float), G, np.array(rates, dtype=float))


@st.composite
def polytope_parts(draw, coeff_values=(0.0, 0.5, 1.0, 2.0), max_budgets=2):
    """1-3 availability sets (one may have probability 0), the empty action
    present or absent, and up to ``max_budgets`` budgets, with coefficients
    from ``coeff_values``, whose rates are a fraction of the largest cost,
    the cost of one vertex of the unbudgeted polytope (tight there), zero,
    or half the smallest cost (no feasible point when every action costs
    something). A budget row may be repeated. Coordinates stay at 10 or
    fewer."""
    n = draw(st.integers(1, 3))
    subsets = [s for r in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), r)]
    sets = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=len(sets), max_size=len(sets)))
    if len(sets) > 1 and draw(st.booleans()):
        weights[draw(st.integers(0, len(sets) - 1))] = 0
    probs = [w / sum(weights) for w in weights]
    acts = draw(st.lists(st.sampled_from(subsets), min_size=1,
                         max_size=max(1, 10 // len(sets) - 1), unique=True))
    if draw(st.booleans()):
        acts = [()] + acts
    coeffs, rates = [], []
    for _ in range(draw(st.integers(0, max_budgets))):
        c = draw(st.lists(st.sampled_from(coeff_values), min_size=n, max_size=n))
        cost = np.array([[sum(c[j - 1] for j in set(a) & set(z)) for z in sets] for a in acts])
        kind = draw(st.sampled_from(["fraction", "vertex", "zero", "below"]))
        if kind == "fraction":
            rate = draw(st.sampled_from([0.25, 0.5, 0.75])) * float(cost.max(axis=0) @ probs)
        elif kind == "vertex":
            pick = draw(st.lists(st.integers(0, len(acts) - 1), min_size=len(sets),
                                 max_size=len(sets)))
            rate = float(cost[pick, range(len(sets))] @ probs)
        else:
            rate = 0.0 if kind == "zero" else 0.5 * float(cost.min(axis=0) @ probs)
        coeffs.append(c)
        rates.append(rate)
    if coeffs and draw(st.booleans()):
        coeffs.append(coeffs[0])
        rates.append(rates[0])
    return sets, probs, acts, coeffs, rates


@settings(max_examples=80, deadline=None)
@given(polytope_parts())
# A set with probability 0, no empty action, a duplicated budget row tight at
# the vertex that gives set {1, 2} to action {2} and set {1} to action {1, 2},
# and a zero-rate budget.
@hypothesis.example(([(1, 2), (1,), (2,)], [0.5, 0.5, 0.0], [(1,), (2,), (1, 2)],
                     [[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]], [1.5, 1.5, 0.0]))
# Every action selects a source, and the budget allows half the cheapest.
@hypothesis.example(([(1, 2)], [1.0], [(1,), (2,)], [[1.0, 1.0]], [0.5]))
# Two vertices, (0.5, 0.5) and (0.3, 0.7), that share a support and differ
# only in which budget is tight.
@hypothesis.example(([(1, 2)], [1.0], [(1,), (2,)], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.7]))
def test_enumerate_vertices_matches_active_set_oracle(parts):
    poly = raw_polytope(*parts)
    try:
        want = reference_active_set_vertices(poly)
    except InfeasiblePolytope:
        with pytest.raises(InfeasiblePolytope):
            enumerate_vertices(poly)
        return
    got = enumerate_vertices(poly)
    assert got.shape == want.shape
    assert np.array_equal(got, got[np.lexsort(got.T[::-1])])
    assert np.abs(want[:, None, :] - got[None, :, :]).max(axis=2).min(axis=1).max() <= 1e-12


@settings(max_examples=150, deadline=None)
@given(polytope_parts(coeff_values=(0.0, 0.1, 0.2, 0.3, 1 / 3, 0.5, 1.0, 2.0), max_budgets=3))
# Equal costs: every (2, 1) support of {1} and {2} is exactly singular.
@hypothesis.example(([(1, 2)], [1.0], [(1,), (2,)], [[0.5, 0.5]], [0.5]))
# 0.1 + 0.2 against 0.3: the (2, 1) support of {1, 2} and {3} is singular
# only up to rounding, which the determinant cannot certify either way.
@hypothesis.example(([(1, 2, 3)], [1.0], [(1, 2), (3,)], [[0.1, 0.2, 0.3]], [0.3]))
def test_enumerate_vertices_matches_svd_reference(parts):
    """The zero-row and determinant certificates decide every system as the
    SVD does, so the vertices are the reference's bit for bit."""
    poly = raw_polytope(*parts)
    try:
        want = reference_enumerate_vertices(poly)
    except InfeasiblePolytope:
        with pytest.raises(InfeasiblePolytope):
            enumerate_vertices(poly)
        return
    got = enumerate_vertices(poly)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def square_stacks(draw):
    """Stacks of k x k systems with entries like the polytope's (0, 1 and
    budget costs), some with a zero row, some with a last row that is a
    combination of the others plus a multiple of 1e-12 to 1e-9 of a unit
    row, so that the smallest singular value lies near the 1e-10 cut."""
    k = draw(st.integers(1, 5))
    entry = st.sampled_from([0.0, 0.0, 1.0, 1.0, 0.1, 0.2, 0.3, 1 / 3, 0.5, 2.0, 3.0])
    stack = []
    for _ in range(draw(st.integers(1, 12))):
        S = np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
        kind = draw(st.sampled_from(["plain", "zero_row", "near"]))
        if kind == "zero_row":
            S[draw(st.integers(0, k - 1))] = 0.0
        elif kind == "near":
            w = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                                       min_size=k - 1, max_size=k - 1)))
            S[-1] = w @ S[:-1]
            S[-1, draw(st.integers(0, k - 1))] += draw(st.sampled_from(
                [0.0, 1e-12, 5e-11, 1e-10, 1.5e-10, 2e-10, 3e-10, 1e-9]))
        stack.append(S)
    return np.array(stack)


@settings(max_examples=400, deadline=None)
@given(square_stacks())
def test_full_rank_matches_svd(systems):
    want = np.linalg.svd(systems, compute_uv=False)[:, -1] > 1e-10
    assert np.array_equal(_full_rank(systems), want)


float_rows = st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 2.5, 1e9]),
             min_size=c, max_size=c), max_size=40))


@settings(max_examples=300, deadline=None)
@given(float_rows, st.data())
def test_first_of_each_float_rows(rows, data):
    """Rows drawn from a few values (so they repeat, with -0.0 and 0.0 as
    the same value), with some rows copied to later positions."""
    keys = np.array(rows, dtype=float).reshape(len(rows), -1) if rows else np.zeros((0, 2))
    if len(keys):
        picks = data.draw(st.lists(st.integers(0, len(keys) - 1), max_size=10))
        keys = np.vstack([keys, keys[picks]])
    got = _first_of_each(keys)
    assert got.dtype == np.intp and np.array_equal(got, reference_first_of_each(keys))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20).flatmap(lambda c: st.lists(
    st.lists(st.booleans(), min_size=c, max_size=c), min_size=1, max_size=60)))
def test_first_of_each_packed_keys(bits):
    keys = np.packbits(np.array(bits), axis=1)
    assert np.array_equal(_first_of_each(keys), reference_first_of_each(keys))


def test_enumerate_vertices_five_sources():
    # Model (a)'s shape with five sources: all 31 actions and the empty one,
    # two availability sets and one budget, so 64 coordinates.
    acts = ActionSpace(tuple(s for r in range(6) for s in itertools.combinations(range(1, 6), r)))
    avail = AvailabilityDist(((1, 2, 3, 4, 5), (1, 2)), np.array([0.6, 0.4]))
    poly = build_polytope(avail, acts, BudgetSpec(np.ones((1, 5)), np.array([1.5])))
    V = enumerate_vertices(poly)
    assert V.shape == (7984, 64)
    assert V.tobytes() == reference_enumerate_vertices(poly).tobytes()
    assert np.all(V >= -1e-9)
    assert np.abs(V @ poly.eq_matrix.T - poly.eq_rhs).max() <= 1e-9
    assert np.all(V @ poly.budget_matrix.T <= poly.budget_rhs + 1e-9)
    rng = np.random.default_rng(7)
    for c in rng.normal(size=(8, poly.dim)):
        res = linprog(-c, A_ub=poly.budget_matrix, b_ub=poly.budget_rhs, A_eq=poly.eq_matrix,
                      b_eq=poly.eq_rhs, bounds=(0, None), method="highs")
        assert res.status == 0
        assert abs((V @ c).max() + res.fun) <= 1e-9


# ------------------------------------------------------------- per-m regions

def test_region_binary_is_interval(example):
    inst, table, _ = example
    binst = make_instance(2, 2, (3, 3), pmf_rows=[[P01, P02], [P11, P12]])
    btable = build_instance_table(binst)
    bpoly = build_polytope(binst.avail, binst.actions, binst.budgets)
    sub = region_polytope(btable, bpoly, 0)
    best = max(exponent(v.reshape(3, 1), btable, 0, 1) for v in bpoly.vertices)
    assert sub.coord_max[0] == pytest.approx(best, abs=1e-12)
    assert sub.contains(np.array([best]))
    assert not sub.contains(np.array([best + 1e-6]))


def test_region_all_zero_divergence():
    inst = make_instance(2, 1, (3,), pmf_rows=[[P01], [P01]])
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    sub = region_polytope(table, poly, 0)
    assert sub.contains(np.array([0.0]))
    assert not sub.contains(np.array([1e-6]))


def test_region_example_corner_hull(example):
    _, table, poly = example
    sub = region_polytope(table, poly, 0)
    c1 = np.array([table.table[1, 0, 0, 1], table.table[1, 0, 0, 2]])  # source 1
    c2 = np.array([table.table[2, 0, 0, 1], table.table[2, 0, 0, 2]])  # source 2
    corners = {tuple(np.round(c, 9)) for c in sub.corners}
    assert tuple(np.round(c1, 9)) in corners
    assert tuple(np.round(c2, 9)) in corners
    # midpoint of the tradeoff segment is inside, slightly beyond is not
    mid = 0.5 * (c1 + c2)
    assert sub.contains(mid)
    assert not sub.contains(mid + 5e-3)


def test_membership_matrix_shape(example):
    _, table, poly = example
    region = compute_region(table, poly)
    with pytest.raises(DimensionMismatch):
        region.contains(np.zeros((2, 2)))


def test_membership_zero_and_excess(example):
    _, table, poly = example
    region = compute_region(table, poly)
    assert region.contains(np.zeros((3, 3)))
    e = np.zeros((3, 3))
    e[0, 1] = region.per_m[0].coord_max[0] + 1e-3
    assert not region.contains(e)


def test_region_membership_against_grid_oracle(example):
    _, table, poly = example
    region = compute_region(table, poly)
    inst = example[0]
    grid = grid_betas(inst, 0.02)
    rng = np.random.default_rng(3)
    pairs, rows = table.pair_rows()
    for _ in range(300):
        e = np.zeros((3, 3))
        for m in range(3):
            sub = region.per_m[m]
            e[m, list(sub.thetas)] = rng.uniform(0, 1.15) * rng.uniform(
                0, 1, size=2) * sub.coord_max
        mine = region.contains(e)
        ok = True
        for m in range(3):
            sub = region.per_m[m]
            rows_m = np.stack([table.pair_matrix(m, t).reshape(-1)
                               for t in sub.thetas])
            ref = oracle_max_margin(e[m, list(sub.thetas)], rows_m, inst)
            if ref < 0:
                ok = False
        if mine != ok:
            # disagreement must sit on the numerical boundary
            margin = region.margin(e)
            assert abs(margin) < 1e-6
        if not mine:
            # the coarse grid never certifies a point the exact region rejects
            for m in range(3):
                sub = region.per_m[m]
                rows_m = np.stack([table.pair_matrix(m, t).reshape(-1)
                                   for t in sub.thetas])
                corners = grid @ rows_m.T
                e_sub = e[m, list(sub.thetas)]
                if not sub.contains(e_sub):
                    assert not np.any(np.all(corners >= e_sub - 1e-9, axis=1))


# ------------------------------------------------------------- corollaries

def test_decision_risk_zero_model():
    inst = make_instance(2, 1, (3,), pmf_rows=[[P01], [P01]])
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    gamma, _ = decision_risk_exponents(table, poly)
    assert np.allclose(gamma, 0.0, atol=1e-9)


def test_decision_risk_binary_closed_form():
    inst = make_instance(2, 2, (3, 3), pmf_rows=[[P01, P02], [P11, P12]])
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    gamma, _ = decision_risk_exponents(table, poly)
    assert gamma[0] == pytest.approx(max(table.table[1, 0, 0, 1],
                                         table.table[2, 0, 0, 1]), abs=1e-9)
    assert gamma[1] == pytest.approx(max(table.table[1, 0, 1, 0],
                                         table.table[2, 0, 1, 0]), abs=1e-9)


def test_decision_risk_example_vs_grid(example):
    inst, table, poly = example
    gamma, argmax = decision_risk_exponents(table, poly)
    grid = grid_betas(inst, 0.01)
    for m in range(3):
        thetas = [t for t in range(3) if t != m]
        rows = np.stack([table.pair_matrix(m, t).reshape(-1) for t in thetas])
        vals = (grid @ rows.T).min(axis=1)
        assert gamma[m] == pytest.approx(float(vals.max()), abs=1e-3)
        assert gamma[m] >= float(vals.max()) - 1e-9  # grid can only undershoot
        # the argmax frequencies actually attain gamma
        attained = min(exponent(argmax[m], table, m, t) for t in thetas)
        assert attained == pytest.approx(gamma[m], abs=1e-9)


# --------------------------------------------------------------- nonadaptive

def test_nonadaptive_zero(example):
    _, table, poly = example
    assert nonadaptive_membership(np.zeros((3, 3)), table, poly)


def test_nonadaptive_subset_of_region(example):
    _, table, poly = example
    region = compute_region(table, poly)
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(300):
        e = np.zeros((3, 3))
        for m in range(3):
            sub = region.per_m[m]
            e[m, list(sub.thetas)] = rng.uniform(0, 1, size=2) * sub.coord_max
        if nonadaptive_membership(e, table, poly):
            checked += 1
            assert region.contains(e, tol=1e-7)
    assert checked > 10


def test_adaptive_strictly_larger(example):
    # pick per-m corners from different polytope vertices; the product tuple
    # is adaptive-achievable but no shared frequency achieves it
    _, table, poly = example
    region = compute_region(table, poly)
    e = np.zeros((3, 3))
    e[0, 1], e[0, 2] = table.table[1, 0, 0, 1], table.table[1, 0, 0, 2]
    e[1, 0], e[1, 2] = table.table[2, 0, 1, 0], table.table[2, 0, 1, 2]
    e[2, 0], e[2, 1] = table.table[1, 0, 2, 0], table.table[1, 0, 2, 1]
    assert region.contains(e)
    res = nonadaptive_feasibility(e, table, poly)
    assert res.status == "infeasible"
    # Farkas certificate really proves it
    y_eq, y_ub = res.farkas_eq, res.farkas_ub
    assert np.all(y_ub <= 1e-9)


def test_nonadaptive_box_identity(example):
    # at a fixed frequency the region is the product of per-m boxes
    _, table, poly = example
    rng = np.random.default_rng(21)
    for _ in range(20):
        w = rng.dirichlet(np.ones(3))
        beta = w.reshape(3, 1)
        e = np.zeros((3, 3))
        scale = rng.uniform(0, 1.05, size=(3, 3))
        for m in range(3):
            for t in range(3):
                if t != m:
                    e[m, t] = scale[m, t] * exponent(beta, table, m, t)
        in_box = bool(np.all(scale[~np.eye(3, dtype=bool)] <= 1.0 + 1e-12))
        if in_box:
            assert nonadaptive_membership(e, table, poly)


# -------------------------------------------------------------------- tuncel

def test_tuncel_zero_tuple(example):
    inst, _, _ = example
    res = tuncel_membership(np.zeros((3, 3)), inst.model, np.array([0.5, 0.5]))
    assert res.status == "in"


def test_tuncel_row_violation_is_out(example):
    # row 0 demands more than the sampling mix delivers at hypothesis 0's own
    # marginals, and every other row has positive demands, so the sample type
    # equal to those marginals cannot be assigned anywhere
    inst, table, _ = example
    beta = np.array([0.5, 0.5])
    bfull = np.zeros((3, 1))
    bfull[1, 0] = bfull[2, 0] = 0.5
    e = np.zeros((3, 3))
    for m in range(3):
        for t in range(3):
            if t != m:
                e[m, t] = 0.3 * exponent(bfull, table, m, t)
    e[0, 1] = exponent(bfull, table, 0, 1) * 1.2
    e[0, 2] = exponent(bfull, table, 0, 2) * 1.2
    res = tuncel_membership(e, inst.model, beta)
    assert res.status == "out"
    assert res.witness is not None


def test_tuncel_na_corner_outside(example):
    # the shared-frequency rectangle corner exceeds the fixed-length region
    inst, table, _ = example
    beta = np.array([0.5, 0.5])
    bfull = np.zeros((3, 1))
    bfull[1, 0] = bfull[2, 0] = 0.5
    e = np.zeros((3, 3))
    for m in range(3):
        for t in range(3):
            if t != m:
                e[m, t] = exponent(bfull, table, m, t)
    res = tuncel_membership(e, inst.model, beta)
    assert res.status == "out"


def test_tuncel_requires_product_model():
    rng = np.random.default_rng(1)
    inst = make_instance(2, 2, (2, 2), rng=rng)  # random joint, not product
    with pytest.raises(ValueError):
        tuncel_membership(np.zeros((2, 2)), inst.model, np.array([0.5, 0.5]))


def test_tuncel_requires_shared_support():
    inst = make_instance(2, 1, (3,), pmf_rows=[[[0.0, 0.5, 0.5]], [[0.2, 0.4, 0.4]]])
    with pytest.raises(SupportMismatch):
        tuncel_membership(np.zeros((2, 2)), inst.model, np.array([1.0]))


@pytest.fixture(scope="module")
def c3_tuples(example):
    return criterion3_tuples(example[1])


def test_tuncel_criterion3_tuple_63_is_out(example, c3_tuples):
    # The grid-and-descent search called this tuple "in" (slack +1.04e-3 at
    # criterion 3's old options), but a sample type of slack about -1.95e-4
    # exists: the tilt of the dual's minimising choice function.
    inst, _, _ = example
    beta = np.array([0.5, 0.5])
    res = tuncel_membership(c3_tuples[63], inst.model, beta)
    assert res.status == "out"
    Q = source_marginals(inst.model)
    assert _tuncel_objective(list(res.witness), Q, beta, c3_tuples[63])[0] < -1e-4


def _dual_against_oracle(model, beta, e, oracle_options):
    """The oracle's slack (the value of a real sample type) never falls
    below the certified lower bound, "in" means lower >= 0, and an "out"
    witness has slack below -1e-9 under _tuncel_objective."""
    res = tuncel_membership(e, model, beta)
    assert res.lower <= res.upper
    Q = source_marginals(model)
    oracle, _ = ReferenceTuncelEvaluator(Q, beta, oracle_options).min_slack(e)
    assert oracle >= res.lower - 1e-9
    assert (res.status == "in") == (res.lower >= 0)
    if res.status == "out":
        assert _tuncel_objective(list(res.witness), Q, beta, e)[0] < -1e-9
    return res


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), M=st.sampled_from([3, 4]), n=st.integers(2, 3),
       scale=st.sampled_from([0.2, 0.5, 0.9]))
def test_tuncel_dual_brackets_oracle_random(seed, M, n, scale):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(k) for k in rng.integers(2, 5, size=n))
    rows = [[rng.dirichlet(np.ones(k)) for k in sizes] for _ in range(M)]
    beta = rng.dirichlet(np.ones(n))
    corner = np.array([[sum(b * kl(p, q) for b, p, q in zip(beta, rows[m], rows[t]))
                        for t in range(M)] for m in range(M)])
    e = corner * rng.uniform(0.0, scale, size=(M, M))
    np.fill_diagonal(e, 0.0)
    _dual_against_oracle(make_instance(M, n, sizes, pmf_rows=rows).model, beta, e,
                         ReferenceTuncelOptions(grid_step=0.2, descent_starts=3,
                                                descent_iters=60))


@settings(max_examples=25, deadline=None)
@given(index=st.integers(0, 999))
@hypothesis.example(index=63)
def test_tuncel_dual_brackets_oracle_criterion3(example, c3_tuples, index):
    _dual_against_oracle(example[0].model, np.array([0.5, 0.5]), c3_tuples[index],
                         ReferenceTuncelOptions(grid_step=0.1, descent_starts=4,
                                                descent_iters=80))


def test_tuncel_zero_mass_symbol_changes_nothing(example, c3_tuples):
    # A symbol no hypothesis emits leaves the region as it is: the same
    # verdicts and bounds, no witness mass on the symbol, and no nan warning.
    inst, _, _ = example
    beta = np.array([0.5, 0.5])
    Q = source_marginals(inst.model)
    padded = make_instance(3, 2, (4, 3), pmf_rows=[[np.append(Q[t][0], 0.0), Q[t][1]]
                                                   for t in range(3)]).model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in c3_tuples[:40]:
            a = tuncel_membership(e, inst.model, beta)
            b = tuncel_membership(e, padded, beta)
            assert (a.status, a.lower) == (b.status, pytest.approx(b.lower, abs=1e-12))
            assert b.witness is None or b.witness[0][3] == 0.0


@settings(max_examples=300, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]), ties=st.booleans(),
       pad=st.booleans(), seed=st.integers(0, 2**32 - 1))
@hypothesis.example(shape=[4, 1], scale=1.0, ties=False, pad=False, seed=0)
@hypothesis.example(shape=[2, 3, 5], scale=1e3, ties=True, pad=True, seed=1)
def test_logsumexp_matches_scipy(shape, scale, ties, pad, seed):
    """The dual's log-sum-exp is scipy's, bit for bit: ties at the row max,
    single-entry rows, _LOG_ZERO padding and scales up to 1e3."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) * scale
    if ties:
        a = np.where(rng.random(shape) < 0.4, a.max(axis=-1, keepdims=True), a)
    if pad:
        a = np.where(rng.random(shape) < 0.3, _LOG_ZERO, a)
    assert np.array_equal(_logsumexp(a), scipy_logsumexp(a, axis=-1))


def test_tuncel_dual_same_with_scipy_logsumexp(example, c3_tuples, monkeypatch):
    """The dual's bounds and witnesses on criterion 3's queries, and the
    example's e2 = 0.3 slice, are unchanged bit for bit when _tilt takes
    scipy's logsumexp. The memo is cleared before each run, so the slice's
    dual (and its grid tilt) is built with the log-sum-exp under test."""
    inst, _, _ = example
    beta = np.array([0.5, 0.5])
    Q = source_marginals(inst.model)

    def run():
        monkeypatch.setattr("aseq.region._last_dual", None)
        dual = _TuncelDual(Q, beta, TuncelOptions())
        return ([dual.bounds(e) for e in c3_tuples],
                tuncel_slice(inst.model, beta, {2: 0.3}).points)

    ours, ours_slice = run()
    monkeypatch.setattr("aseq.region._logsumexp", lambda a: scipy_logsumexp(a, axis=-1))
    theirs, theirs_slice = run()
    assert np.array_equal(ours_slice, theirs_slice)
    for (lower, upper, witness), (lower2, upper2, witness2) in zip(ours, theirs):
        assert (lower, upper) == (lower2, upper2)
        assert all(np.array_equal(p, p2) for p, p2 in zip(witness, witness2))


def _fresh_membership(e, model, beta, options):
    """tuncel_membership's verdict from a dual built for this call alone."""
    lower, upper, witness = _TuncelDual(source_marginals(model), beta, options).bounds(e)
    status = "in" if lower >= 0 else "out" if upper < -1e-9 else "unresolved"
    return status, lower, upper, None if status == "in" else witness


def _same_result(res, fresh):
    status, lower, upper, witness = fresh
    assert (res.status, res.lower, res.upper) == (status, lower, upper)
    assert (res.witness is None) == (witness is None)
    if witness is not None:
        assert all(np.array_equal(p, p2) for p, p2 in zip(res.witness, witness))


def test_tuncel_memo_matches_fresh_dual(example, c3_tuples):
    """On criterion 3's queries the reused dual answers as a fresh one does,
    bit for bit, and upper (the dual's own slack of its witness) agrees with
    the slow _tuncel_objective to within rounding."""
    inst, _, _ = example
    beta = np.array([0.5, 0.5])
    Q = source_marginals(inst.model)
    for e in c3_tuples:
        res = tuncel_membership(e, inst.model, beta)
        _same_result(res, _fresh_membership(e, inst.model, beta, TuncelOptions()))
        lower, upper, witness = _TuncelDual(Q, beta, TuncelOptions()).bounds(e)
        assert abs(upper - _tuncel_objective(list(witness), Q, beta, e)[0]) <= 1e-12


def test_tuncel_memo_never_stale(example, c3_tuples, monkeypatch):
    """Calls that alternate between two models, two proportions and two
    option sets, with one pmf and one proportion array rewritten in place
    between calls, each answer as a fresh dual does; a refused proportion
    raises on every call, and the slice reuses the same dual."""
    inst, _, _ = example
    Q = source_marginals(inst.model)
    rows = [[Q[t][0], Q[t][1]] for t in (1, 2, 0)]
    other = make_instance(3, 2, (3, 3), pmf_rows=rows).model
    betas = [np.array([0.5, 0.5]), np.array([0.2, 0.8])]
    options = [TuncelOptions(), TuncelOptions(grid_step=0.1, descent_iters=50)]
    tuples = [c3_tuples[i] for i in (0, 5, 63, 100)]
    for model, beta, opts, e in itertools.product([inst.model, other], betas, options, tuples):
        _same_result(tuncel_membership(e, model, beta, opts),
                     _fresh_membership(e, model, beta, opts))
        if model is other and beta is betas[1] and opts is options[0] and e is tuples[0]:
            # the memo holds this model's dual; its hypothesis 0 now emits
            # the example's hypothesis 0
            other.pmfs[0][...] = np.multiply.outer(Q[0][0], Q[0][1])
        _same_result(tuncel_membership(e, other, betas[1], options[0]),
                     _fresh_membership(e, other, betas[1], options[0]))
    mine = betas[0].copy()
    dual = _dual_for(inst.model, mine, options[0])
    assert _dual_for(inst.model, betas[0].copy(), options[0]) is dual
    mine[...] = betas[1]  # the stored dual keeps its own copy of the proportions
    _same_result(tuncel_membership(tuples[2], inst.model, betas[0], options[0]),
                 _fresh_membership(tuples[2], inst.model, betas[0], options[0]))
    for _ in range(2):
        with pytest.raises(ValueError):
            tuncel_membership(tuples[0], inst.model, np.array([0.5, np.nan]))
        with pytest.raises(DimensionMismatch):
            tuncel_membership(tuples[0], inst.model, np.array([1.0]))
    sliced = tuncel_slice(inst.model, betas[1], {2: 0.3}, samples=3, options=options[1])
    monkeypatch.setattr("aseq.region._last_dual", None)
    fresh = tuncel_slice(inst.model, betas[1], {2: 0.3}, samples=3, options=options[1])
    assert np.array_equal(sliced.points, fresh.points)


def test_tuncel_slice_points_certified_in(example):
    inst, table, poly = example
    beta = np.array([0.5, 0.5])
    pts = tuncel_slice(inst.model, beta, {2: 0.3}, samples=5).points
    assert len(pts) == 5
    for x, y in pts:
        e = np.tile([x, y, 0.3], (3, 1))
        assert tuncel_membership(e, inst.model, beta).status == "in"
        if min(x, y) > 0:
            assert nonadaptive_membership(e, table, poly)


def _same_bounds(stacked, k, one):
    lower, upper, witness = stacked
    assert (lower[k], upper[k]) == one[:2]
    assert all(np.array_equal(w[k], r) for w, r in zip(witness, one[2]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), M=st.sampled_from([2, 3, 4]), n=st.integers(1, 3),
       K=st.integers(1, 12), iters=st.sampled_from([0, 1, 3, 400]),
       grid_step=st.sampled_from([0.05, 0.25, 0.5]))
@hypothesis.example(seed=0, M=3, n=2, K=1, iters=400, grid_step=0.05)
@hypothesis.example(seed=1, M=2, n=3, K=12, iters=80, grid_step=0.05)
def test_tuncel_stacked_bounds_match_reference(seed, M, n, K, iters, grid_step):
    """A stack of targets gets, target by target, the lower, upper and
    witness of a one-target reference_bounds call, bit for bit: the zero
    target ("in"), scaled corners in and out of the region, repeated
    targets, and Newton caps from none to the default. With M = 2 each
    target has one row, so a stack puts rows of many targets into one
    product with the proportions; the second example fails when that
    product is taken over the whole stack at once."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 5, size=n)
    Q = [[rng.dirichlet(np.ones(k)) for k in sizes] for _ in range(M)]
    beta = rng.dirichlet(np.ones(n))
    corner = np.array([[sum(b * kl(p, q) for b, p, q in zip(beta, Q[m], Q[t]))
                        for t in range(M)] for m in range(M)])
    distinct = corner * rng.uniform(0.0, 1.5, size=(K, M, M))
    distinct[0] = 0.0
    E = distinct[rng.integers(0, K, size=K)]
    for e in E:
        np.fill_diagonal(e, 0.0)
    dual = _TuncelDual(Q, beta, TuncelOptions(grid_step=grid_step, descent_iters=iters))
    stacked = dual.bounds(E)
    for k, e in enumerate(E):
        _same_bounds(stacked, k, reference_bounds(dual, e))
        _same_bounds(stacked, k, dual.bounds(e))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), M=st.integers(2, 4), n=st.integers(1, 4),
       R=st.integers(1, 64))
@hypothesis.example(seed=0, M=3, n=2, R=64)
def test_tuncel_tilt_row_independent_of_stack(seed, M, n, R):
    """_tilt gives each row of a stack of mu the c, h and p it gives that
    row alone, bit for bit: interior points and points on faces of the
    simplex, 1 to 4 sources and 1 to 64 rows."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 5, size=n)
    Q = [[rng.dirichlet(np.ones(k)) for k in sizes] for _ in range(M)]
    dual = _TuncelDual(Q, rng.dirichlet(np.ones(n)), TuncelOptions(grid_step=0.5))
    mu = rng.dirichlet(np.ones(M), size=R) * (rng.random((R, M)) < 0.8)
    mu[mu.sum(axis=1) == 0, 0] = 1.0
    mu /= mu.sum(axis=1, keepdims=True)
    stacked = dual._tilt(mu)
    for r in range(R):
        for whole, alone in zip(stacked, dual._tilt(mu[r:r + 1])):
            assert whole[r:r + 1].tobytes() == alone.tobytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), M=st.integers(2, 5), n=st.integers(1, 3),
       grid_step=st.sampled_from([0.05, 0.1, 0.25, 0.5]))
@hypothesis.example(seed=0, M=5, n=2, grid_step=0.05)
def test_tuncel_grid_cache_is_each_rows_tilt(seed, M, n, grid_step):
    """The dual's cached grid tilts are, row by row, what _tilt gives that
    grid point alone, bit for bit, and read only. At M = 5 and step 0.05
    the grid is coarsened to fit _GRID_CELLS."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 5, size=n)
    Q = [[rng.dirichlet(np.ones(k)) for k in sizes] for _ in range(M)]
    dual = _TuncelDual(Q, rng.dirichlet(np.ones(n)), TuncelOptions(grid_step=grid_step))
    cache = (dual.c_grid, dual.h_grid, dual.p_grid)
    assert all(len(a) == len(dual.grid) and not a.flags.writeable for a in cache)
    for i in range(len(dual.grid)):
        for cached, alone in zip(cache, dual._tilt(dual.grid[i:i + 1])):
            assert cached[i:i + 1].tobytes() == alone.tobytes()


def _count_calls(monkeypatch, name):
    calls = []
    method = getattr(_TuncelDual, name)
    monkeypatch.setattr(_TuncelDual, name,
                        lambda dual, *args: calls.append(name) or method(dual, *args))
    return calls


def test_tuncel_query_settled_on_grid_tilts_nothing(example, c3_tuples, monkeypatch):
    """Targets settled by the grid scan ("in" and "out") read every tilt from
    the dual's cache: no _tilt call, and the one-target reference, which
    tilts on every pass, gives the same bits."""
    Q = source_marginals(example[0].model)
    dual = _TuncelDual(Q, np.array([0.5, 0.5]), TuncelOptions())
    E = np.array(c3_tuples[:15])
    tilts = _count_calls(monkeypatch, "_tilt")
    stacked = dual.bounds(E)
    assert tilts == []
    lower, upper, _ = stacked
    assert np.any(lower >= 0) and np.any(upper < -1e-9)
    for k, e in enumerate(E):
        _same_bounds(stacked, k, reference_bounds(dual, e))


def test_tuncel_newton_steps_leave_grid_cache(example, c3_tuples, monkeypatch):
    """Criterion 3's tuple 63 takes a Newton step from its grid point; the
    step updates the query's own copies, never the cached grid tilts."""
    Q = source_marginals(example[0].model)
    dual = _TuncelDual(Q, np.array([0.5, 0.5]), TuncelOptions())
    cache = (dual.grid, dual.c_grid, dual.h_grid, dual.p_grid)
    before = [a.tobytes() for a in cache]
    steps = _count_calls(monkeypatch, "_newton")
    _same_bounds(dual.bounds(c3_tuples[63][None]), 0, reference_bounds(dual, c3_tuples[63]))
    assert steps
    assert [a.tobytes() for a in cache] == before


def test_tuncel_singular_kkt_takes_pinv_step():
    """Hypotheses 0 and 1 share their one source's pmf, so with every
    coordinate free the Hessian block has two equal rows, the KKT system is
    exactly singular and LU raises; _newton then takes reference_newton's
    pinv step, bit for bit. Stacked with two nonsingular systems (one of the
    twin coordinates held), each row gets the step it gets alone."""
    q, r = np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.3, 0.1])
    dual = _TuncelDual([[q], [q.copy()], [r]], np.array([1.0]), TuncelOptions(grid_step=0.5))
    p = dual._tilt(np.array([[0.3, 0.3, 0.4]] * 3))[2]
    slack = np.array([[0.3, -0.2, 0.1]] * 3)
    free = np.array([[True, True, True], [True, False, True], [False, True, True]])
    stacked = dual._newton(p, slack, free)
    assert stacked[0].tobytes() == reference_newton(dual, p[:1], slack[:1], free[:1]).tobytes()
    assert np.all(np.abs(stacked[0]) > 1e-3)
    for i in range(3):
        alone = dual._newton(p[i:i + 1], slack[i:i + 1], free[i:i + 1])
        assert alone.tobytes() == stacked[i:i + 1].tobytes()


def _random_product_models(seed: int = 27, models: int = 40, targets: int = 25):
    """Fixed product-form models (M 2 to 4, 1 to 3 sources of 2 to 4
    symbols) with random proportions, each with a stack of targets: the
    model's corner at those proportions scaled entrywise by U(0, 0.5)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(models):
        M, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        sizes = tuple(int(k) for k in rng.integers(2, 5, size=n))
        rows = [[rng.dirichlet(np.ones(k)) for k in sizes] for _ in range(M)]
        beta = rng.dirichlet(np.ones(n))
        corner = np.array([[sum(b * kl(p, q) for b, p, q in zip(beta, rows[m], rows[t]))
                            for t in range(M)] for m in range(M)])
        E = corner * rng.uniform(0.0, 0.5, size=(targets, M, M))
        for e in E:
            np.fill_diagonal(e, 0.0)
        out.append((make_instance(M, n, sizes, pmf_rows=rows).model, beta, E))
    return out


_ORACLE_SLICES = [{2: 0.1}, {2: 0.3}, {2: 0.6}, {1: 0.2}, {0: 0.5}]


def test_tuncel_verdicts_same_with_reference_newton(example, c3_tuples, monkeypatch):
    """The LU Newton step gives every verdict and every slice point that the
    pinv step it replaced (reference_newton) gives: tuncel_membership on
    criterion 3's 1000 tuples at the default options and at grid step 0.1
    with 80 Newton steps, on 25 targets of each of 40 random product-form
    models, and the example's 17-sample e2 = 0.1, 0.3, 0.6, e1 = 0.2 and
    e0 = 0.5 slices. Only the
    last bits of lower, upper and the witness of a query that takes a Newton
    step may differ. Seeds and counts are fixed and nothing is drawn by
    Hypothesis, so the test runs under -W error."""
    model, beta = example[0].model, np.array([0.5, 0.5])
    options = (TuncelOptions(), TuncelOptions(grid_step=0.1, descent_iters=80))
    queries = [(model, beta, opts, e) for opts in options for e in c3_tuples]
    first_random = len(queries)
    queries += [(m, b, TuncelOptions(), e) for m, b, E in _random_product_models() for e in E]

    def run():
        monkeypatch.setattr("aseq.region._last_dual", None)
        steps = _count_calls(monkeypatch, "_newton")
        results = [tuncel_membership(e, m, b, opts) for m, b, opts, e in queries]
        points = [tuncel_slice(model, beta, fixed).points for fixed in _ORACLE_SLICES]
        assert steps
        return results, points

    ours, our_points = run()
    monkeypatch.setattr(_TuncelDual, "_newton", reference_newton)
    theirs, their_points = run()
    moved = [(i, a.status, b.status, a.lower, a.upper, b.lower, b.upper)
             for i, (a, b) in enumerate(zip(ours, theirs)) if a.status != b.status]
    assert not moved
    assert {"in", "out"} <= {res.status for res in ours[first_random:]}
    for a, b in zip(our_points, their_points):
        assert len(a) == 17 and np.array_equal(a, b)


@pytest.mark.parametrize("bad", [{"grid_step": 0}, {"grid_step": -0.1},
                                 {"grid_step": float("nan")}, {"grid_step": float("inf")},
                                 {"descent_iters": -1}, {"descent_iters": 1.5},
                                 {"descent_iters": True}])
def test_tuncel_options_refuse_bad_values(bad):
    """A zero, negative or non-finite grid step and a negative or non-integer
    Newton cap are refused by name; they raised ZeroDivisionError,
    UnboundLocalError or a float conversion error, or silently scanned the
    simplex corners only."""
    (field, value), = bad.items()
    with pytest.raises(ValueError, match=field):
        TuncelOptions(**bad)


def _reference_units(M: int, F: int, grid_step: float) -> int:
    """The grid resolution as the dual chose it before its search started
    from _GRID_CELLS // F: one unit at a time down from 1 / grid_step."""
    units = max(1, round(1.0 / grid_step))
    while units > 1 and F * math.comb(units + M - 1, M - 1) > _GRID_CELLS:
        units -= 1
    return units


@pytest.mark.parametrize("M", [2, 3, 4, 5])
@pytest.mark.parametrize("grid_step", [2.0, 0.5, 0.25, 0.05, 0.01, 1e-3, 1e-4])
def test_tuncel_grid_unchanged_for_valid_steps(M, grid_step):
    """Starting the coarsening at _GRID_CELLS // F gives the grid that the
    unit-by-unit search from 1 / grid_step gave."""
    rng = np.random.default_rng(M)
    Q = [[rng.dirichlet(np.ones(3))] for _ in range(M)]
    dual = _TuncelDual(Q, np.array([1.0]), TuncelOptions(grid_step=grid_step))
    units = _reference_units(M, len(dual.assign), grid_step)
    assert np.array_equal(dual.grid, _simplex_grid(M, 1.0 / units))


def test_tuncel_fine_grid_step_finishes():
    """A step of 1e-9 no longer counts down from 10^9 units: the grid is the
    coarsened one of a 1e-4 step, built in well under the two minutes the
    step took before."""
    Q = [[np.array([0.2, 0.8])], [np.array([0.5, 0.5])], [np.array([0.7, 0.3])]]
    start = time.perf_counter()
    fine = _TuncelDual(Q, np.array([1.0]), TuncelOptions(grid_step=1e-9))
    assert time.perf_counter() - start < 20
    coarse = _TuncelDual(Q, np.array([1.0]), TuncelOptions(grid_step=1e-4))
    assert np.array_equal(fine.grid, coarse.grid)
    assert len(fine.assign) * len(fine.grid) <= _GRID_CELLS


@pytest.mark.parametrize("grid_step, iters", [(0.5, 1), (0.5, 2), (0.1, 1)])
def test_tuncel_stacked_bounds_criterion3(example, c3_tuples, grid_step, iters):
    """Criterion 3's 1000 queries and their first 100 again, in one stack,
    match one reference_bounds call each bit for bit. The stack holds "in",
    "out" and unresolved verdicts, and the Newton cap binds for some
    targets and not for others (one more step changes some of them)."""
    Q = source_marginals(example[0].model)
    beta = np.array([0.5, 0.5])
    E = np.array(c3_tuples + c3_tuples[:100])
    dual = _TuncelDual(Q, beta, TuncelOptions(grid_step=grid_step, descent_iters=iters))
    stacked = dual.bounds(E)
    refs = [reference_bounds(dual, e) for e in E]
    for k, ref in enumerate(refs):
        _same_bounds(stacked, k, ref)
    lower, upper, _ = stacked
    status = np.where(lower >= 0, "in", np.where(upper < -1e-9, "out", "unresolved"))
    assert {"in", "out", "unresolved"} <= set(status.tolist())
    longer = _TuncelDual(Q, beta, TuncelOptions(grid_step=grid_step, descent_iters=iters + 1))
    moved = [reference_bounds(longer, e)[:2] != ref[:2] for e, ref in zip(E, refs)]
    assert any(moved) and not all(moved)


def test_tuncel_witness_attains_upper():
    """The witness is the tilt whose slack is upper. The one-target bounds
    kept a view of its grid row, and on this two-hypothesis model a later
    Newton step on that row left a witness of slack 0.154 against an upper
    of 0.066."""
    Q = [[q / q.sum()] for q in (np.array([0.338, 0.004, 0.101, 0.558]),
                                 np.array([0.34, 0.146, 0.071, 0.442]))]
    beta, e = np.array([1.0]), np.array([[0.0, 0.0204], [0.113, 0.0]])
    dual = _TuncelDual(Q, beta, TuncelOptions(grid_step=0.5, descent_iters=3))
    for lower, upper, witness in (dual.bounds(e), reference_bounds(dual, e)):
        assert lower <= upper
        assert abs(upper - _tuncel_objective(list(witness), Q, beta, e)[0]) <= 1e-12


_SLICE_CASES = [({2: 0.3}, 17), ({2: 0.3}, 2), ({0: 0.1}, 5), ({0: 0.1}, 1),
                ({1: 0.2}, 2), ({1: 0.2}, 17), ({2: 5.0}, 17), ({2: 5.0}, 1)]


@pytest.mark.parametrize("case", range(len(_SLICE_CASES)))
def test_tuncel_slice_matches_sequential_reference(example, monkeypatch, case):
    """The speculative slice returns the sequential bisection's points bit
    for bit, at e0, e1 and e2 fixed (e2 = 5 leaves the slice empty), both
    proportions, default and coarse options and 1 to 17 samples, in one
    dual call per _SPECULATE levels of every search at once."""
    fixed, samples = _SLICE_CASES[case]
    beta = [np.array([0.5, 0.5]), np.array([0.2, 0.8])][case % 2]
    options = [None, TuncelOptions(grid_step=0.25, descent_starts=2, descent_iters=10)][case // 2 % 2]
    model = example[0].model
    ref = reference_tuncel_slice(model, beta, fixed, samples, options)
    calls = []
    stacked = _TuncelDual.bounds
    monkeypatch.setattr(_TuncelDual, "bounds", lambda dual, e: calls.append(e) or stacked(dual, e))
    got = tuncel_slice(model, beta, fixed, samples, options)
    assert got.axes == ref.axes
    assert got.points.shape == ref.points.shape and got.points.tobytes() == ref.points.tobytes()
    per_search = -(-_BISECT_STEPS // _SPECULATE)
    assert len(calls) == (1 if len(ref.points) == 0 else 2 * per_search)


# -------------------------------------------------------------------- slices

def test_slice_binary_rectangle():
    inst = make_instance(2, 2, (3, 3), pmf_rows=[[P01, P02], [P11, P12]])
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    region = compute_region(table, poly)
    sl = individual_hypothesis_region_slice(region)
    assert sl.axes == (0, 1)
    x = max(table.table[1, 0, 1, 0], table.table[2, 0, 1, 0])
    y = max(table.table[1, 0, 0, 1], table.table[2, 0, 0, 1])
    assert np.allclose(sl.points[2], [x, y], atol=1e-9)


def test_slice_degenerate_region():
    inst = make_instance(3, 1, (3,), pmf_rows=[[P01], [P01], [P01]])
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    region = compute_region(table, poly)
    sl = individual_hypothesis_region_slice(region, {2: 0.0})
    assert sl.points.shape[0] == 1
    assert np.allclose(sl.points, 0.0)


def test_slice_unsupported_dimension(example):
    _, table, poly = example
    region = compute_region(table, poly)
    with pytest.raises(UnsupportedDimension):
        individual_hypothesis_region_slice(region, {0: 0.1, 1: 0.2})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["region_slice", "nonadaptive_slice", "tuncel_slice",
                                   "membership", "nonadaptive_membership",
                                   "tuncel_membership"])
def test_non_finite_exponents_refused(example, entry, bad):
    """A non-finite fixed value or exponent entry raises ValueError with no
    numpy warning. Unchecked, nan clipped nothing from the adaptive slice,
    inf emptied the fixed-length slice with warnings, the shared-frequency
    LP failed inside the simplex and the fixed-length verdict had lower=nan."""
    inst, table, poly = example
    beta = np.array([0.5, 0.5])
    e = np.full((3, 3), 0.1)
    np.fill_diagonal(e, 0.0)
    e[0, 1] = bad
    call = {
        "region_slice": lambda: individual_hypothesis_region_slice(
            compute_region(table, poly), {2: bad}),
        "nonadaptive_slice": lambda: nonadaptive_slice(table, poly, {2: bad}),
        "tuncel_slice": lambda: tuncel_slice(inst.model, beta, {2: bad}),
        "membership": lambda: compute_region(table, poly).contains(e),
        "nonadaptive_membership": lambda: nonadaptive_membership(e, table, poly),
        "tuncel_membership": lambda: tuncel_membership(e, inst.model, beta)}[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("value", [-0.5, -1e308])
@pytest.mark.parametrize("entry", ["region_slice", "nonadaptive_slice", "tuncel_slice"])
def test_negative_fixed_value_refused(example, entry, value):
    """An error exponent is >= 0: a negative fixed value raises ValueError
    with no numpy warning. At -1e308 the slice LP overflowed, and at -0.5
    the non-adaptive and fixed-length slices differed from those at 0."""
    inst, table, poly = example
    call = {
        "region_slice": lambda: individual_hypothesis_region_slice(
            compute_region(table, poly), {2: value}),
        "nonadaptive_slice": lambda: nonadaptive_slice(table, poly, {2: value}),
        "tuncel_slice": lambda: tuncel_slice(inst.model, np.array([0.5, 0.5]), {2: value})}[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=">= 0"):
            call()


def test_slice_adaptive_encloses_nonadaptive(example):
    inst, table, poly = example
    region = compute_region(table, poly)
    v = 0.3
    ad = individual_hypothesis_region_slice(region, {2: v})
    na = nonadaptive_slice(table, poly, {2: v})
    assert len(ad.points) >= 3 and len(na.points) >= 2

    def poly_max_y(points, x):
        # staircase/polygon upper boundary lookup by linear scan
        best = 0.0
        pts = points
        for p, q in zip(pts, pts[1:]):
            lo, hi = sorted((p[0], q[0]))
            if lo - 1e-9 <= x <= hi + 1e-9:
                if abs(q[0] - p[0]) < 1e-12:
                    best = max(best, p[1], q[1])
                else:
                    t = (x - p[0]) / (q[0] - p[0])
                    best = max(best, p[1] + t * (q[1] - p[1]))
        return best

    for x in np.linspace(0, min(ad.points[:, 0].max(), na.points[:, 0].max()), 7):
        assert poly_max_y(ad.points, x) >= poly_max_y(na.points, x) - 1e-6


@pytest.mark.parametrize("name", ["example", "budgeted", "two_sets"])
def test_nonadaptive_slice_exact(example_instance, name):
    """At e2 in {0, 0.1, 0.3, above its maximum}, and at 97% of the maximum,
    where e2 binds, the slice is empty exactly when HiGHS finds no shared
    frequency; otherwise its support function equals HiGHS's and it contains
    every point of the grid staircase. A non-finite e2 is refused."""
    ex = example_instance
    inst, step = {
        "example": (ex, 0.02),
        "budgeted": (Instance(ex.model, ex.avail, ex.actions,
                              BudgetSpec(np.array([[1.0, 1.0]]), np.array([0.8]))), 0.02),
        # C(10 + 3, 3)^2 grid points at step 0.1; at 0.02 there would be 5e8.
        "two_sets": (two_set_instance([1, 1]), 0.1)}[name]
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    rows_2 = np.stack([table.pair_matrix(m, 2).reshape(-1) for m in (0, 1)])
    top = oracle_max_margin(np.zeros(2), rows_2, inst)
    with pytest.raises(ValueError, match="finite"):
        nonadaptive_slice(table, poly, {2: np.inf})
    rng = np.random.default_rng(29)
    for v in (0.0, 0.1, 0.3, 0.97 * top, top + 0.05):
        pts = nonadaptive_slice(table, poly, {2: v}).points
        assert (len(pts) == 0) == (oracle_slice_support(inst, table, 2, v, None) is None)
        assert len(pts) or v > top
        if not len(pts):
            continue
        for w in rng.normal(size=(50, 2)):
            want = oracle_slice_support(inst, table, 2, v, w)
            assert abs(float(np.max(pts @ w)) - want) <= 1e-9 * (1 + abs(want))
        grid = reference_nonadaptive_slice(inst, table, 2, v, step)
        assert len(grid)
        # Inside the CCW polygon: on the left of (or on) every edge.
        for p, q in zip(pts, np.roll(pts, -1, axis=0)):
            cross = (q[0] - p[0]) * (grid[:, 1] - p[1]) - (q[1] - p[1]) * (grid[:, 0] - p[0])
            assert np.all(cross >= -1e-9)


# ------------------------------------------------------------ region properties

def test_region_convexity_midpoints(example):
    _, table, poly = example
    region = compute_region(table, poly)
    rng = np.random.default_rng(17)
    found = 0
    for _ in range(200):
        es = []
        for _ in range(2):
            e = np.zeros((3, 3))
            for m in range(3):
                sub = region.per_m[m]
                e[m, list(sub.thetas)] = rng.uniform(0, 1, size=2) * sub.coord_max
            if region.contains(e):
                es.append(e)
        if len(es) == 2:
            found += 1
            assert region.contains(0.5 * (es[0] + es[1]), tol=1e-7)
    assert found > 20


def test_budget_shrinks_region():
    inst = make_instance(3, 2, (3, 3), pmf_rows=[[P01, P02], [P11, P12], [P21, P22]])
    budgets = BudgetSpec(np.array([[1.0, 1.0]]), np.array([0.6]))
    cut = Instance(inst.model, inst.avail, inst.actions, budgets)
    table = build_instance_table(inst)
    r_free = compute_region(table, build_polytope(inst.avail, inst.actions, inst.budgets))
    r_cut = compute_region(table, build_polytope(cut.avail, cut.actions, cut.budgets))
    rng = np.random.default_rng(23)
    for _ in range(200):
        e = np.zeros((3, 3))
        for m in range(3):
            sub = r_free.per_m[m]
            e[m, list(sub.thetas)] = rng.uniform(0, 1, size=2) * sub.coord_max
        if r_cut.contains(e):
            assert r_free.contains(e, tol=1e-7)


# ------------------------------------------------- tolerance dedup and Pareto

# Reference oracles, written apart from _unique_rows: the greedy row dedup
# and the facet rows' duplicate check.

def greedy_unique(points, tol):
    uniq = []
    for p in points:
        if all(np.max(np.abs(p - u)) > tol for u in uniq):
            uniq.append(p)
    return np.array(uniq).reshape(-1, points.shape[1])


def greedy_dedup_facets(facets):
    out = []
    for n, b in facets:
        if all(max(abs(a - c) for a, c in zip(n, n2)) > 1e-9 or abs(b - b2) > 1e-9
               for n2, b2 in out):
            out.append((n, b))
    return out


@st.composite
def planted_rows(draw, dims=(1, 2, 3, 5), tols=(1e-12, 1e-9)):
    """Copies of a few base rows on a coarse grid (so coordinates tie), each
    coordinate shifted by 0, +-tol/2, +-tol or +-2 tol."""
    d = draw(st.sampled_from(dims))
    tol = draw(st.sampled_from(tols))
    coord = st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0])
    base = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=6))
    shift = st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]),
                     min_size=d, max_size=d)
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), shift), max_size=40))
    rows = [np.array(base[i]) + tol * np.array(s) for i, s in picks]
    return np.array(rows, dtype=float).reshape(-1, d), tol


@settings(max_examples=300, deadline=None)
@given(planted_rows())
def test_unique_rows_matches_greedy(case):
    points, tol = case
    got = _unique_rows(points, tol)
    assert got.shape[1] == points.shape[1]
    assert np.array_equal(got, greedy_unique(points, tol))


@settings(max_examples=300, deadline=None)
@given(planted_rows(dims=(2,)))
@hypothesis.example(case=(np.array([[0.250000001, 0.0], [0.25, 0.25], [0.2500000005, 0.2499999995],
                         [0.2500000005, 0.25]]), 1e-9))  # first-found ties would dent the front
def test_staircase_2d_matches_reference(case):
    """On clusters of nearly equal corners (clipped at 0, as corners are),
    vertices and boundary have the support function of the closure-hull
    within 3e-12: the 1e-12 dedup moves it by up to sqrt(2) * 1e-12 along a
    unit direction, and the search misses only points within 1e-12 of the
    front. No facet cuts off a corner by more than that, and each edge of
    the front faces up and right (a dominated axis maximiser would add an
    axis-parallel one). The replaced staircase drops points up to
    1e-12 / (chord length) beyond a chord, which on these clusters came to
    1.4e-9 in 30,000 examples, so it is held to 1e-8."""
    points = np.maximum(case[0], 0.0)
    if not len(points):
        return
    facets, verts, boundary = _staircase_2d(points)
    _, ref_verts, ref_boundary = reference_staircase_2d(points)
    w = np.random.default_rng(31).normal(size=(2, 50))
    w /= np.linalg.norm(w, axis=0)
    closure = np.vstack([points, np.zeros(2), [points[:, 0].max(), 0.0],
                         [0.0, points[:, 1].max()]])
    exact = np.max(closure @ w, axis=0)
    for got, want in ((verts, ref_verts), (boundary, ref_boundary)):
        assert np.allclose(np.max(got @ w, axis=0), exact, rtol=0, atol=3e-12)
        assert np.allclose(np.max(got @ w, axis=0), np.max(want @ w, axis=0), rtol=0, atol=1e-8)
    assert max(float(np.max(points @ n)) - b for n, b in facets) <= 3e-12
    assert all(n[0] > 0 and n[1] > 0 for n, _ in facets[4:])


@settings(max_examples=200, deadline=None)
@given(planted_rows(dims=(3, 4), tols=(1e-9,)))
def test_facet_rows_dedup_matches_greedy(case):
    rows, _ = case
    facets = [(tuple(r[:-1]), r[-1]) for r in rows]
    want = [n + (b,) for n, b in greedy_dedup_facets(facets)]
    assert _unique_rows(rows, 1e-9).tolist() == [list(r) for r in want]


def test_unique_rows_long_duplicate_runs():
    # Long clusters of near-repeats, in shuffled order.
    rng = np.random.default_rng(5)
    base = rng.integers(0, 3, size=(12, 4)).astype(float)
    points = base[rng.integers(0, 12, size=400)]
    points = points + 1e-9 * rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], size=points.shape)
    assert np.array_equal(_unique_rows(points, 1e-9), greedy_unique(points, 1e-9))


def test_hull_fallback_on_flat_corner_cloud():
    # Hypotheses 0 and 1 coincide, so every corner of declared 0 has a zero
    # coordinate against truth 1 and qhull rejects the flat cloud.
    inst = flat_corner_instance()
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    sub = region_polytope(table, poly, 0)
    assert sub.facets is None
    assert np.all(sub.corners[:, 0] == 0.0)
    rng = np.random.default_rng(3)
    probes = rng.uniform(0, 1.2, size=(60, 3)) * np.maximum(sub.coord_max, 1e-3)
    probes[:20, 0] = 0.0
    verdicts = [sub.contains(e) for e in probes]
    assert verdicts == [_corner_lp_contains(sub.corners, e) for e in probes]
    assert any(verdicts) and not all(verdicts)
    assert region_polytope(table, poly, 2).facets is not None
