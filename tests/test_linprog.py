import itertools
from unittest import mock

import hypothesis
import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_lp

import aseq.linprog as linprog
import aseq.region as region
from aseq.divergence import build_instance_table
from aseq.errors import DimensionMismatch
from aseq.linprog import solve_lp
from aseq.model import Instance
from aseq.modelio import instance_from_dict
from aseq.region import build_polytope, decision_risk_exponents, nonadaptive_feasibility
from conftest import reference_solve_lp, reference_tableau_simplex, two_set_instance


def test_simple_max():
    # max x+y s.t. x+2y <= 4, 3x+y <= 6
    res = solve_lp(np.array([1.0, 1.0]), A_ub=np.array([[1, 2], [3, 1.0]]),
                   b_ub=np.array([4.0, 6.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.8, abs=1e-9)


def test_equality_problem():
    # max t s.t. x0+x1 = 1, t <= 2 x0 + x1 -> t = max at x0=1
    c = np.array([0.0, 0.0, 1.0])
    A_eq = np.array([[1.0, 1.0, 0.0]])
    A_ub = np.array([[-2.0, -1.0, 1.0]])
    res = solve_lp(c, A_eq, np.array([1.0]), A_ub, np.array([0.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0, abs=1e-9)


def test_infeasible_with_certificate():
    # x >= 0, x0 + x1 = 1, x0 + x1 <= 0.5
    A_eq = np.array([[1.0, 1.0]])
    A_ub = np.array([[1.0, 1.0]])
    res = solve_lp(np.zeros(2), A_eq, np.array([1.0]), A_ub, np.array([0.5]))
    assert res.status == "infeasible"
    y_eq, y_ub = res.farkas_eq, res.farkas_ub
    assert np.all(y_ub <= 1e-9)
    combo = y_eq @ A_eq + y_ub @ A_ub
    assert np.all(combo <= 1e-9)
    assert y_eq @ np.array([1.0]) + y_ub @ np.array([0.5]) > 1e-9


def test_unbounded():
    res = solve_lp(np.array([1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))
    assert res.status == "unbounded"


def test_degenerate_redundant_rows():
    # duplicated equality rows must not break phase 2
    A_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = solve_lp(np.array([1.0, 0.0]), A_eq, np.array([1.0, 1.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_redundant_row_of_moved_artificial():
    # Phase 1 leaves row 0's artificial basic at position 3 on a zero tableau
    # row; dropping constraint row 3 instead of row 0 left a singular basis.
    c, A_eq, b_eq = np.full(4, -2.0), np.array([[-2.0, 1, -2, -2], [-2, 0, -2, -2],
                                                 [-2, 1, -2, -2]]), np.full(3, -2.0)
    A_ub, b_ub = np.full((2, 4), -2.0), np.full(2, -2.0)
    res = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
    ref = scipy_lp(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, method="highs")
    assert res.status == "optimal" and ref.status == 0
    assert res.objective == pytest.approx(-ref.fun, abs=1e-9)
    assert np.allclose(A_eq @ res.x, b_eq) and np.all(A_ub @ res.x <= b_ub + 1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m_ub = int(rng.integers(1, 5))
    m_eq = int(rng.integers(0, 3))
    c = rng.normal(size=n)
    A_ub = rng.normal(size=(m_ub, n))
    b_ub = rng.uniform(0.5, 2.0, size=m_ub)
    A_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    # make equalities consistent with a nonnegative point
    x0 = rng.uniform(0.0, 1.0, size=n)
    b_eq = A_eq @ x0 if m_eq else None
    b_ub = np.maximum(b_ub, A_ub @ x0)  # keep x0 feasible
    mine = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
    ref = scipy_lp(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   bounds=[(0, None)] * n, method="highs")
    if ref.status == 3:
        assert mine.status == "unbounded"
    else:
        assert ref.status == 0
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(-ref.fun, abs=1e-7)


@pytest.mark.parametrize("args", [
    # A (2, 6) A_ub on 3 variables used to be read as (4, 3).
    dict(c=np.ones(3), A_ub=np.ones((2, 6)), b_ub=np.ones(4)),
    # Right-hand sides one entry short and one long used to be realigned.
    dict(c=np.ones(2), A_eq=np.ones((2, 2)), b_eq=np.ones(1),
         A_ub=np.ones((1, 2)), b_ub=np.ones(2)),
    dict(c=np.ones(2), A_ub=np.ones((1, 2)), b_ub=np.ones(2)),
    dict(c=np.ones((1, 2)), A_ub=np.ones((1, 2)), b_ub=np.ones(1)),
    dict(c=np.ones(2), A_eq=np.ones(2), b_eq=np.ones(1)),
    dict(c=np.ones(2), A_eq=np.ones((1, 2)), b_eq=None),
    dict(c=np.ones(2), A_ub=None, b_ub=np.ones(1)),
    dict(c=np.ones(2), A_ub=np.ones((1, 2)), b_ub=np.ones((1, 1))),
], ids=["ub-columns", "eq-rhs-short", "ub-rhs-long", "c-2d", "eq-1d", "eq-no-rhs",
        "ub-no-matrix", "ub-rhs-2d"])
def test_shape_mismatch_raises(args):
    with pytest.raises(DimensionMismatch):
        solve_lp(**args)


# ---------------------------------------------- the kernel against its oracle

def assert_same_result(mine, ref):
    """Equal bit for bit: status, x, objective and Farkas vectors."""
    assert mine.status == ref.status
    for field in ("x", "objective", "farkas_eq", "farkas_ub"):
        a, b = getattr(mine, field), getattr(ref, field)
        assert (a is None) == (b is None), field
        if a is not None:
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


SMALL_INTS = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])


@st.composite
def lp_problems(draw):
    """(c, A_eq, b_eq, A_ub, b_ub): dense normal entries from a drawn seed, or
    small integers with zero objectives and repeated rows, which make
    degenerate pivots, redundant equalities, infeasible and unbounded LPs."""
    n, m_eq, m_ub = draw(st.integers(1, 6)), draw(st.integers(0, 3)), draw(st.integers(0, 4))
    shapes = ((n,), (m_eq, n), (m_eq,), (m_ub, n), (m_ub,))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return tuple(rng.normal(size=s) for s in shapes)
    c, A_eq, b_eq, A_ub, b_ub = (draw(hnp.arrays(float, s, elements=SMALL_INTS))
                                 for s in shapes)
    if draw(st.booleans()):
        c = np.zeros(n)
    if m_eq and draw(st.booleans()):
        A_eq, b_eq = np.vstack([A_eq, A_eq[:1]]), np.append(b_eq, b_eq[0])
    if m_ub and draw(st.booleans()):
        A_ub, b_ub = np.vstack([A_ub, A_ub[-1:]]), np.append(b_ub, b_ub[-1])
    return c, A_eq, b_eq, A_ub, b_ub


@settings(max_examples=400, deadline=None)
@given(lp_problems())
@hypothesis.example((np.array([1.0, 0.0]), np.ones((2, 2)), np.ones(2),
                     np.zeros((0, 2)), np.zeros(0)))
@hypothesis.example((np.zeros(2), np.ones((1, 2)), np.ones(1), np.ones((1, 2)), np.array([0.5])))
@hypothesis.example((np.ones(1), np.zeros((0, 1)), np.zeros(0), -np.ones((1, 1)), np.zeros(1)))
@hypothesis.example((np.ones(2), np.zeros((1, 2)), np.zeros(1), np.zeros((0, 2)), np.zeros(0)))
# An artificial left basic at level 0 after phase 1: which column replaces it
# decides phase 2's path.
@hypothesis.example((np.full(5, -2.0),
                     np.array([[-1.0, -1, 0, 1, -1], [-2, -1, 1, -1, -1], [-1, -1, -1, -1, -1]]),
                     np.array([0.0, 1, -1]), np.full((1, 5), -2.0), np.array([-1.0])))
# An artificial basic at another row's position after phase 1 whose tableau
# row is zero: its own constraint row, not the position's, is redundant.
@hypothesis.example((np.full(4, -2.0),
                     np.array([[-2.0, 1, -2, -2], [-2, 0, -2, -2], [-2, 1, -2, -2]]),
                     np.full(3, -2.0), np.full((2, 4), -2.0), np.full(2, -2.0)))
def test_matches_reference_kernel(problem):
    assert_same_result(solve_lp(*problem), reference_solve_lp(*problem))


def test_risk_exponents_match_reference_kernel(monkeypatch):
    # This model's max-min LPs have alternate optima, so a kernel that pivots
    # differently (Dantzig pricing, say) returns another maximiser.
    inst = two_set_instance([1, 1])
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    gamma, argmax = decision_risk_exponents(table, poly)
    monkeypatch.setattr(region, "solve_lp", reference_solve_lp)
    ref_gamma, ref_argmax = decision_risk_exponents(table, poly)
    assert gamma.tobytes() == ref_gamma.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(argmax, ref_argmax, strict=True))


def kernel_inputs(run) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The (T, basis, cost) that ``run()`` passes to the simplex kernel in
    each call, copied before the call changes them."""
    calls = []
    kernel = linprog._bland_simplex

    def capture(T, basis, cost):
        calls.append((T.copy(), basis.copy(), cost.copy()))
        return kernel(T, basis, cost)

    with mock.patch.object(linprog, "_bland_simplex", capture):
        run()
    return calls


def kernel_outcome(kernel, T, basis, cost) -> tuple[str, bytes, bytes]:
    """Status (or a ValueError's class name), basis and tableau bytes that
    ``kernel`` leaves on copies of T and basis."""
    T, basis = T.copy(), basis.copy()
    try:
        status = kernel(T, basis, cost)
    except ValueError as exc:
        status = type(exc).__name__
    return status, basis.tobytes(), T.tobytes()


def assert_same_pivots(calls) -> None:
    assert calls
    for T, basis, cost in calls:
        assert (kernel_outcome(linprog._bland_simplex, T, basis, cost)
                == kernel_outcome(reference_tableau_simplex, T, basis, cost))


@settings(max_examples=300, deadline=None)
@given(lp_problems())
@hypothesis.example((np.array([1.0, 0.0]), np.ones((2, 2)), np.ones(2),
                     np.zeros((0, 2)), np.zeros(0)))
@hypothesis.example((np.full(5, -2.0),
                     np.array([[-1.0, -1, 0, 1, -1], [-2, -1, 1, -1, -1], [-1, -1, -1, -1, -1]]),
                     np.array([0.0, 1, -1]), np.full((1, 5), -2.0), np.array([-1.0])))
def test_pivots_match_reference_tableau_kernel(problem):
    """Both phases' kernel calls, with their ties, degenerate pivots and
    repeated rows, pivot as the numpy kernel did, to the tableau's bytes."""
    hypothesis.assume(problem[1].shape[0] + problem[3].shape[0] > 0)  # no rows, no kernel
    assert_same_pivots(kernel_inputs(lambda: solve_lp(*problem)))


def test_overflowing_lp_raises_as_reference_tableau_kernel():
    """Finite entries far apart in scale overflow the tableau to nan in phase
    1. The numpy kernel raised ValueError at its ratio test there, and so does
    the kernel, where skipping the nan row would have called the LP optimal."""
    c = np.array([-0.13676066155368607, -0.5660619104484755, -0.4807114691267835,
                  1.121440716435157])
    A_ub = np.array([[6.679983152472919e+254, -1.8626307079662986e+176,
                      3.3955676109815215e+158, -8.886257092770587e+228],
                     [3.1099663681276866e+252, 5.1330353508684666e+135,
                      9.123195385949173e-35, 6.561309462292073e+254],
                     [1.4837691073890149e+141, 2.543522329827279e+266,
                      -6.277741699652948e+62, -2.056119707123337e+204]])
    b_ub = np.array([-2.0333373147886493e-164, 8.667981017354717e-86, 1.559531628210368e+90])

    def run():
        with pytest.raises(ValueError, match="overflow"):
            solve_lp(c, A_ub=A_ub, b_ub=b_ub)

    with np.errstate(all="ignore"):
        calls = kernel_inputs(run)
        assert_same_pivots(calls)
        assert kernel_outcome(linprog._bland_simplex, *calls[-1])[0] == "ValueError"


def region_model_a(rng) -> Instance:
    """Shaped like the benchmark's region model (a): M = 3, four binary
    sources, all 15 nonempty actions, sources {1..4} available with
    probability 0.6 and otherwise {1, 2}, and one budget."""
    sources = range(1, 5)
    return instance_from_dict({
        "M": 3, "n": 4, "alphabets": [2] * 4,
        "hypotheses": [{"independent": [[p, 1.0 - p] for p in rng.uniform(0.15, 0.85, 4)]}
                       for _ in range(3)],
        "availability": [{"subset": list(sources), "prob": 0.6}, {"subset": [1, 2], "prob": 0.4}],
        "actions": [list(s) for r in sources for s in itertools.combinations(sources, r)],
        "budgets": [{"coeff": [1.0] * 4, "rate": 1.5}]})


def straddling_queries(rng, table, poly) -> list[np.ndarray]:
    """Eight exponent tuples t * D along one random direction D, with t drawn
    from 0.8 to 1.2 times the largest achievable, so they straddle the
    non-adaptive region's boundary."""
    pairs, rows = table.pair_rows()
    D = rng.uniform(0.2, 1.0, size=(3, 3))
    np.fill_diagonal(D, 0.0)
    # Largest t with t * D achievable, by HiGHS.
    targets = np.array([D[m, t] for m, t in pairs])
    res = scipy_lp(np.append(np.zeros(poly.dim), -1.0),
                   A_eq=np.hstack([poly.eq_matrix, np.zeros((len(poly.eq_rhs), 1))]),
                   b_eq=poly.eq_rhs,
                   A_ub=np.vstack([np.hstack([poly.budget_matrix, [[0.0]]]),
                                   np.hstack([-rows, targets[:, None]])]),
                   b_ub=np.append(poly.budget_rhs, np.zeros(len(pairs))),
                   bounds=[(0, None)] * (poly.dim + 1), method="highs")
    return [u * -res.fun * D for u in rng.uniform(0.8, 1.2, size=8)]


@pytest.fixture(scope="module")
def model_a():
    inst = region_model_a(np.random.default_rng(13))
    return build_instance_table(inst), build_polytope(inst.avail, inst.actions, inst.budgets)


def test_nonadaptive_queries_match_reference_kernel(monkeypatch):
    rng = np.random.default_rng(13)
    inst = region_model_a(rng)
    table = build_instance_table(inst)
    poly = build_polytope(inst.avail, inst.actions, inst.budgets)
    queries = [e for _ in range(40) for e in straddling_queries(rng, table, poly)]
    mine = [nonadaptive_feasibility(e, table, poly) for e in queries]
    monkeypatch.setattr(region, "solve_lp", reference_solve_lp)
    for e, got in zip(queries, mine):
        assert_same_result(got, nonadaptive_feasibility(e, table, poly))
    statuses = [r.status for r in mine]
    assert 50 < statuses.count("optimal") < 270, statuses.count("optimal")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_query_pivots_match_reference_tableau_kernel(model_a, seed):
    """Model (a)'s query LPs, 32 frequencies and about 24 pivots each, pivot
    as the numpy kernel did, to the tableau's bytes."""
    table, poly = model_a
    queries = straddling_queries(np.random.default_rng(seed), table, poly)
    assert_same_pivots(kernel_inputs(
        lambda: [nonadaptive_feasibility(e, table, poly) for e in queries]))


def test_zero_objective_runs_phase_one_only(monkeypatch):
    """A feasibility query stops after phase 1: a zero cost row has no
    improving column, so phase 2 could not pivot. A nonzero objective runs
    both phases."""
    calls = []
    simplex = linprog._bland_simplex

    def counted(*args):
        calls.append(args)
        return simplex(*args)

    monkeypatch.setattr(linprog, "_bland_simplex", counted)
    rng = np.random.default_rng(5)
    for _ in range(20):
        A_eq, A_ub = rng.normal(size=(2, 5)), rng.normal(size=(3, 5))
        x = rng.uniform(0.1, 1.0, size=5)  # a feasible point
        b_eq, b_ub = A_eq @ x, A_ub @ x + 0.1
        calls.clear()
        assert solve_lp(np.zeros(5), A_eq, b_eq, A_ub, b_ub).status == "optimal"
        assert len(calls) == 1
        calls.clear()
        solve_lp(rng.normal(size=5), A_eq, b_eq, A_ub, b_ub)
        assert len(calls) == 2
