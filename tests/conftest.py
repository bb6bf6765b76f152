import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import add
from pathlib import Path

import numpy as np
import pytest

from aseq.divergence import DivergenceTable, exponent, kl
from aseq.errors import (InfeasiblePolytope, InvalidBeta, NoExplorationPossible,
                         UnsupportedDimension)
from aseq.linprog import _TOL, LpResult
from aseq.model import (ActionSpace, AvailabilityDist, BudgetSpec, Instance,
                        JointModel, in_constraint_set, omega, selection_matrix)
from aseq.modelio import instance_from_dict, load_instance
from aseq.policy import (ExplorationPlan, TestParams, _square, choose_exploration_rate,
                         offset_correction, solve_drift_margin)
from aseq.region import (VERTEX_TOL, SlicePolyline, TuncelOptions, _dual_for, _simplex_grid,
                         _slice_axes, _unique_rows)

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="session")
def example_instance() -> Instance:
    return load_instance(MODEL_DIR / "chernoff3x2.json")


def two_set_instance(coeff) -> Instance:
    """The example's sources with source 2 missing 30% of the time, action
    {1, 2} allowed and one budget of rate 1.2 with the given coefficients."""
    d = json.loads((MODEL_DIR / "chernoff3x2.json").read_text())
    d.update(availability=[{"subset": [1, 2], "prob": 0.7}, {"subset": [1], "prob": 0.3}],
             actions=[[1], [2], [1, 2]], budgets=[{"coeff": coeff, "rate": 1.2}])
    return instance_from_dict(d)


def four_hypothesis_instance() -> Instance:
    """The example's three hypotheses, its actions and its one availability
    set, plus a fourth hypothesis ([0.3, 0.3, 0.4], [0.5, 0.25, 0.25])."""
    return make_instance(4, 2, (3, 3), pmf_rows=[
        [[0.9, 0.07, 0.03], [0.78, 0.17, 0.05]], [[0.12, 0.83, 0.05], [0.04, 0.79, 0.17]],
        [[0.05, 0.1, 0.85], [0.15, 0.05, 0.8]], [[0.3, 0.3, 0.4], [0.5, 0.25, 0.25]]])


def flat_corner_instance() -> Instance:
    """The example's three hypotheses with hypothesis 0 doubled, so that
    hypotheses 0 and 1 coincide: every corner of declared 0 has a zero
    coordinate against truth 1, and qhull rejects the flat cloud."""
    return make_instance(4, 2, (3, 3), pmf_rows=[
        [[0.9, 0.07, 0.03], [0.78, 0.17, 0.05]], [[0.9, 0.07, 0.03], [0.78, 0.17, 0.05]],
        [[0.12, 0.83, 0.05], [0.04, 0.79, 0.17]], [[0.05, 0.1, 0.85], [0.15, 0.05, 0.8]]])


def reference_trial_seed(master: int, truth: int, T: float, index: int) -> np.random.Generator:
    """The per-trial seeding that ``sim._seed_words`` replaced: one
    SeedSequence and one PCG64 per trial."""
    t_bits = int(np.float64(T).view(np.uint64))
    ss = np.random.SeedSequence((master, truth, t_bits, index))
    return np.random.Generator(np.random.PCG64(ss))


def reference_exploration_plan(avail: AvailabilityDist, actions: ActionSpace,
                               budgets: BudgetSpec, table) -> ExplorationPlan:
    """The exploration plan as ``policy.choose_exploration_rate`` derived it
    before it read the selection matrix: set intersections per action, budget
    and availability set, and ``omega`` at all-ones frequencies."""
    n = budgets.coeffs.shape[1] if budgets.size else 1
    support = []
    for ai, a in enumerate(actions.actions):
        if not a:
            continue
        pruned = False
        for i in range(budgets.size):
            if budgets.rates[i] > 0:
                continue
            costed = {j + 1 for j in range(n) if budgets.coeffs[i, j] > 0}
            if any(set(a) & set(z) & costed for z in avail.sets):
                pruned = True
                break
        if not pruned:
            support.append(ai)

    M = table.M
    for t in range(M):
        for m in range(M):
            if m == t:
                continue
            if not any(table.table[ai, zi, m, t] > 1e-12
                       for ai in support for zi in range(len(avail.sets))):
                raise NoExplorationPossible(
                    f"pruned exploration support cannot separate {m} from {t}")

    rate = float(np.min(avail.probs)) / actions.size
    if budgets.size:
        ones = np.ones((actions.size, len(avail.sets)))
        w = omega(actions, avail, ones, n=n)
        for i in range(budgets.size):
            if budgets.rates[i] > 0:
                cost = float(budgets.coeffs[i] @ w)
                if cost > 0:
                    rate = min(rate, float(budgets.rates[i]) / cost)
    return ExplorationPlan(rate, tuple(support))


def _offdiag_min(mat: np.ndarray) -> float:
    M = mat.shape[0]
    return min(float(mat[t, m]) for t in range(M) for m in range(M) if m != t)


def reference_build_params(T: float, inst: Instance, table: DivergenceTable, llr_bound: float,
                           betas: list[np.ndarray] | tuple[np.ndarray, ...],
                           epsilon: float | None = None) -> TestParams:
    """``policy.build_params`` as it was before it read the drifts off the
    table as arrays: a loop over hypothesis pairs per drift, one base
    ``TestParams`` and one ``replace`` per exit."""
    if not (math.isfinite(T) and T >= 1):
        raise ValueError(f"expected-stopping-time budget must be finite and at least 1, got {T}")
    if epsilon is not None and not 0.0 <= epsilon < 1.0:  # nan fails too
        raise ValueError("exploration probability override must be in [0, 1)")
    M = table.M
    if len(betas) != M:
        raise InvalidBeta(f"need one selection-frequency tuple per hypothesis, got {len(betas)}")
    betas = tuple(np.asarray(b, dtype=float) for b in betas)
    for t, b in enumerate(betas):
        if not in_constraint_set(b, inst.avail, inst.actions, inst.budgets):
            raise InvalidBeta(f"frequencies for hypothesis {t} violate the constraint set")
    degenerate_plan = False
    try:
        plan = choose_exploration_rate(inst.avail, inst.actions, inst.budgets, table)
    except NoExplorationPossible:
        plan = ExplorationPlan(0.0, ())
        # Pure exploitation never explores anyway; otherwise the adaptive
        # regime is unreachable and the test degenerates to the guess.
        degenerate_plan = epsilon != 0.0

    exploit = np.zeros((M, M))
    for t in range(M):
        for m in range(M):
            if m != t:
                exploit[t, m] = exponent(betas[t], table, t, m)
    explore = np.zeros((M, M))
    for t in range(M):
        for m in range(M):
            if m != t:
                explore[t, m] = plan.rate * float(
                    table.table[list(plan.support), :, t, m].sum())

    nan = float("nan")
    zeros = np.zeros((M, M))
    base = TestParams(T=float(T), regime=1, explore_prob=nan, plan=plan,
                      llr_bound=float(llr_bound), exploit_drift=exploit,
                      explore_drift=explore, mixed_drift=zeros, drift_margin=nan,
                      threshold_slope=zeros, max_slope=np.zeros(M), min_drift=nan,
                      tail_rate=nan, tail_coef=nan, regime_threshold=nan,
                      tail_bound=nan, offset_scale=nan,
                      threshold_offset=np.zeros(M), thresholds=zeros, betas=betas)

    if degenerate_plan:
        return base
    if epsilon is None:
        if T < math.e:
            return base
        eps = (math.log(T)) ** -0.25
    else:
        eps = float(epsilon)

    mixed = (1.0 - eps) * exploit + eps * explore
    min_mixed = _offdiag_min(mixed)
    min_explore = _offdiag_min(explore)
    cubic_rhs = (T ** (-1.0 / 6.0) * (min_mixed / min_explore) ** 2
                 if min_explore > 0 else 0.0)
    margin = solve_drift_margin(cubic_rhs)
    slope = mixed / (1.0 + margin)
    np.fill_diagonal(slope, 0.0)
    max_slope = np.array([max(slope[t, m] for m in range(M) if m != t) for t in range(M)])
    min_drift = eps * min_explore

    if min_drift > 0:
        tail_rate = margin ** 3 / (4 * (1 + margin) ** 3) * (min_drift / (4 * llr_bound)) ** 2
        tail_coef = 2 + 2 * (1 + margin) ** 2 / margin ** 2 * (4 * llr_bound / min_drift) ** 2
        regime_threshold = 1 + (1 + math.log(M * tail_coef * (1 + tail_rate))) / tail_rate
        in_regime2 = T >= max(math.e, regime_threshold)
        if not in_regime2:
            return replace(base, explore_prob=eps, mixed_drift=mixed,
                           drift_margin=margin, threshold_slope=slope,
                           max_slope=max_slope, min_drift=min_drift,
                           tail_rate=tail_rate, tail_coef=tail_coef,
                           regime_threshold=regime_threshold)
        tail_bound = -M * tail_coef * (1 + tail_rate) * math.exp(-tail_rate * (T - 1))
        k_val = offset_correction(tail_bound)
        offset = max_slope * (1.0 - k_val / tail_rate)
    else:
        # Zero exploration removes the concentration certificate; run the
        # adaptive regime with the asymptotic offset.
        tail_rate = tail_coef = regime_threshold = tail_bound = float("nan")
        k_val = float("nan")
        offset = max_slope.copy()

    thresholds = T * slope - offset[:, None]
    np.fill_diagonal(thresholds, 0.0)
    return replace(base, regime=2, explore_prob=eps, mixed_drift=mixed,
                   drift_margin=margin, threshold_slope=slope, max_slope=max_slope,
                   min_drift=min_drift, tail_rate=tail_rate, tail_coef=tail_coef,
                   regime_threshold=regime_threshold, tail_bound=tail_bound,
                   offset_scale=k_val, threshold_offset=offset, thresholds=thresholds)


def reference_active_set_vertices(poly, tol: float = VERTEX_TOL) -> np.ndarray:
    """The active-set loop that ``region.enumerate_vertices`` replaced: one
    rank test and one solve of the full d x d system per choice of
    d - n_z tight inequalities."""
    d = poly.dim
    n_z = poly.eq_matrix.shape[0]
    k = d - n_z
    # Inequality rows: nonnegativity (-x_i <= 0) then budgets (G x <= r).
    rows = [(-np.eye(d)[i], 0.0) for i in range(d)]
    rows += [(poly.budget_matrix[i], float(poly.budget_rhs[i]))
             for i in range(poly.budget_matrix.shape[0])]

    found: list[np.ndarray] = []
    for combo in itertools.combinations(range(len(rows)), k):
        M_act = np.vstack([poly.eq_matrix] + [rows[i][0] for i in combo])
        rhs = np.concatenate([poly.eq_rhs, [rows[i][1] for i in combo]])
        if np.linalg.matrix_rank(M_act, tol=1e-10) < d:
            continue
        x = np.linalg.solve(M_act, rhs)
        if np.any(x < -tol):
            continue
        if poly.budget_matrix.shape[0] and np.any(
                poly.budget_matrix @ x > poly.budget_rhs + tol):
            continue
        found.append(np.where(np.abs(x) < tol, 0.0, x))
    if not found:
        raise InfeasiblePolytope("constraint set has no vertices; inputs malformed")
    return np.array(sorted(_unique_rows(np.array(found), tol), key=tuple))


def reference_first_of_each(keys: np.ndarray) -> np.ndarray:
    """Indices, in input order, of the first row of each distinct row."""
    return np.sort(np.unique(keys, axis=0, return_index=True)[1])


def reference_enumerate_vertices(poly, tol: float = VERTEX_TOL) -> np.ndarray:
    """``region.enumerate_vertices`` as it was before its rank test gained
    the zero-row and determinant certificates: every square system goes to
    the SVD, and repeats are dropped through ``np.unique``."""
    E, p = poly.eq_matrix, poly.eq_rhs
    G, r = poly.budget_matrix, poly.budget_rhs
    d, n_b = poly.dim, G.shape[0]
    found: list[np.ndarray] = []
    keys: list[np.ndarray] = []
    for B in itertools.chain.from_iterable(
            itertools.combinations(range(n_b), k) for k in range(n_b + 1)):
        A = np.vstack([E, G[list(B)]])
        b = np.concatenate([p, r[list(B)]])
        supports = itertools.combinations(range(d), len(b))
        while chunk := list(itertools.islice(supports, 1 << 14)):
            F = np.array(chunk, dtype=np.intp)
            systems = A[:, F].transpose(1, 0, 2)
            full = np.linalg.svd(systems, compute_uv=False)[:, -1] > 1e-10
            F, xF = F[full], np.linalg.solve(systems[full], b)
            ok = np.all(xF >= -tol, axis=1) & np.all(
                np.einsum("kcj,cj->ck", G[:, F], xF) <= r + tol, axis=1)
            F, xF = F[ok], xF[ok]
            x = np.zeros((len(F), d))
            np.put_along_axis(x, F, np.where(np.abs(xF) < tol, 0.0, xF), axis=1)
            key = np.packbits(np.hstack([x != 0, x @ G.T >= r - tol]), axis=1)
            first = reference_first_of_each(key)
            found.append(x[first])
            keys.append(key[first])
    found = np.concatenate(found)
    if not len(found):
        raise InfeasiblePolytope("constraint set has no vertices; inputs malformed")
    V = found[reference_first_of_each(np.concatenate(keys))]
    return V[np.lexsort(V.T[::-1])]


def kernel_path(kernel, zi, rng, steps):
    """Walk the adaptive test's step through the tables of ``kernel`` with the
    availability set ``zi`` held fixed and no stopping rule: estimate, draw
    the action, then (if it selects a source) the symbol, one rng.random()
    each, and add the symbol's increments to S. Yields (action, symbol or
    None, S as an M x M list of rows) after every step."""
    M = len(kernel.steps)
    w = M - 1
    V = [0.0] * (M * w)
    for _ in range(steps):
        for theta_hat in range(M):
            if min(V[theta_hat * w:theta_hat * w + w]) >= 0:
                break
        else:
            theta_hat = int(np.argmax(np.sum(_square(V, M), axis=1)))
        act_cdf, cells = kernel.steps[theta_hat][zi]
        ai = bisect_right(act_cdf, rng.random())
        sym, seen = None, cells[ai]
        if seen is not None:
            samp_cdf, incs, _ = seen
            sym = bisect_right(samp_cdf, rng.random())
            V = list(map(add, V, incs[sym]))
        yield ai, sym, _square(V, M)


def make_instance(M, n, alphabet, pmf_rows=None, avail=None, actions=None,
                  budgets=None, rng=None) -> Instance:
    """Assemble an instance from per-source PMF rows (independent sources) or
    random positive joint tables."""
    alphabet = tuple(alphabet)
    if pmf_rows is not None:
        pmfs = []
        for rows in pmf_rows:
            table = np.ones(())
            for vec in rows:
                table = np.multiply.outer(table, np.asarray(vec, dtype=float))
            pmfs.append(table.reshape(alphabet))
    else:
        pmfs = []
        for _ in range(M):
            t = rng.uniform(0.05, 1.0, size=alphabet)
            pmfs.append(t / t.sum())
    model = JointModel(M, n, alphabet, tuple(pmfs))
    if avail is None:
        avail = AvailabilityDist((tuple(range(1, n + 1)),), np.array([1.0]))
    if actions is None:
        actions = ActionSpace(((),) + tuple((j,) for j in range(1, n + 1)))
    if budgets is None:
        budgets = BudgetSpec.none(n)
    return Instance(model, avail, actions, budgets)


def random_instance(rng: np.random.Generator, max_dim: int = 6,
                    n_budgets: int | None = None) -> Instance:
    """Random desk-scale environment with full-support distributions."""
    M = int(rng.integers(2, 4))
    n = int(rng.integers(1, 3))
    alphabet = tuple(int(rng.integers(2, 4)) for _ in range(n))
    full = tuple(range(1, n + 1))
    subsets = [s for r in range(1, n + 1)
               for s in itertools.combinations(full, r)]
    if rng.random() < 0.5 or n == 1:
        sets = (full,)
        probs = np.array([1.0])
    else:
        sets = (full, (1,))
        p = float(rng.uniform(0.3, 0.7))
        probs = np.array([p, 1.0 - p])
    max_actions = max(2, max_dim // len(sets))
    nonempty = [subsets[i] for i in rng.permutation(len(subsets))]
    acts = [()]
    for s in nonempty:
        if len(acts) >= max_actions:
            break
        if s not in acts:
            acts.append(s)
    # keep at least one discriminating action per source reachable
    if n >= 1 and all(1 not in a for a in acts[1:]):
        acts[-1] = (1,)
    actions = ActionSpace(tuple(acts))
    avail = AvailabilityDist(sets, probs)
    if n_budgets is None:
        n_budgets = int(rng.integers(0, 3))
    if n_budgets:
        coeffs = rng.uniform(0.0, 1.0, size=(n_budgets, n))
        coeffs[rng.random(size=coeffs.shape) < 0.3] = 0.0
        W = selection_matrix(actions, avail, n)
        max_cost = coeffs @ (W @ np.kron(np.ones(actions.size), probs))
        rates = np.array([float(rng.uniform(0.2, 1.0)) * max(c, 1e-6)
                          for c in max_cost])
        budgets = BudgetSpec(coeffs, rates)
    else:
        budgets = BudgetSpec.none(n)
    return make_instance(M, n, alphabet, avail=avail, actions=actions,
                         budgets=budgets, rng=rng)


def grid_betas(inst: Instance, step: float) -> np.ndarray:
    """Brute-force grid over the constraint set: per-availability-set simplex
    compositions scaled by the set probability, then budget filtering.
    Independent of the production polytope code."""
    units = max(1, round(1.0 / step))
    n_a = inst.actions.size

    def comps(total_units, parts):
        out = []
        for cuts in itertools.combinations(range(total_units + parts - 1), parts - 1):
            prev, c = -1, []
            for cut in cuts:
                c.append(cut - prev - 1)
                prev = cut
            c.append(total_units + parts - 2 - prev)
            out.append(c)
        return np.array(out, dtype=float) / total_units

    blocks = [comps(units, n_a) * float(alpha) for alpha in inst.avail.probs]
    sizes = [len(b) for b in blocks]
    idx = np.meshgrid(*[np.arange(g) for g in sizes], indexing="ij")
    total = int(np.prod(sizes))
    n_z = len(blocks)
    grid = np.empty((total, n_a * n_z))
    for zi, block in enumerate(blocks):
        rows = block[idx[zi].reshape(-1)]  # (total, n_a)
        for ai in range(n_a):
            grid[:, ai * n_z + zi] = rows[:, ai]
    if inst.budgets.size:
        W = selection_matrix(inst.actions, inst.avail, inst.model.n)
        G = inst.budgets.coeffs @ W
        ok = np.all(grid @ G.T <= inst.budgets.rates + 1e-12, axis=1)
        grid = grid[ok]
    return grid


def oracle_constraints(inst: Instance, extra: int = 0):
    """The constraint set of ``inst`` built without the package's polytope
    code, as (A_eq, b_eq, G, r) over the d frequencies followed by ``extra``
    zero columns."""
    n_a, n_z = inst.actions.size, len(inst.avail.sets)
    A_eq = np.zeros((n_z, n_a * n_z + extra))
    for zi in range(n_z):
        for ai in range(n_a):
            A_eq[zi, ai * n_z + zi] = 1.0
    G = np.zeros((0, n_a * n_z))
    if inst.budgets.size:
        G = inst.budgets.coeffs @ selection_matrix(inst.actions, inst.avail, inst.model.n)
    return A_eq, inst.avail.probs, np.hstack([G, np.zeros((len(G), extra))]), inst.budgets.rates


def oracle_max_margin(e_sub: np.ndarray, pair_rows_m: np.ndarray,
                      inst: Instance) -> float:
    """Reference value of max over the constraint set of the worst coordinate
    slack, via an off-the-shelf LP (independent of the package's solver and
    of the vertex/hull construction)."""
    from scipy.optimize import linprog

    d = pair_rows_m.shape[1]
    n_th = pair_rows_m.shape[0]
    # variables: beta (d), t; maximize t s.t. t <= rows @ beta - e
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A_eq, b_eq, G, r = oracle_constraints(inst, 1)
    A_ub = np.vstack([np.hstack([-pair_rows_m, np.ones((n_th, 1))]), G])
    b_ub = np.concatenate([-np.asarray(e_sub, dtype=float), r])
    bounds = [(0, None)] * d + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(-res.fun)


def oracle_slice_support(inst: Instance, table, k: int, v: float,
                         w: np.ndarray | None) -> float | None:
    """max of w.(x, y) over the shared-frequency slice at e_k = v: one beta
    in the constraint set with D(m, t).beta >= x, y, v for the two free truths
    and truth k against every declared m. HiGHS, not the package's solver;
    None when the slice is empty. With w None, only feasibility is tested."""
    from scipy.optimize import linprog

    i, j = [t for t in range(3) if t != k]
    A_eq, b_eq, G, r = oracle_constraints(inst, 2)
    rows, rhs = [G], [r]
    for m in range(3):
        for t, lift in ((i, [1.0, 0.0]), (j, [0.0, 1.0]), (k, [0.0, 0.0])):
            if t != m:
                rows.append(np.append(-table.pair_matrix(m, t).reshape(-1), lift)[None])
                rhs.append([-v if t == k else 0.0])
    c = np.zeros(A_eq.shape[1])
    if w is not None:
        c[-2:] = -np.asarray(w, dtype=float)
    res = linprog(c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * len(c), method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(-res.fun)


# ---------------------------------------------- the LP kernel the package replaced

# Revised simplex with three fresh solves per pivot and the same pivot rule
# (Bland): aseq.linprog.solve_lp must return bit for bit what this returns.
def _reference_bland_simplex(A: np.ndarray, b: np.ndarray, cost: np.ndarray,
                             basis: list[int]) -> tuple[str, list[int]]:
    """Run simplex iterations (maximization) from a feasible basis, in place.

    Returns (status, basis) with status "optimal" or "unbounded".
    """
    m = A.shape[0]
    for _ in range(20000):
        B = A[:, basis]
        xb = np.maximum(np.linalg.solve(B, b), 0.0)
        y = np.linalg.solve(B.T, cost[basis])
        reduced = cost - A.T @ y
        entering = -1
        in_basis = set(basis)
        for j in range(A.shape[1]):
            if j not in in_basis and reduced[j] > _TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", basis
        d = np.linalg.solve(B, A[:, entering])
        ratios = [(xb[i] / d[i], basis[i], i) for i in range(m) if d[i] > _TOL]
        if not ratios:
            return "unbounded", basis
        best = min(r for r, _, _ in ratios)
        # Bland tie-break: among minimal ratios, leave the smallest column id.
        leave_row = min((col, i) for r, col, i in ratios if r <= best + _TOL)[1]
        basis[leave_row] = entering
    raise RuntimeError("simplex failed to terminate")


def reference_solve_lp(c: np.ndarray, A_eq: np.ndarray | None = None,
                       b_eq: np.ndarray | None = None, A_ub: np.ndarray | None = None,
                       b_ub: np.ndarray | None = None) -> LpResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    m_eq, m_ub = A_eq.shape[0], A_ub.shape[0]

    # Standard form: slack per inequality row, then flip rows to make b >= 0.
    A = np.hstack([np.vstack([A_eq, A_ub]),
                   np.vstack([np.zeros((m_eq, m_ub)), np.eye(m_ub)])])
    b = np.concatenate([b_eq, b_ub])
    m, n_std = A.shape
    if m == 0:
        if np.all(c <= _TOL):
            return LpResult("optimal", np.zeros(n), 0.0)
        return LpResult("unbounded")
    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)

    # Phase 1: artificials with cost -1, start basis = artificials.
    A1 = np.hstack([A, np.eye(m)])
    cost1 = np.concatenate([np.zeros(n_std), -np.ones(m)])
    basis = list(range(n_std, n_std + m))
    status, basis = _reference_bland_simplex(A1, b, cost1, basis)
    B = A1[:, basis]
    obj1 = float(cost1[basis] @ np.linalg.solve(B, b))
    if obj1 < -1e-7:
        # Farkas: y = B^{-T} cost1_B has y.A_j >= 0 for real columns, y.b < 0.
        y = np.linalg.solve(B.T, cost1[basis])
        y = -y  # now y.A <= 0, y.b > 0 over the standardized system
        y[flip] *= -1.0  # undo row negations
        y_eq, y_ub = y[:m_eq].copy(), y[m_eq:].copy()
        return LpResult("infeasible", farkas_eq=y_eq, farkas_ub=y_ub)

    # Drive artificials out of the basis; drop rows that prove redundant. The
    # redundant constraint row is the one whose artificial is basic at i.
    keep_rows, keep_basic = list(range(m)), list(range(m))
    for i in range(m):
        if basis[i] >= n_std:
            Binv_row = np.linalg.solve(A1[:, basis].T, np.eye(m)[:, i])
            found = -1
            for j in range(n_std):
                if j not in basis and abs(Binv_row @ A1[:, j]) > _TOL:
                    found = j
                    break
            if found >= 0:
                basis[i] = found
            else:
                keep_rows.remove(basis[i] - n_std)
                keep_basic.remove(i)
    if len(keep_rows) < m:
        A = A[keep_rows]
        b = b[keep_rows]
        basis = [basis[i] for i in keep_basic]
        m = len(keep_rows)

    cost2 = np.concatenate([c, np.zeros(n_std - n)])
    status, basis = _reference_bland_simplex(A, b, cost2, basis)
    if status == "unbounded":
        return LpResult("unbounded")
    xb = np.linalg.solve(A[:, basis], b)
    x = np.zeros(n_std)
    x[basis] = xb
    x_out = np.maximum(x[:n], 0.0)
    return LpResult("optimal", x_out, float(c @ x_out))


# ------------------------------------------- planar fronts the package replaced

def reference_pareto_max(points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Planar points no other point dominates, near-repeats removed.

    q dominates p when q >= p - tol in both coordinates and q > p + tol in
    one. As q > p + tol implies q >= p - tol in that coordinate, p is
    dominated iff some q with qx > px + tol has qy >= py - tol, or some q
    with qy > py + tol has qx >= px - tol: suffix maxima over each sort.
    """
    dominated = np.zeros(len(points), dtype=bool)
    for a in (0, 1):
        order = np.argsort(points[:, a], kind="stable")
        other = points[order, 1 - a]
        best = np.append(np.maximum.accumulate(other[::-1])[::-1], -np.inf)
        above = np.searchsorted(points[order, a], points[:, a] + tol, side="right")
        dominated |= best[above] >= points[:, 1 - a] - tol
    uniq = _unique_rows(points[~dominated], tol)
    return uniq if len(uniq) else points[:1] * 0.0


def reference_staircase_2d(corners: np.ndarray):
    """The Pareto filter and monotone chain that ``region._staircase_2d``
    replaced: facets, hull vertices and CCW boundary of the planar
    closure-hull."""
    xmax = float(corners[:, 0].max(initial=0.0))
    ymax = float(corners[:, 1].max(initial=0.0))
    facets = [((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0),
              ((1.0, 0.0), xmax), ((0.0, 1.0), ymax)]
    if xmax <= 0 and ymax <= 0:
        verts = np.zeros((1, 2))
        return tuple(facets), verts, verts
    pts = reference_pareto_max(corners)
    pts = pts[np.lexsort((-pts[:, 1], pts[:, 0]))]
    # Upper-concave chain over the Pareto points (clockwise turns only).
    chain: list[np.ndarray] = []
    for p in pts:
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross >= -1e-12:
                chain.pop()
            else:
                break
        chain.append(p)
    for p, q in zip(chain, chain[1:]):
        n = np.array([p[1] - q[1], q[0] - p[0]])
        norm = float(np.linalg.norm(n))
        if norm > 1e-12:
            n /= norm
            facets.append(((float(n[0]), float(n[1])), float(np.dot(n, p))))
    boundary = [np.zeros(2)]
    if xmax > 0:
        boundary.append(np.array([xmax, 0.0]))
    boundary.extend(reversed(chain))
    if ymax > 0:
        boundary.append(np.array([0.0, ymax]))
    dedup = [boundary[0]]
    for p in boundary[1:]:
        if np.max(np.abs(p - dedup[-1])) > 1e-12:
            dedup.append(p)
    boundary_arr = np.array(dedup)
    verts = np.array(chain + [np.zeros(2), np.array([xmax, 0.0]),
                              np.array([0.0, ymax])])
    return tuple(facets), _unique_rows(verts, 1e-12), boundary_arr


def reference_nonadaptive_slice(inst: Instance, table, k: int, v: float,
                                step: float) -> np.ndarray:
    """The grid staircase that ``region.nonadaptive_slice`` replaced: the
    per-truth exponents of every frequency on the ``grid_betas`` grid that
    reaches v on truth k, reduced to the Pareto staircase of their (x, y)
    box corners, from (x_max, 0) to (0, y_max). Every point is achievable,
    so the exact slice must contain them all."""
    i, j = [t for t in range(3) if t != k]
    grid = grid_betas(inst, step)
    pairs, rows = table.pair_rows()
    vals = grid @ rows.T  # (N, M(M-1)) pairwise exponents
    by_truth = {t: [pi for pi, (m, tt) in enumerate(pairs) if tt == t] for t in range(3)}
    g = np.stack([vals[:, by_truth[t]].min(axis=1) for t in range(3)], axis=1)
    feas = g[:, k] >= v - 1e-12
    if not np.any(feas):
        return np.zeros((0, 2))
    front = reference_pareto_max(g[feas][:, [i, j]])
    front = front[np.argsort(-front[:, 0])]
    pts: list[np.ndarray] = [np.array([front[0, 0], 0.0])]
    cur_y = 0.0
    for p in front:
        if p[1] > cur_y + 1e-12:
            pts.append(np.array([p[0], cur_y]))
            pts.append(np.array([p[0], p[1]]))
            cur_y = p[1]
    pts.append(np.array([0.0, cur_y]))
    return np.array(pts)


# ------------------------------------------------- fixed-length search oracle

def _tuncel_objective(P: list[np.ndarray], Q, betas: np.ndarray,
                      targets: np.ndarray) -> tuple[float, int, int]:
    """Worst-case slack of one auxiliary product distribution, the slow path
    kept as the test oracle of ``_TuncelDual.bounds``' upper bound.

    ``targets[t, m]`` is the exponent demanded of declared t against truth m.
    A sample type P is assigned to the declared hypothesis that tolerates it
    best: for candidate t, the margin is the worst over truths m of
    (sum_j beta_j KL(P_j || Q_m_j)) - targets[t, m]. Returns the best margin
    and the active (declared, truth) pair.
    """
    h = np.array([sum(b * kl(p, q) for b, p, q in zip(betas, P, Q_m)) for Q_m in Q])
    slack = h[None, :] - targets
    np.fill_diagonal(slack, np.inf)
    worst_m = np.argmin(slack, axis=1)
    best_t = int(np.argmax(slack[np.arange(len(Q)), worst_m]))
    return float(slack[best_t, worst_m[best_t]]), best_t, int(worst_m[best_t])


def reference_newton(dual, p, slack, free):
    """The Newton step that ``_TuncelDual._newton`` took before it solved
    the KKT systems by LU: the pinv (SVD) least-squares solution of every
    system. Used as a method, in place of ``_newton``, by the verdict tests."""
    L = dual.logQ
    mean = np.einsum("rjk,jmk->rjm", p, L)
    cov = np.einsum("rjk,jmk,jnk->rjmn", p, L, L) - mean[..., :, None] * mean[..., None, :]
    R, M = slack.shape
    kkt = np.zeros((R, M + 1, M + 1))
    kkt[:, :M, :M] = np.where(free[:, :, None] & free[:, None, :],
                              -np.einsum("j,rjmn->rmn", dual.betas, cov), -dual.identity)
    kkt[:, :M, M] = kkt[:, M, :M] = free
    rhs = np.zeros((R, M + 1, 1))
    rhs[:, :M, 0] = np.where(free, -slack, 0.0)
    step = (np.linalg.pinv(kkt) @ rhs)[:, :M, 0]
    return step / np.maximum(1.0, np.abs(step).max(axis=1))[:, None]


def reference_bounds(dual, e: np.ndarray) -> tuple[float, float, tuple[np.ndarray, ...]]:
    """The one-target ``_TuncelDual.bounds`` that the stacked one replaced:
    (lower, upper, witness) for the target matrix e, the witness the tilt of
    least slack seen and upper its slack. A grid scan for every f at once,
    then, until lower >= 0 or a tilt's slack below -1e-9 settles the
    verdict, damped Newton steps on each f with g_f < 0 and an open duality
    gap."""
    eps = np.where(dual.assign, e[None], np.inf).min(axis=1)  # eps_f, inf off image
    eps0 = np.where(dual.image, eps, 0.0)
    e_off = np.where(np.eye(len(e), dtype=bool), -np.inf, e)

    def at(rows, mu):
        c, h, p = dual._tilt(mu)
        g = c - np.sum(mu * eps0[rows], axis=1)
        return g, np.where(dual.image[rows], h - eps[rows], -np.inf), h, p

    def objective(h):
        return np.min(h[:, None, :] - e_off, axis=2).max(axis=1)

    rows = np.arange(len(eps))
    g_grid = np.where(dual.off_grid, -np.inf, dual.c_grid - eps0 @ dual.grid.T)
    mu = dual.grid[np.argmax(g_grid, axis=1)]
    g, slack, h, p = at(rows, mu)
    obj = objective(h)
    # A copy: the view the package took here let a later Newton step on this
    # row replace the witness by a tilt whose slack is not upper.
    best_obj, best_p = obj.min(), p[np.argmin(obj)].copy()
    damp = np.ones(len(rows))
    for _ in range(dual.iters):
        if g.min() >= 0 or best_obj < -1e-9:
            break
        act = rows[(g < 0) & (damp > 1e-9) & (slack.max(axis=1) - g > 1e-13)]
        if not act.size:
            break
        free = dual.image[act] & ((mu[act] > 0) | (slack[act] > g[act, None]))
        step = dual._newton(p[act], slack[act], free)
        cand = np.maximum(mu[act] + damp[act, None] * step, 0.0) * dual.image[act]
        cand /= cand.sum(axis=1, keepdims=True)
        g2, slack2, h2, p2 = at(act, cand)
        obj2 = objective(h2)
        if obj2.min() < best_obj:
            best_obj, best_p = obj2.min(), p2[np.argmin(obj2)]
        up = g2 > g[act]
        better = act[up]
        mu[better], g[better], slack[better], p[better] = cand[up], g2[up], slack2[up], p2[up]
        damp[act] = np.where(up, 1.0, damp[act] / 4)
    return (float(g.min()), float(best_obj),
            tuple(best_p[j, :k].copy() for j, k in enumerate(dual.sizes)))


def reference_tuncel_slice(model: JointModel, beta_sources: np.ndarray,
                           fixed: dict[int, float], samples: int = 17,
                           options: TuncelOptions | None = None) -> SlicePolyline:
    """The sequential ``region.tuncel_slice`` that the speculative one
    replaced: one ``reference_bounds`` call per bisection step, 20 steps for
    x_max and for each x's largest y."""
    if model.M != 3 or len(fixed) != 1:
        raise UnsupportedDimension("fixed-length slices cover M=3 with one fixed axis")
    k, v, i, j = _slice_axes(fixed)
    dual = _dual_for(model, beta_sources, options or TuncelOptions())
    Q = dual.Q

    def feasible(x: float, y: float) -> bool:
        e = np.zeros(3)
        e[k], e[i], e[j] = v, x, y
        # Per-truth exponents: demanding e_m of every declared hypothesis is
        # the easiest tuple consistent with a per-truth floor of e_m.
        return reference_bounds(dual, np.tile(e, (3, 1)))[0] >= 0.0

    top = max(kl(Q[a][jj], Q[b][jj]) for a in range(3) for b in range(3)
              for jj in range(model.n) if a != b) * model.n

    def largest(pred) -> float:
        lo, hi = 0.0, top
        for _ in range(20):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if pred(mid) else (lo, mid)
        return lo

    if not feasible(0.0, 0.0):
        return SlicePolyline((i, j), np.zeros((0, 2)))
    x_max = largest(lambda x: feasible(x, 0.0))
    pts = [(x, largest(lambda y: feasible(x, y)))
           for x in np.linspace(0.0, x_max, samples).tolist() if feasible(x, 0.0)]
    return SlicePolyline((i, j), np.array(pts))


@dataclass(frozen=True)
class ReferenceTuncelOptions:
    """Search controls for the fixed-length region membership test."""

    grid_step: float = 0.05
    descent_starts: int = 6
    descent_iters: int = 400
    max_grid_points: int = 200_000
    seed: int = 0


class ReferenceTuncelEvaluator:
    """Reusable grid + descent minimizer of the worst-case divergence slack.

    The objective is a max over declared hypotheses of a min over truths, so
    it is not convex in P; minimization over the product of source simplices
    is heuristic. A vectorized simplex grid scan provides dense coverage
    (including every hypothesis's own marginals, the binding probes), and
    entropic mirror descent refines the best starts.

    The package's fixed-length search before the exact dual replaced it,
    kept as an oracle: every slack it finds is the value of a real sample
    type, so it can never fall below a certified lower bound.
    """

    def __init__(self, Q, betas: np.ndarray, options: ReferenceTuncelOptions):
        self.Q = Q
        self.betas = betas
        self.options = options
        self.M = len(Q)
        self.n = len(Q[0])
        self.sizes = [len(Q[0][j]) for j in range(self.n)]
        self.rng = np.random.default_rng(options.seed)
        grids = [_simplex_grid(k, options.grid_step) for k in self.sizes]
        total = int(np.prod([len(g) for g in grids]))
        if total > options.max_grid_points:
            count = options.max_grid_points
            grids = [np.vstack([g, self.rng.dirichlet(np.ones(k), size=count)])
                     if len(g) < count else
                     g[self.rng.choice(len(g), size=count, replace=False)]
                     for g, k in zip(grids, self.sizes)]
            self.joint = None  # sampled rows combined positionally
            self.grids = [g[:count] for g in grids]
        else:
            self.joint = "product"
            self.grids = grids
        # Per-source KL(p || Q_theta_j) for every grid row: (G_j, M).
        self.kl_mats = []
        for j, g in enumerate(self.grids):
            ent = np.sum(np.where(g > 0, g * np.log(np.where(g > 0, g, 1.0)), 0.0), axis=1)
            cross = np.stack([g @ np.log(self.Q[t][j]) for t in range(self.M)], axis=1)
            self.kl_mats.append(ent[:, None] - cross)

    def _slack(self, h: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """max over declared of min over truths of h[..., m] - targets[t, m]."""
        per_declared = []
        for t in range(self.M):
            ms = [m for m in range(self.M) if m != t]
            per_declared.append((h[..., ms] - targets[t, ms]).min(axis=-1))
        return np.max(np.stack(per_declared, axis=-1), axis=-1)

    def _grid_best(self, targets: np.ndarray):
        if self.joint == "product":
            # Broadcast the weighted per-source KL matrices over the product.
            shape = [len(g) for g in self.grids]
            h = np.zeros(shape + [self.M])
            for j, mat in enumerate(self.kl_mats):
                dims = [1] * len(shape) + [self.M]
                dims[j] = shape[j]
                h = h + self.betas[j] * mat.reshape(dims)
            vals = self._slack(h, targets)
            flat_idx = int(np.argmin(vals))
            idx = np.unravel_index(flat_idx, vals.shape)
            P = [self.grids[j][idx[j]].copy() for j in range(self.n)]
            return float(vals.reshape(-1)[flat_idx]), P
        h = sum(self.betas[j] * self.kl_mats[j] for j in range(self.n))
        vals = self._slack(h, targets)
        i = int(np.argmin(vals))
        return float(vals[i]), [self.grids[j][i].copy() for j in range(self.n)]

    def min_slack(self, targets: np.ndarray) -> tuple[float, tuple[np.ndarray, ...]]:
        Q, betas, options = self.Q, self.betas, self.options
        floor = 1e-12

        def value(P):
            return _tuncel_objective(P, Q, betas, targets)[0]

        candidates: list[list[np.ndarray]] = []
        for t in range(self.M):
            candidates.append([Q[t][j].copy() for j in range(self.n)])
        candidates.append([np.full(k, 1.0 / k) for k in self.sizes])
        grid_val, grid_P = self._grid_best(targets)
        candidates.append(grid_P)
        for _ in range(max(0, options.descent_starts - len(candidates))):
            candidates.append([self.rng.dirichlet(np.ones(k)) for k in self.sizes])

        best_val, best_P = grid_val, [p.copy() for p in grid_P]
        for start in candidates:
            P = [np.maximum(p, floor) / np.maximum(p, floor).sum() for p in start]
            cur = value(P)
            if cur < best_val:
                best_val, best_P = cur, [p.copy() for p in P]
            for it in range(options.descent_iters):
                _, _, m_star = _tuncel_objective(P, Q, betas, targets)
                eta = 0.5 / np.sqrt(1.0 + it)
                for j in range(self.n):
                    grad = betas[j] * (np.log(P[j] / Q[m_star][j]) + 1.0)
                    P[j] = P[j] * np.exp(-eta * grad)
                    P[j] = np.maximum(P[j], floor)
                    P[j] /= P[j].sum()
                cur = value(P)
                if cur < best_val:
                    best_val, best_P = cur, [p.copy() for p in P]
        return float(best_val), tuple(best_P)


def criterion3_tuples(table, count: int = 1000) -> list[np.ndarray]:
    """Criterion 3's fixed-length queries: the example's corner at sources
    sampled half and half, scaled entrywise by U(0, 0.9) from seed 11."""
    from aseq.divergence import exponent

    bfull = np.zeros((3, 1))
    bfull[1, 0] = bfull[2, 0] = 0.5
    corner = np.array([[exponent(bfull, table, m, t) if t != m else 0.0 for t in range(3)]
                       for m in range(3)])
    rng = np.random.default_rng(11)
    out = []
    for _ in range(count):
        e = corner * rng.uniform(0, 0.9, size=(3, 3))
        np.fill_diagonal(e, 0.0)
        out.append(e)
    return out
