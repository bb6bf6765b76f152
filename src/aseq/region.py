"""Optimal error-exponent regions and their comparison regions.

The feasible set of selection frequencies is a bounded polytope (availability
equalities plus nonnegativity confine every coordinate; budgets only cut it
further). For each declared hypothesis m, the achievable exponent sub-region
is the downward closure, within the nonnegative orthant, of the convex hull of
the exponent corner points evaluated at the polytope's vertices. The full
region is the direct product of the per-hypothesis sub-regions, so membership
factors over the declared hypothesis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import DivergenceTable, kl
from .errors import (DimensionMismatch, InfeasiblePolytope, SupportMismatch,
                     UnsupportedDimension)
from .linprog import LpResult, solve_lp
from .model import (ActionSpace, AvailabilityDist, BudgetSpec, JointModel,
                    marginal, selection_matrix)

VERTEX_TOL = 1e-9


@dataclass
class ConstraintPolytope:
    """Feasible selection frequencies in halfspace form, with cached vertices.

    Coordinates are the flattened (action, availability-set) frequencies in
    C-order (actions major). Equalities pin the per-set totals to the
    availability probabilities; inequalities are nonnegativity plus budgets.
    """

    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    budget_matrix: np.ndarray
    budget_rhs: np.ndarray
    _vertices: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.eq_matrix.shape[1]

    @property
    def vertices(self) -> np.ndarray:
        if self._vertices is None:
            self._vertices = enumerate_vertices(self)
        return self._vertices


def build_polytope(avail: AvailabilityDist, actions: ActionSpace,
                   budgets: BudgetSpec) -> ConstraintPolytope:
    n_a, n_z = actions.size, len(avail.sets)
    d = n_a * n_z
    E = np.zeros((n_z, d))
    for zi in range(n_z):
        for ai in range(n_a):
            E[zi, ai * n_z + zi] = 1.0
    if budgets.size:
        W = selection_matrix(actions, avail, budgets.coeffs.shape[1])
        G = budgets.coeffs @ W
    else:
        G = np.zeros((0, d))
    return ConstraintPolytope(E, avail.probs.copy(), G, budgets.rates.copy())


# Basic solutions tried per batched rank test and solve; bounds the memory of
# one batch whatever the model's size.
_VERTEX_CHUNK = 1 << 14
# Largest active-set count enumerate_vertices accepts: about a minute of work
# on a 2-vCPU desk machine (see the README's "Region cost").
MAX_ACTIVE_SETS = 5_000_000


def enumerate_vertices(poly: ConstraintPolytope) -> np.ndarray:
    """All extreme points of the constraint polytope, deduplicated, in
    lexicographic row order.

    Every vertex of {x >= 0 : E x = p, G x <= r} is a basic feasible
    solution: for a set B of tight budgets and a support F of n_z + |B|
    coordinates with [E_F; G_BF] nonsingular, x_F solves
    [E_F; G_BF] x_F = [p; r_B] and every other coordinate is 0. Summed over
    B, the (B, F) pairs are the C(d + n_b, d - n_z) active sets of the full
    system, so that count is checked against ``MAX_ACTIVE_SETS`` before any
    work. Each chunk of supports gets one batched rank test and one batched
    solve.

    Degenerate vertices are found once per active set that fixes them, so
    repeats are dropped by structure, not by distance: each solution is keyed
    by its support (x != 0) and its tight budgets (G x >= r - tol, with tol =
    ``VERTEX_TOL``), and only the first solution with each key is kept. Two
    vertices can share a support, but not a support and a tight set as well:
    both would solve the same system [E_S; G_BS] x_S = [p; r_B], which has
    full column rank at a vertex.
    """
    E, p = poly.eq_matrix, poly.eq_rhs
    G, r = poly.budget_matrix, poly.budget_rhs
    d, n_z, n_b, tol = poly.dim, E.shape[0], G.shape[0], VERTEX_TOL
    total = math.comb(d + n_b, d - n_z)
    if total > MAX_ACTIVE_SETS:
        raise ValueError(f"vertex enumeration needs {total} active sets, over the cap of "
                         f"{MAX_ACTIVE_SETS}; use fewer actions, availability sets or budgets")

    found: list[np.ndarray] = []
    keys: list[np.ndarray] = []
    for B in itertools.chain.from_iterable(
            itertools.combinations(range(n_b), k) for k in range(n_b + 1)):
        A = np.vstack([E, G[list(B)]])
        b = np.concatenate([p, r[list(B)]])
        supports = itertools.combinations(range(d), len(b))
        while chunk := list(itertools.islice(supports, _VERTEX_CHUNK)):
            F = np.array(chunk, dtype=np.intp)
            systems = A[:, F].transpose(1, 0, 2)
            full = _full_rank(systems)
            F, xF = F[full], np.linalg.solve(systems[full], b)
            ok = np.all(xF >= -tol, axis=1) & np.all(
                np.einsum("kcj,cj->ck", G[:, F], xF) <= r + tol, axis=1)
            F, xF = F[ok], xF[ok]
            x = np.zeros((len(F), d))
            np.put_along_axis(x, F, np.where(np.abs(xF) < tol, 0.0, xF), axis=1)
            key = np.packbits(np.hstack([x != 0, x @ G.T >= r - tol]), axis=1)
            first = _first_of_each(key)
            found.append(x[first])
            keys.append(key[first])
    found = np.concatenate(found)
    if not len(found):
        raise InfeasiblePolytope("constraint set has no vertices; inputs malformed")
    V = found[_first_of_each(np.concatenate(keys))]
    return V[np.lexsort(V.T[::-1])]


def _full_rank(systems: np.ndarray) -> np.ndarray:
    """Whether each square system's smallest singular value exceeds 1e-10.

    Two certificates settle most systems before any SVD. One with an
    all-zero row is singular: its support misses an availability set. One
    with |det| > 2e-10 ||S||_F^(k-1) is full rank, since
    sigma_min >= |det| / sigma_max^(k-1) >= |det| / ||S||_F^(k-1); the factor
    2 covers the rounding of det. Only the rest go to the SVD, so every
    decision is the one ``svd(S)[-1] > 1e-10`` makes.
    """
    k = systems.shape[1]
    frob_sq = np.einsum("nij,nij->n", systems, systems)
    full = np.abs(np.linalg.det(systems)) > 2e-10 * frob_sq ** ((k - 1) / 2)
    rest = ~full & systems.any(axis=2).all(axis=1)
    full[rest] = np.linalg.svd(systems[rest], compute_uv=False)[:, -1] > 1e-10
    return full


def _first_of_each(keys: np.ndarray) -> np.ndarray:
    """Indices, in input order, of the first row of each distinct row: the
    same as ``np.sort(np.unique(keys, axis=0, return_index=True)[1])``."""
    order = np.lexsort(keys.T[::-1])  # stable, so repeats keep input order
    ranked = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return np.sort(order[first])


def _unique_rows(points: np.ndarray, tol: float) -> np.ndarray:
    """Rows in input order, each dropped when it lies within ``tol``
    (max-abs) of an earlier kept row. Quadratic in the row count: meant for
    short lists such as facet rows and polygon vertices."""
    kept, k = np.empty_like(points), 0
    for p in points:
        if not k or np.abs(kept[:k] - p).max(axis=1).min() > tol:
            kept[k], k = p, k + 1
    return kept[:k]


@dataclass(frozen=True)
class PerMRegion:
    """Achievable sub-region for one declared hypothesis.

    ``corners[v]`` holds the exponent tuple reachable at polytope vertex v,
    coordinates ordered by ``thetas``. The sub-region is the downward closure
    of the convex hull of these corners, intersected with the nonnegative
    orthant. ``vertices`` are its extreme points. In two dimensions they are
    the corners on the front that ``_planar_front`` finds, plus the origin
    and the two axis points, and ``boundary`` is the same polygon in CCW
    order from the origin; from three on they are qhull's. ``facets`` are
    (unit normal, offset) pairs meaning n.e <= b; None when qhull rejects a
    flat corner cloud, in which case membership falls back to a feasibility
    LP over the corners.
    """

    declared: int
    thetas: tuple[int, ...]
    corners: np.ndarray
    vertices: np.ndarray
    facets: tuple[tuple[tuple[float, ...], float], ...] | None
    coord_max: np.ndarray
    boundary: np.ndarray | None = None  # CCW polyline, 2-D regions only

    def _coords(self, e: np.ndarray) -> np.ndarray:
        e = np.asarray(e, dtype=float).reshape(-1)
        if e.size != len(self.thetas):
            raise DimensionMismatch(
                f"expected {len(self.thetas)} coordinates, got {e.size}")
        if not np.isfinite(e).all():
            raise ValueError("exponents must be finite")
        return e

    def contains(self, e: np.ndarray, tol: float = 1e-9) -> bool:
        e = self._coords(e)
        if np.any(e < -tol):
            return False
        if self.facets is not None:
            return self.margin(e) >= -tol
        return _corner_lp_contains(self.corners, e)

    def margin(self, e: np.ndarray) -> float:
        """Smallest signed facet slack (positive strictly inside)."""
        e = self._coords(e)
        if self.facets is None:
            raise ValueError("facet representation unavailable")
        vals = [b - float(np.dot(n, e)) for n, b in self.facets]
        return min(vals)


def _corner_lp_contains(corners: np.ndarray, e: np.ndarray) -> bool:
    # e is in the closure-hull iff some convex combination of corners
    # dominates it coordinatewise, to within 1e-9.
    v = corners.shape[0]
    return solve_lp(np.zeros(v), np.ones((1, v)), np.ones(1),
                    -corners.T, -(e - 1e-9)).status == "optimal"


def _planar_front(best) -> list[np.ndarray]:
    """Upper-right hull vertices of a convex planar set, from its largest x
    to its largest y, given ``best(w)``, a maximiser of w.p over the set.

    Dichotomic search (Aneja & Nair 1979), one call per vertex and one per
    edge: from the two axis maximisers, a maximiser along a segment's outward
    normal that lies over ``tol`` beyond it, inside the box the segment spans
    (rounding can tilt a short one), is a new vertex. A last pass drops
    vertices within ``tol`` of their neighbours' chord and dominated axis
    maximisers.
    """
    tol = 1e-12

    def beyond(p, q, r) -> bool:
        normal = np.array([q[1] - p[1], p[0] - q[0]])
        return normal @ (r - p) > tol * np.hypot(*normal)

    front = [best(np.array([1.0, 0.0])), best(np.array([0.0, 1.0]))]
    i = 0
    while i + 1 < len(front):
        p, q = front[i], front[i + 1]
        r = best(np.array([q[1] - p[1], p[0] - q[0]]))
        if (beyond(p, q, r) and q[0] - tol <= r[0] <= p[0] + tol
                and p[1] - tol <= r[1] <= q[1] + tol):
            front.insert(i + 1, r)
        else:
            i += 1
    hull: list[np.ndarray] = []
    for r in front:
        while len(hull) > 1 and not beyond(hull[-2], r, hull[-1]):
            hull.pop()
        hull.append(r)
    if len(hull) > 1 and hull[1][0] >= hull[0][0] - tol:
        hull.pop(0)
    if len(hull) > 1 and hull[-2][1] >= hull[-1][1] - tol:
        hull.pop()
    return hull


def _closure_boundary(front: list[np.ndarray], xmax: float, ymax: float) -> np.ndarray:
    """CCW boundary, from the origin, of the downward closure of ``front``
    (ordered from max-x to max-y) in the nonnegative quadrant."""
    return _unique_rows(np.array([np.zeros(2), np.array([xmax, 0.0]), *front,
                                  np.array([0.0, ymax])]), 1e-12)


def _staircase_2d(corners: np.ndarray):
    """Facets, hull vertices, and CCW boundary of the planar closure-hull."""
    xmax = float(corners[:, 0].max(initial=0.0))
    ymax = float(corners[:, 1].max(initial=0.0))
    facets = [((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0),
              ((1.0, 0.0), xmax), ((0.0, 1.0), ymax)]
    front = _planar_front(lambda w: corners[np.argmax(corners @ w)])
    chain = front[::-1]
    for p, q in zip(chain, chain[1:]):  # front vertices lie over 1e-12 apart
        n = np.array([p[1] - q[1], q[0] - p[0]])
        n /= np.linalg.norm(n)
        facets.append(((float(n[0]), float(n[1])), float(np.dot(n, p))))
    verts = np.array(chain + [np.zeros(2), np.array([xmax, 0.0]),
                              np.array([0.0, ymax])])
    return tuple(facets), _unique_rows(verts, 1e-12), _closure_boundary(front, xmax, ymax)


def _masked_points(corners: np.ndarray) -> np.ndarray:
    d = corners.shape[1]
    masks = np.array(list(itertools.product([0.0, 1.0], repeat=d)))
    pts = (corners[:, None, :] * masks[None, :, :]).reshape(-1, d)
    return pts[_first_of_each(pts)]


def region_polytope(table: DivergenceTable, poly: ConstraintPolytope, m: int) -> PerMRegion:
    """Sub-region for declared hypothesis m from the polytope's vertex corners."""
    thetas = tuple(t for t in range(table.M) if t != m)
    V = poly.vertices
    pair_rows = np.stack([table.pair_matrix(m, t).reshape(-1) for t in thetas])
    corners = V @ pair_rows.T  # (n_vertices, M-1)
    corners = np.maximum(corners, 0.0)
    coord_max = corners.max(axis=0)
    d = len(thetas)
    boundary = None
    if d == 1:
        top = float(coord_max[0])
        facets = (((-1.0,), 0.0), ((1.0,), top))
        vertices = np.array([[0.0], [top]])
    elif d == 2:
        facets, vertices, boundary = _staircase_2d(corners)
    else:
        facets, vertices = _hull_facets(corners)
    return PerMRegion(m, thetas, corners, vertices, facets, coord_max, boundary)


def _hull_facets(corners: np.ndarray):
    """Exact hull of the masked corner cloud in dimension >= 3 via qhull."""
    from scipy.spatial import ConvexHull, QhullError  # deferred: slow import

    pts = _masked_points(corners)
    pts = np.vstack([np.zeros((1, corners.shape[1])), pts])
    try:
        hull = ConvexHull(pts)
    except QhullError:  # flat cloud: membership falls back to the corner LP
        return None, pts
    eqs = hull.equations
    norms = np.array([np.linalg.norm(n) for n in eqs[:, :-1]])
    rows = _unique_rows(np.column_stack([eqs[:, :-1], -eqs[:, -1]]) / norms[:, None], 1e-9)
    facets = tuple((tuple(float(v) for v in r[:-1]), float(r[-1])) for r in rows)
    return facets, pts[hull.vertices]


@dataclass(frozen=True)
class ExponentRegion:
    """Direct product over declared hypotheses of per-hypothesis sub-regions."""

    M: int
    per_m: tuple[PerMRegion, ...]

    def contains(self, exponents: np.ndarray, tol: float = 1e-9) -> bool:
        e = _as_matrix(exponents, self.M)
        return all(self.per_m[m].contains(e[m, list(self.per_m[m].thetas)], tol)
                   for m in range(self.M))

    def margin(self, exponents: np.ndarray) -> float:
        e = _as_matrix(exponents, self.M)
        return min(self.per_m[m].margin(e[m, list(self.per_m[m].thetas)])
                   for m in range(self.M))


def _as_matrix(exponents: np.ndarray, M: int) -> np.ndarray:
    e = np.asarray(exponents, dtype=float)
    if e.shape != (M, M):
        raise DimensionMismatch(f"exponent tuple must be ({M}, {M}) with zero diagonal")
    if not np.isfinite(e).all():
        raise ValueError("exponents must be finite")
    return e


def compute_region(table: DivergenceTable, poly: ConstraintPolytope) -> ExponentRegion:
    return ExponentRegion(table.M, tuple(region_polytope(table, poly, m)
                                         for m in range(table.M)))


def _lifted(poly: ConstraintPolytope, rows: np.ndarray, lift: np.ndarray, rhs: np.ndarray):
    """(A_eq, b_eq, A_ub, b_ub) of an LP over (beta, z), z being
    ``lift.shape[1]`` extra variables: beta in the polytope, and
    -rows.beta + lift.z <= rhs in the rows after the budgets'."""
    extra = lift.shape[1]
    A_eq = np.hstack([poly.eq_matrix, np.zeros((len(poly.eq_rhs), extra))])
    A_ub = np.vstack([np.hstack([poly.budget_matrix, np.zeros((len(poly.budget_rhs), extra))]),
                      np.hstack([-rows, lift])])
    return A_eq, poly.eq_rhs, A_ub, np.concatenate([poly.budget_rhs, rhs])


def nonadaptive_feasibility(exponents: np.ndarray, table: DivergenceTable,
                            poly: ConstraintPolytope) -> LpResult:
    """Feasibility LP for a single shared selection frequency achieving every
    pairwise exponent simultaneously."""
    e = _as_matrix(exponents, table.M)
    pairs, rows = table.pair_rows()
    targets = np.array([e[m, t] for m, t in pairs])
    lp = _lifted(poly, rows, np.zeros((len(rows), 0)), -targets)
    return solve_lp(np.zeros(poly.dim), *lp)


def nonadaptive_membership(exponents: np.ndarray, table: DivergenceTable,
                           poly: ConstraintPolytope) -> bool:
    return nonadaptive_feasibility(exponents, table, poly).status == "optimal"


def decision_risk_exponents(table: DivergenceTable, poly: ConstraintPolytope
                            ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Best worst-case exponent per declared hypothesis, with maximizers.

    gamma_m = max over feasible beta of min over ground truths of the pairwise
    exponent; solved as an LP with an auxiliary level variable.
    """
    d = poly.dim
    gammas = np.zeros(table.M)
    argmax: list[np.ndarray] = []
    c = np.zeros(d + 1)
    c[-1] = 1.0
    for m in range(table.M):
        rows = np.stack([table.pair_matrix(m, t).reshape(-1)
                         for t in range(table.M) if t != m])
        res = solve_lp(c, *_lifted(poly, rows, np.ones((len(rows), 1)), np.zeros(len(rows))))
        if res.status != "optimal":
            raise RuntimeError(f"risk-exponent LP unexpectedly {res.status}")
        gammas[m] = res.objective
        argmax.append(res.x[:d].reshape(table.table.shape[:2]))
    return gammas, argmax


# ---------------------------------------------------------------------------
# Fixed-length (single-shot) comparison region and slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuncelOptions:
    """Controls of the fixed-length dual evaluator: ``grid_step`` is the step
    of the grid scanned first (coarsened to fit ``_GRID_CELLS``: at the default
    step, from M = 5 on), and the dual is reused while it, the model and the
    proportions stay the same; ``descent_iters`` caps the Newton steps taken
    after the scan while the verdict is unresolved, read on each call, so it
    leaves the dual reused; ``descent_starts`` is accepted and unused."""

    grid_step: float = 0.05
    descent_starts: int = 6
    descent_iters: int = 400

    def __post_init__(self):
        if not 0.0 < self.grid_step < math.inf:  # NaN fails too
            raise ValueError(f"grid_step must be finite and > 0, got {self.grid_step!r}")
        if (isinstance(self.descent_iters, bool)
                or not isinstance(self.descent_iters, (int, np.integer)) or self.descent_iters < 0):
            raise ValueError(f"descent_iters must be an integer >= 0, got {self.descent_iters!r}")


@dataclass(frozen=True)
class TuncelResult:
    """Verdict with certified bounds lower <= slack <= upper. ``witness`` is
    the sample type (one distribution per source) at which ``upper`` was
    evaluated; None when the verdict is "in"."""

    status: str  # "in" | "out" | "unresolved"
    lower: float
    upper: float
    witness: tuple[np.ndarray, ...] | None


def source_marginals(model: JointModel) -> list[list[np.ndarray]]:
    """Per-source marginals Q[theta][j-1]; requires a product-form model whose
    hypotheses share each source's support."""
    out = []
    for t in range(model.M):
        margs = [marginal(model, (j,), t) for j in range(1, model.n + 1)]
        prod = margs[0]
        for q in margs[1:]:
            prod = np.multiply.outer(prod, q)
        if np.max(np.abs(prod - model.pmfs[t])) > 1e-9:
            raise ValueError("fixed-length comparison needs independent sources")
        if out and any(np.any((q > 0) != (q0 > 0)) for q, q0 in zip(margs, out[0])):
            raise SupportMismatch(f"hypothesis {t} source support differs from hypothesis 0")
        out.append(margs)
    return out


def _simplex_grid(k: int, step: float) -> np.ndarray:
    """Every point of the k-simplex with coordinates in multiples of 1/units
    (stars and bars: the gaps between k - 1 cuts of units + k - 1 slots)."""
    units = max(1, round(1.0 / step))
    cuts = np.array(list(itertools.combinations(range(units + k - 1), k - 1)),
                    dtype=np.intp, ndmin=2)
    ends = np.full((len(cuts), 1), -1), np.full((len(cuts), 1), units + k - 1)
    return (np.diff(np.hstack([ends[0], cuts, ends[1]]), axis=1) - 1) / units


# Stands in for log 0, and pads the source alphabets to one length. The
# hypotheses share each source's support, so a zero-mass symbol's logit is
# _LOG_ZERO * sum_m mu_m = _LOG_ZERO and its weight exactly 0, while
# 0 * _LOG_ZERO = 0 keeps Q^0 = 1 and every product finite (no nan).
_LOG_ZERO = -1e4
# Most lambda-grid points times choice functions kept for the grid scan.
_GRID_CELLS = 1 << 20


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis of a finite array, computed as scipy's
    ``logsumexp`` computes it (Blanchard, Higham & Higham 2021, the shifted
    form): with m entries equal to the row max a_max and s the sum of
    exp(a - a_max) over the others, log1p(s / m) + log(m) + a_max. Importing
    scipy.special would double the package's start-up, and on the dual's
    arrays of a few dozen entries its dispatch costs more than the sum."""
    a_max = a.max(axis=-1, keepdims=True)
    top = a == a_max
    m = top.sum(axis=-1, keepdims=True, dtype=float)
    s = np.where(top, 0.0, np.exp(a - a_max)).sum(axis=-1, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + a_max)[..., 0]


def _kkt_solve(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of each system of the stack kkt x = rhs by LU
    (``np.linalg.solve``, LAPACK on each matrix alone), and the pinv
    least-squares step for a system that is exactly singular. Once one
    system is, the stack is solved a system at a time, so that no row's
    step depends on the rows stacked beside it."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        if len(kkt) == 1:
            return np.linalg.pinv(kkt) @ rhs
        return np.concatenate([_kkt_solve(kkt[r:r + 1], rhs[r:r + 1]) for r in range(len(kkt))])


class _TuncelDual:
    """Certified bounds on the fixed-length slack by Chernoff/Renyi duality.

    The slack v(e) = min_P max_t min_{m != t} (h_m(P) - e[t, m]), with
    h_m(P) = sum_j beta_j KL(P_j || Q_mj), is the minimum over the choice
    functions f (t -> f(t) != t) of min_P max_t (h_f(t)(P) - e[t, f(t)])
    (Tuncel 2005). By weak duality each piece is at least
    g_f(lambda) = sum_j beta_j c_j(mu) - sum_t lambda_t e[t, f(t)] for every
    lambda in the simplex, with mu_m = sum_{t: f(t) = m} lambda_t and
    c_j(mu) = -log sum_x prod_m Q_mj(x)^mu_m; g_f is concave and, by Sion's
    minimax theorem, its maximum is the piece. The best lambda for a mu puts
    mu_m on the t with the least e[t, m], eps_f[m], so mu is searched on the
    simplex of f's image. The tilts P_j ~ prod_m Q_mj^mu_m attain c_j, and
    h_m(P) - eps_f[m] is the gradient of g_f (up to a constant).
    """

    def __init__(self, Q, beta_sources: np.ndarray, grid_step: float):
        self.Q = Q
        # a copy: a reused dual must not see the caller's array change
        self.betas = np.array(beta_sources, dtype=float).reshape(-1)
        M, n = len(Q), len(self.betas)
        if n != len(Q[0]):
            raise DimensionMismatch("need one sampling proportion per source")
        # tuncel_slice's bisection range, n times the largest KL, needs beta_j <= 1
        if not np.all((self.betas >= 0) & (self.betas <= 1)):  # NaN fails too
            raise ValueError(f"sampling proportions must lie in [0, 1], got {self.betas.tolist()}")
        self.sizes = [len(q) for q in Q[0]]
        self.logQ = np.full((n, M, max(self.sizes)), _LOG_ZERO)
        with np.errstate(divide="ignore"):
            for j, k in enumerate(self.sizes):
                for m in range(M):
                    self.logQ[j, m, :k] = np.maximum(np.log(Q[m][j]), _LOG_ZERO)
        choices = np.array(list(itertools.product(range(M), repeat=M)), dtype=np.intp)
        choices = choices[(choices != np.arange(M)).all(axis=1)]
        self.assign = np.eye(M, dtype=bool)[choices]  # [f, t, m]: f(t) = m
        self.image = self.assign.any(axis=1)  # [f, m]
        # F * comb(u + M - 1, M - 1) > F * u for M >= 2, so no u above
        # _GRID_CELLS // F fits, and starting there skips none that does
        units = max(1, round(min(1.0 / grid_step, _GRID_CELLS // len(choices))))
        while units > 1 and len(choices) * math.comb(units + M - 1, M - 1) > _GRID_CELLS:
            units -= 1
        self.grid = _simplex_grid(M, 1.0 / units)
        # every tilt the grid scan starts a query from, computed once; read
        # only, since a query gathers its rows from them
        self.c_grid, self.h_grid, self.p_grid = self._tilt(self.grid)
        for cached in (self.grid, self.c_grid, self.h_grid, self.p_grid):
            cached.setflags(write=False)
        self.off_grid = ((self.grid[None] > 0) & ~self.image[:, None, :]).any(axis=2)
        # [f, grid point]: sum_j beta_j c_j, -inf where mu leaves f's image
        self.c_on = np.where(self.off_grid, -np.inf, self.c_grid)
        self.identity = np.eye(M)
        self.diagonal = self.identity == 1

    def _tilt(self, mu: np.ndarray):
        """sum_j beta_j c_j(mu), h_m of the tilted P, and P, for each row of
        mu. Every reduction runs row by row, outside BLAS (whose gemv rounds
        a row differently with the number of rows beside it), so a row's
        values do not depend on the rows stacked with it."""
        logits = np.einsum("rm,jmk->rjk", mu, self.logQ)
        lse = _logsumexp(logits)
        logp = logits - lse[..., None]
        p = np.exp(logp)
        h = np.einsum("rj,j->r", (p * logp).sum(axis=-1), self.betas)[:, None] \
            - np.einsum("rjk,jmk,j->rm", p, self.logQ, self.betas)
        return np.einsum("rj,j->r", -lse, self.betas), h, p

    def _newton(self, p, slack, free):
        """Maximiser of g_f's quadratic model on the free coordinates of the
        simplex (the others held at their value), as a step of at most 1 in
        every coordinate. The Hessian in mu is -sum_j beta_j Cov_P_j(log Q_j)."""
        L = self.logQ
        mean = np.einsum("rjk,jmk->rjm", p, L)
        cov = np.einsum("rjk,jmk,jnk->rjmn", p, L, L) - mean[..., :, None] * mean[..., None, :]
        R, M = slack.shape
        kkt = np.zeros((R, M + 1, M + 1))
        kkt[:, :M, :M] = np.where(free[:, :, None] & free[:, None, :],
                                  -np.einsum("j,rjmn->rmn", self.betas, cov), -self.identity)
        kkt[:, :M, M] = kkt[:, M, :M] = free
        rhs = np.zeros((R, M + 1, 1))
        rhs[:, :M, 0] = np.where(free, -slack, 0.0)
        step = _kkt_solve(kkt, rhs)[:, :M, 0]
        return step / np.maximum(1.0, np.abs(step).max(axis=1))[:, None]

    def bounds(self, e: np.ndarray, iters: int):
        """(lower, upper, witness) for each target matrix of the stack e
        (K, M, M): the witness is the tilt of least slack seen and upper its
        slack, computed from the same h as the search (the tests' slow
        objective gives the same value to rounding). A grid scan for every
        target and f at once, then up to ``iters`` damped Newton steps on each
        f with g_f < 0 and an open duality gap, until lower >= 0 or a tilt's
        slack below -1e-9 settles the target's verdict. Each target's rows
        take the steps of a call on that target alone: a settled target's
        rows leave the active ones, every target has ``iters`` steps, and
        ``_tilt`` computes each row without regard to the rows beside it. A
        single (M, M) target is a stack of one and gets floats and 1-D
        witness arrays."""
        if e.ndim == 2:
            lower, upper, p = self._bounds(e[None], iters)
            return (float(lower[0]), float(upper[0]),
                    tuple(p[0, j, :k].copy() for j, k in enumerate(self.sizes)))
        lower, upper, p = self._bounds(e, iters)
        return lower, upper, tuple(p[:, j, :k].copy() for j, k in enumerate(self.sizes))

    def _bounds(self, e: np.ndarray, iters: int):
        K, M, F = len(e), e.shape[1], len(self.assign)
        eps = np.where(self.assign, e[:, None], np.inf).min(axis=2)  # eps_f, inf off image
        eps0 = np.where(self.image, eps, 0.0)
        g_grid = self.c_on - eps0 @ self.grid.T
        eps, eps0 = eps.reshape(K * F, M), eps0.reshape(K * F, M)
        e_off = np.where(self.diagonal, -np.inf, e)

        def at(rows, mu):
            c, h, p = self._tilt(mu)
            # h - eps is -inf off f's image, where eps is inf and h finite
            return c - (mu * eps0[rows]).sum(axis=1), h - eps[rows], h, p

        def objective(h, e_rows):
            return (h[..., None, :] - e_rows).min(axis=-1).max(axis=-1)

        rows = np.arange(K * F)
        offsets = rows[::F]  # each target's first row
        # the grid points' tilts are cached; _tilt computes each row alone, so
        # a gathered row has the bits of a fresh tilt of that row
        idx = g_grid.argmax(axis=2).reshape(-1)
        mu, h, p = self.grid[idx], self.h_grid[idx], self.p_grid[idx]
        g = self.c_grid[idx] - (mu * eps0).sum(axis=1)
        slack = h - eps
        obj = objective(h.reshape(K, F, M), e_off[:, None])
        best_obj, best_p = obj.min(axis=1), p[obj.argmin(axis=1) + offsets]
        damp = np.ones(K * F)
        for it in range(iters + 1):  # the pass after the last step takes lower
            lower = g.reshape(K, F).min(axis=1)
            open_ = (lower < 0) & (best_obj >= -1e-9)  # both finite
            if it == iters or not np.count_nonzero(open_):
                break
            act = rows[(g < 0) & (damp > 1e-9) & (slack.max(axis=1) - g > 1e-13)
                       & open_.repeat(F)]
            if not act.size:
                break
            target = act // F
            image = self.image[act - F * target]
            mu_a, g_a, slack_a, damp_a = mu[act], g[act], slack[act], damp[act]
            free = image & ((mu_a > 0) | (slack_a > g_a[:, None]))
            step = self._newton(p[act], slack_a, free)
            cand = np.maximum(mu_a + damp_a[:, None] * step, 0.0) * image
            cand /= cand.sum(axis=1, keepdims=True)
            g2, slack2, h2, p2 = at(act, cand)
            # each target's least new slack, the first of its active rows on ties
            seen = np.full(K * F, np.inf)
            seen[act] = objective(h2, e_off[target])
            seen = seen.reshape(K, F)
            least = seen.min(axis=1)
            new = least < best_obj
            if np.count_nonzero(new):
                best_obj[new] = least[new]
                best_p[new] = p2[np.searchsorted(act, (seen.argmin(axis=1) + offsets)[new])]
            up = g2 > g_a
            better = act[up]
            mu[better], g[better], slack[better], p[better] = cand[up], g2[up], slack2[up], p2[up]
            damp[act] = np.where(up, 1.0, damp_a / 4)
        return lower, best_obj, best_p


# The last dual built and the exact content it was built from: one slot, so
# a batch of queries on one model, proportion and grid step builds it once.
_last_dual: tuple[tuple, _TuncelDual] | None = None


def _dual_for(model: JointModel, beta_sources: np.ndarray, grid_step: float) -> _TuncelDual:
    """The dual of ``model`` at ``beta_sources``, reused while the content
    matches: M, the alphabet, every pmf's shape and float64 bytes, the
    proportions' shape and float64 bytes, and the grid step. A pmf changed in
    place gets a new dual; a model or proportion the dual refuses is never
    stored, so it raises on every call."""
    global _last_dual
    betas = np.asarray(beta_sources, dtype=np.float64)
    key = (model.M, model.alphabet,
           tuple((p.shape, np.asarray(p, dtype=np.float64).tobytes()) for p in model.pmfs),
           betas.shape, betas.tobytes(), grid_step)
    memo = _last_dual
    if memo is not None and memo[0] == key:
        return memo[1]
    dual = _TuncelDual(source_marginals(model), betas, grid_step)
    _last_dual = (key, dual)
    return dual


def tuncel_membership(exponents: np.ndarray, model: JointModel,
                      beta_sources: np.ndarray,
                      options: TuncelOptions | None = None) -> TuncelResult:
    """Membership in the fixed-length comparison region at a fixed per-source
    sampling proportion: a tuple is in when every sample type (auxiliary
    product distribution) can be assigned to a declared hypothesis whose
    demands it meets against all truths, that is when the slack is >= 0.
    "in" is certified by the dual lower bound, "out" comes with a witness
    whose slack is below -1e-9, and "unresolved" is the band between."""
    e = _as_matrix(exponents, model.M)
    options = options or TuncelOptions()
    lower, upper, witness = _dual_for(model, beta_sources, options.grid_step).bounds(
        e, options.descent_iters)
    if lower >= 0.0:
        return TuncelResult("in", lower, upper, None)
    if upper < -1e-9:
        return TuncelResult("out", lower, upper, witness)
    return TuncelResult("unresolved", lower, upper, witness)


# ---------------------------------------------------------------------------
# Slices of the per-hypothesis error-probability exponent region
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlicePolyline:
    axes: tuple[int, int]
    points: np.ndarray  # ordered boundary vertices, shape (K, 2)


def _cap_along(sub: PerMRegion, fix_pos: int, value: float, free_pos: int) -> float | None:
    """Largest free coordinate with the other coordinate pinned, or None if
    the pinned value already exceeds the sub-region."""
    if value > float(sub.coord_max[fix_pos]) + 1e-9:
        return None
    cap = np.inf
    for n, b in sub.facets:
        if n[free_pos] > 1e-12:
            cap = min(cap, (b - n[fix_pos] * value) / n[free_pos])
    return max(0.0, float(cap))


def _clip_polygon(points: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex CCW polygon by n.p <= offset."""
    if len(points) == 0:
        return points
    out: list[np.ndarray] = []
    k = len(points)
    for i in range(k):
        p, q = points[i], points[(i + 1) % k]
        dp, dq = float(normal @ p - offset), float(normal @ q - offset)
        if dp <= 1e-12:
            out.append(p)
        if (dp < -1e-12 < dq) or (dq < -1e-12 < dp):
            t = dp / (dp - dq)
            out.append(p + t * (q - p))
    return _unique_rows(np.reshape(out, (-1, 2)), 1e-12)


def _slice_axes(fixed: dict[int, float]) -> tuple[int, float, int, int]:
    """The fixed axis k and its value v of an M = 3 slice, then the free axes
    i < j. An error exponent is >= 0, so v must be finite and >= 0."""
    (k, v), = fixed.items()
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"fixed exponent must be finite and >= 0, got {v}")
    i, j = [t for t in range(3) if t != k]
    return k, v, i, j


def individual_hypothesis_region_slice(region: ExponentRegion,
                                       fixed: dict[int, float] | None = None
                                       ) -> SlicePolyline:
    """Boundary of the achievable per-hypothesis exponent tuples, as a 2-D
    ordered vertex list.

    A tuple (e_0..e_{M-1}) is achievable exactly when, for every declared
    hypothesis m, the coordinates excluding m lie in that sub-region (set each
    pairwise exponent to the per-truth value; downward closure does the rest).
    M=2 needs no fixed coordinate; M=3 needs exactly one. Larger M is not
    supported as a 2-D slice.
    """
    fixed = fixed or {}
    if region.M == 2:
        if fixed:
            raise UnsupportedDimension("binary case has no coordinate to fix")
        x = float(region.per_m[1].coord_max[0])  # theta=0 bound from declared 1
        y = float(region.per_m[0].coord_max[0])  # theta=1 bound from declared 0
        pts = np.array([[0.0, 0.0], [x, 0.0], [x, y], [0.0, y]])
        return SlicePolyline((0, 1), pts)
    if region.M != 3:
        raise UnsupportedDimension("2-D slices cover M in {2, 3} only")
    if len(fixed) != 1:
        raise UnsupportedDimension("fix exactly one coordinate for M=3")
    k, v, i, j = _slice_axes(fixed)
    sub_i, sub_j = region.per_m[i], region.per_m[j]
    cap_i = _cap_along(sub_j, sub_j.thetas.index(k), v, sub_j.thetas.index(i))
    cap_j = _cap_along(sub_i, sub_i.thetas.index(k), v, sub_i.thetas.index(j))
    if cap_i is None or cap_j is None:
        return SlicePolyline((i, j), np.zeros((0, 2)))
    poly_pts = _clip_polygon(region.per_m[k].boundary, np.array([1.0, 0.0]), cap_i)
    poly_pts = _clip_polygon(poly_pts, np.array([0.0, 1.0]), cap_j)
    return SlicePolyline((i, j), poly_pts)


def nonadaptive_slice(table: DivergenceTable, poly: ConstraintPolytope,
                      fixed: dict[int, float], step: float | None = None) -> SlicePolyline:
    """Exact slice of the shared-frequency region at e_k = v, as its CCW
    boundary from the origin; empty when no frequency reaches v.

    (x, y) is in the slice when one beta in the polytope has D(m, i).beta >= x,
    D(m, j).beta >= y and D(m, k).beta >= v against every declared m. That
    set is a projection of a polytope, so it is convex, and ``_planar_front``
    finds its front with one LP over (beta, x, y) per call. ``step`` is
    accepted and unused.
    """
    if table.M != 3 or len(fixed) != 1:
        raise UnsupportedDimension("non-adaptive slices cover M=3 with one fixed axis")
    k, v, i, j = _slice_axes(fixed)
    pairs, rows = table.pair_rows()
    truth = np.array([t for _, t in pairs])
    # D(m, k).beta <= max D * total mass, the mass being 1 up to the model's
    # tolerance: past that by more than the LP's 1e-7, phase 1 would refuse
    # v anyway, after inf arithmetic on a huge v
    if v > rows[truth == k].max() * poly.eq_rhs.sum() + 1e-7:
        return SlicePolyline((i, j), np.zeros((0, 2)))
    lift = np.stack([truth == i, truth == j], axis=1).astype(float)
    lp = _lifted(poly, rows, lift, np.where(truth == k, -v, 0.0))
    if solve_lp(np.zeros(poly.dim + 2), *lp).status != "optimal":
        return SlicePolyline((i, j), np.zeros((0, 2)))

    def best(w: np.ndarray) -> np.ndarray:
        res = solve_lp(np.concatenate([np.zeros(poly.dim), w]), *lp)
        if res.status != "optimal":
            raise RuntimeError(f"slice LP unexpectedly {res.status}")
        return res.x[poly.dim:]

    front = _planar_front(best)
    return SlicePolyline((i, j), _closure_boundary(front, front[0][0], front[-1][1]))


# Bisection steps per fixed-length search, and the levels of them that
# tuncel_slice lays out for one dual call: 2^3 - 1 midpoints per search.
_BISECT_STEPS = 20
_SPECULATE = 3


def _bisect_certified(certified, searches, top: float) -> list[float | None]:
    """For each (gate, line) of ``searches``: None when ``certified`` does
    not pass the point ``gate``, else the lower end of the 20-step bisection
    of [0, top] for the largest value whose point ``line(value)`` it passes.
    ``certified`` takes a list of points and returns one verdict per point.

    Each call of ``certified`` lays out, for every open search, the
    midpoints of its next _SPECULATE levels, each (lo + hi) / 2 of its
    parent's bracket, with every gate in the first call. Walking each tree
    by the verdicts replays the step-by-step bisection for any verdicts, so
    the results are its floats."""
    brackets = {s: (0.0, top) for s in range(len(searches))}
    gates = [gate for gate, _ in searches]
    for done in range(0, _BISECT_STEPS, _SPECULATE):
        levels = min(_SPECULATE, _BISECT_STEPS - done)
        trees = {}
        for s, (lo, hi) in brackets.items():
            # heap order: node n's halves are 2n + 1 (mid passed) and 2n + 2
            tree = [(lo, hi)]
            for n in range((1 << (levels - 1)) - 1):
                a, b = tree[n]
                mid = (a + b) / 2
                tree += [(mid, b), (a, mid)]
            trees[s] = tree
        points = gates + [searches[s][1]((a + b) / 2) for s, tree in trees.items()
                          for a, b in tree]
        if not points:
            break
        ok = certified(points)
        brackets = {s: br for s, br in brackets.items() if not gates or ok[s]}
        at, gates = len(gates), []
        for s, tree in trees.items():
            n = 0
            for _ in range(levels):
                a, b = tree[n]
                mid = (a + b) / 2
                bracket, n = ((mid, b), 2 * n + 1) if ok[at + n] else ((a, mid), 2 * n + 2)
            if s in brackets:
                brackets[s] = bracket
            at += len(tree)
    return [brackets[s][0] if s in brackets else None for s in range(len(searches))]


def tuncel_slice(model: JointModel, beta_sources: np.ndarray,
                 fixed: dict[int, float], samples: int = 17,
                 options: TuncelOptions | None = None) -> SlicePolyline:
    """Sampled boundary of the fixed-length region slice at one sampling
    proportion, every returned point certified "in" by the dual. x_max is
    the largest x of (x, 0) that a 20-step bisection finds certified, if
    (0, 0) is; then, at each of ``samples`` x values from 0 to x_max whose
    (x, 0) is certified, the largest y is bisected the same way.

    The bisections run speculatively (``_bisect_certified``): one stacked
    dual call covers three levels of every search at once, 14 calls per
    slice where one call per step took 21 + 21 * samples, and the points
    are the same floats."""
    if model.M != 3 or len(fixed) != 1:
        raise UnsupportedDimension("fixed-length slices cover M=3 with one fixed axis")
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    k, v, i, j = _slice_axes(fixed)
    options = options or TuncelOptions()
    dual = _dual_for(model, beta_sources, options.grid_step)
    Q = dual.Q
    top = max(kl(Q[a][jj], Q[b][jj]) for a in range(3) for b in range(3)
              for jj in range(model.n) if a != b) * model.n

    def certified(points) -> list[bool]:
        # Per-truth exponents: demanding e_m of every declared hypothesis is
        # the easiest tuple consistent with a per-truth floor of e_m.
        e = np.empty((len(points), 3))
        e[:, k] = v
        e[:, [i, j]] = points
        return (dual.bounds(np.repeat(e[:, None, :], 3, axis=1), options.descent_iters)[0]
                >= 0.0).tolist()

    x_max, = _bisect_certified(certified, [((0.0, 0.0), lambda x: (x, 0.0))], top)
    if x_max is None:
        return SlicePolyline((i, j), np.zeros((0, 2)))
    xs = np.linspace(0.0, x_max, samples).tolist()
    ys = _bisect_certified(certified, [((x, 0.0), lambda y, x=x: (x, y)) for x in xs], top)
    return SlicePolyline((i, j), np.array([(x, y) for x, y in zip(xs, ys) if y is not None]))
