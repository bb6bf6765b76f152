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
from .errors import (DimensionMismatch, InfeasiblePolytope, NotChernoffForm,
                     UnsupportedDimension)
from .linprog import LpResult, lp_feasible, solve_lp
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

    actions: ActionSpace
    avail: AvailabilityDist
    budgets: BudgetSpec
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    budget_matrix: np.ndarray
    budget_rhs: np.ndarray
    _vertices: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.actions.size * len(self.avail.sets)

    @property
    def vertices(self) -> np.ndarray:
        if self._vertices is None:
            self._vertices = enumerate_vertices(self)
        return self._vertices

    def beta_shape(self) -> tuple[int, int]:
        return (self.actions.size, len(self.avail.sets))


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
    return ConstraintPolytope(actions, avail, budgets, E, avail.probs.copy(),
                              G, budgets.rates.copy())


def enumerate_vertices(poly: ConstraintPolytope, tol: float = VERTEX_TOL) -> np.ndarray:
    """All extreme points of the constraint polytope, deduplicated.

    Active-set enumeration: a vertex is the unique solution of the equality
    system plus a choice of tight inequalities completing it to full rank.
    Dimension stays small at desk scale, so exhaustive choice is affordable.
    """
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


def _unique_rows(points: np.ndarray, tol: float) -> np.ndarray:
    """Rows in input order, each dropped when it lies within ``tol``
    (max-abs) of an earlier kept row."""
    # A repeat of an earlier row is always dropped, so only first copies need
    # the pairwise test; without this, k copies would make k^2/2 close pairs.
    first = np.sort(np.unique(points, axis=0, return_index=True)[1])
    points = points[first]
    n, d = points.shape
    # Close rows differ by at most tol * sum(w) along w (plus rounding), so in
    # projection order they sit within a short window; widen it until empty.
    w = np.sqrt(np.arange(2.0, d + 2.0))
    reach = w.sum() * (tol + 4 * d * np.finfo(float).eps * np.abs(points).max(initial=0.0))
    proj = points @ w
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    pairs = [np.zeros((0, 2), dtype=np.intp)]
    for gap in range(1, n):
        near = np.flatnonzero(proj[gap:] - proj[:-gap] <= reach)
        if near.size == 0:
            break
        a, b = order[near], order[near + gap]
        close = np.max(np.abs(points[a] - points[b]), axis=1) <= tol
        pairs.append(np.sort(np.stack([a[close], b[close]], axis=1), axis=1))
    pairs = np.concatenate(pairs)
    pairs = pairs[np.argsort(pairs[:, 1], kind="stable")]
    keep = np.ones(n, dtype=bool)
    later, starts = np.unique(pairs[:, 1], return_index=True)
    for j, earlier in zip(later, np.split(pairs[:, 0], starts[1:])):
        keep[j] = not keep[earlier].any()
    return points[keep]


@dataclass(frozen=True)
class PerMRegion:
    """Achievable sub-region for one declared hypothesis.

    ``corners[v]`` holds the exponent tuple reachable at polytope vertex v,
    coordinates ordered by ``thetas``. The sub-region is the downward closure
    of the convex hull of these corners, intersected with the nonnegative
    orthant. ``facets`` are (unit normal, offset) pairs meaning n.e <= b;
    None when the dimension made exact facet extraction unavailable, in which
    case membership falls back to a feasibility LP over the corners.
    """

    declared: int
    thetas: tuple[int, ...]
    corners: np.ndarray
    vertices: np.ndarray
    facets: tuple[tuple[tuple[float, ...], float], ...] | None
    coord_max: np.ndarray
    boundary: np.ndarray | None = None  # CCW polyline, 2-D regions only

    def contains(self, e: np.ndarray, tol: float = 1e-9) -> bool:
        e = np.asarray(e, dtype=float).reshape(-1)
        if e.size != len(self.thetas):
            raise DimensionMismatch(
                f"expected {len(self.thetas)} coordinates, got {e.size}")
        if np.any(e < -tol):
            return False
        if self.facets is not None:
            return self.margin(e) >= -tol
        return _corner_lp_contains(self.corners, e)

    def margin(self, e: np.ndarray) -> float:
        """Smallest signed facet slack (positive strictly inside)."""
        if self.facets is None:
            raise ValueError("facet representation unavailable")
        e = np.asarray(e, dtype=float).reshape(-1)
        vals = [b - float(np.dot(n, e)) for n, b in self.facets]
        return min(vals)


def _corner_lp_contains(corners: np.ndarray, e: np.ndarray, tol: float = 1e-9) -> bool:
    # e is in the closure-hull iff some convex combination of corners
    # dominates it coordinatewise.
    v = corners.shape[0]
    A_eq = np.ones((1, v))
    b_eq = np.ones(1)
    A_ub = -corners.T
    b_ub = -(e - tol)
    return lp_feasible(A_eq, b_eq, A_ub, b_ub, v).status == "optimal"


def _pareto_max(points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
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


def _staircase_2d(corners: np.ndarray):
    """Facets, hull vertices, and CCW boundary of the planar closure-hull."""
    xmax = float(corners[:, 0].max(initial=0.0))
    ymax = float(corners[:, 1].max(initial=0.0))
    facets = [((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0),
              ((1.0, 0.0), xmax), ((0.0, 1.0), ymax)]
    if xmax <= 0 and ymax <= 0:
        verts = np.zeros((1, 2))
        return tuple(facets), verts, verts
    pts = _pareto_max(corners)
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


def _masked_points(corners: np.ndarray) -> np.ndarray:
    d = corners.shape[1]
    masks = np.array(list(itertools.product([0.0, 1.0], repeat=d)))
    pts = (corners[:, None, :] * masks[None, :, :]).reshape(-1, d)
    return _unique_rows(pts, 1e-12)


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
        return None, _unique_rows(pts, 1e-12)
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

    def sub(self, m: int) -> PerMRegion:
        return self.per_m[m]

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
    return e


def compute_region(table: DivergenceTable, poly: ConstraintPolytope) -> ExponentRegion:
    return ExponentRegion(table.M, tuple(region_polytope(table, poly, m)
                                         for m in range(table.M)))


def membership(exponents: np.ndarray, region: ExponentRegion, tol: float = 1e-9) -> bool:
    """Whether an (M, M) exponent matrix (zero diagonal) is achievable."""
    return region.contains(exponents, tol)


def chernoff_region(table: DivergenceTable) -> ExponentRegion:
    """Region for the classic setup: one full availability set, singleton
    actions, no budgets. Equals the general construction on that polytope."""
    sets = table.avail.sets
    if len(sets) != 1 or abs(float(table.avail.probs[0]) - 1.0) > 1e-12:
        raise NotChernoffForm("need a single always-available source set")
    z = sets[0]
    if z != tuple(range(1, len(z) + 1)):
        raise NotChernoffForm("availability set must be the full source range")
    expected = {()} | {(j,) for j in z}
    if set(table.actions.actions) != expected:
        raise NotChernoffForm("actions must be the empty set plus all singletons")
    poly = build_polytope(table.avail, table.actions, BudgetSpec.none(len(z)))
    return compute_region(table, poly)


def nonadaptive_feasibility(exponents: np.ndarray, table: DivergenceTable,
                            poly: ConstraintPolytope) -> LpResult:
    """Feasibility LP for a single shared selection frequency achieving every
    pairwise exponent simultaneously."""
    e = _as_matrix(exponents, table.M)
    pairs, rows = table.pair_rows()
    targets = np.array([e[m, t] for m, t in pairs])
    A_ub = np.vstack([poly.budget_matrix, -rows])
    b_ub = np.concatenate([poly.budget_rhs, -targets])
    return lp_feasible(poly.eq_matrix, poly.eq_rhs, A_ub, b_ub, poly.dim)


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
    for m in range(table.M):
        thetas = [t for t in range(table.M) if t != m]
        c = np.zeros(d + 1)
        c[-1] = 1.0
        A_eq = np.hstack([poly.eq_matrix, np.zeros((poly.eq_matrix.shape[0], 1))])
        rows = []
        for t in thetas:
            r = np.zeros(d + 1)
            r[:d] = -table.pair_matrix(m, t).reshape(-1)
            r[-1] = 1.0
            rows.append(r)
        A_ub = np.vstack([np.hstack([poly.budget_matrix,
                                     np.zeros((poly.budget_matrix.shape[0], 1))]),
                          np.array(rows)])
        b_ub = np.concatenate([poly.budget_rhs, np.zeros(len(thetas))])
        res = solve_lp(c, A_eq, poly.eq_rhs, A_ub, b_ub)
        if res.status != "optimal":
            raise RuntimeError(f"risk-exponent LP unexpectedly {res.status}")
        gammas[m] = res.objective
        argmax.append(res.x[:d].reshape(poly.beta_shape()))
    return gammas, argmax


# ---------------------------------------------------------------------------
# Fixed-length (single-shot) comparison region and slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuncelOptions:
    """Search controls for the fixed-length region membership test."""

    grid_step: float = 0.05
    descent_starts: int = 6
    descent_iters: int = 400
    max_grid_points: int = 200_000
    seed: int = 0


@dataclass(frozen=True)
class TuncelResult:
    status: str  # "in" | "out" | "unresolved"
    value: float
    witness: tuple[np.ndarray, ...] | None


def source_marginals(model: JointModel) -> list[list[np.ndarray]]:
    """Per-source marginals Q[theta][j-1]; requires a product-form model."""
    out = []
    for t in range(model.M):
        margs = [marginal(model, (j,), (j,), t).probs for j in range(1, model.n + 1)]
        prod = margs[0]
        for q in margs[1:]:
            prod = np.multiply.outer(prod, q)
        if np.max(np.abs(prod - model.pmfs[t])) > 1e-9:
            raise ValueError("fixed-length comparison needs independent sources")
        out.append(margs)
    return out


def _simplex_grid(k: int, step: float) -> np.ndarray:
    units = max(1, round(1.0 / step))
    pts = []
    for cuts in itertools.combinations(range(units + k - 1), k - 1):
        prev, comp = -1, []
        for c in cuts:
            comp.append(c - prev - 1)
            prev = c
        comp.append(units + k - 2 - prev)
        pts.append(comp)
    return np.array(pts, dtype=float) / units


def _tuncel_objective(P: list[np.ndarray], Q, betas: np.ndarray,
                      targets: np.ndarray) -> tuple[float, int, int]:
    """Worst-case slack of one auxiliary product distribution.

    ``targets[t, m]`` is the exponent demanded of declared t against truth m.
    A sample type P is assigned to the declared hypothesis that tolerates it
    best: for candidate t, the margin is the worst over truths m of
    (sum_j beta_j KL(P_j || Q_m_j)) - targets[t, m]. Returns the best margin
    and the active (declared, truth) pair.
    """
    M = len(Q)
    h = [sum(betas[j] * kl(P[j], Q[m][j]) for j in range(len(P))) for m in range(M)]
    best_val, best_t, best_m = -np.inf, 0, 0
    for t in range(M):
        worst, worst_m = np.inf, 0
        for m in range(M):
            if m == t:
                continue
            v = h[m] - targets[t, m]
            if v < worst:
                worst, worst_m = v, m
        if worst > best_val:
            best_val, best_t, best_m = worst, t, worst_m
    return best_val, best_t, best_m


class _TuncelEvaluator:
    """Reusable grid + descent minimizer of the worst-case divergence slack.

    The objective is a max over declared hypotheses of a min over truths, so
    it is not convex in P; minimization over the product of source simplices
    is heuristic. A vectorized simplex grid scan provides dense coverage
    (including every hypothesis's own marginals, the binding probes), and
    entropic mirror descent refines the best starts.
    """

    def __init__(self, Q, betas: np.ndarray, options: TuncelOptions):
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


def tuncel_membership(exponents: np.ndarray, model: JointModel,
                      beta_sources: np.ndarray,
                      options: TuncelOptions | None = None) -> TuncelResult:
    """Membership in the fixed-length comparison region at a fixed per-source
    sampling proportion.

    A tuple is in the region when every auxiliary product distribution (every
    possible sample type) can be assigned to some declared hypothesis whose
    exponent demands it meets against all truths. Returns "in" when the
    minimized slack stayed nonnegative under the grid-plus-descent search
    (heuristic: the objective is a nonconvex max-min), "out" with an exact
    witness when it drops below -1e-9, "unresolved" in the boundary band.
    """
    options = options or TuncelOptions()
    e = _as_matrix(exponents, model.M)
    Q = source_marginals(model)
    betas = np.asarray(beta_sources, dtype=float).reshape(-1)
    if betas.size != model.n:
        raise DimensionMismatch("need one sampling proportion per source")
    val, witness = _TuncelEvaluator(Q, betas, options).min_slack(e)
    if abs(val) <= 1e-12:
        val = 0.0
    if val < -1e-9:
        return TuncelResult("out", val, witness)
    if val >= 0.0:
        return TuncelResult("in", val, None)
    return TuncelResult("unresolved", val, witness)


def _e_tuple_targets(e_vec: np.ndarray, M: int) -> np.ndarray:
    # Per-truth exponents: demanding e_m of every declared hypothesis is the
    # easiest tuple consistent with a per-truth floor of e_m.
    e_vec = np.asarray(e_vec, dtype=float).reshape(-1)
    return np.tile(e_vec, (M, 1))


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
    dedup: list[np.ndarray] = []
    for p in out:
        if not dedup or np.max(np.abs(p - dedup[-1])) > 1e-12:
            dedup.append(p)
    if len(dedup) > 1 and np.max(np.abs(dedup[0] - dedup[-1])) <= 1e-12:
        dedup.pop()
    return np.array(dedup) if dedup else np.zeros((0, 2))


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
        x = float(region.sub(1).coord_max[0])  # theta=0 bound from declared 1
        y = float(region.sub(0).coord_max[0])  # theta=1 bound from declared 0
        pts = np.array([[0.0, 0.0], [x, 0.0], [x, y], [0.0, y]])
        return SlicePolyline((0, 1), pts)
    if region.M != 3:
        raise UnsupportedDimension("2-D slices cover M in {2, 3} only")
    if len(fixed) != 1:
        raise UnsupportedDimension("fix exactly one coordinate for M=3")
    (k, v), = fixed.items()
    i, j = [t for t in range(3) if t != k]
    sub_k = region.sub(k)
    poly_pts = sub_k.boundary.copy()
    cap_i = _cap_along(region.sub(j), region.sub(j).thetas.index(k), v,
                       region.sub(j).thetas.index(i))
    cap_j = _cap_along(region.sub(i), region.sub(i).thetas.index(k), v,
                       region.sub(i).thetas.index(j))
    if cap_i is None or cap_j is None:
        return SlicePolyline((i, j), np.zeros((0, 2)))
    poly_pts = _clip_polygon(poly_pts, np.array([1.0, 0.0]), cap_i)
    poly_pts = _clip_polygon(poly_pts, np.array([0.0, 1.0]), cap_j)
    return SlicePolyline((i, j), poly_pts)


def constraint_grid(poly: ConstraintPolytope, step: float = 0.02,
                    max_points: int = 500_000) -> np.ndarray:
    """Feasible selection frequencies on a per-availability-set simplex grid."""
    n_a = poly.actions.size
    n_z = len(poly.avail.probs)
    # Size the grid before building it: one simplex grid has C(units+k-1, k-1) rows.
    total = math.comb(max(1, round(1.0 / step)) + n_a - 1, n_a - 1) ** n_z
    if total > max_points:
        raise ValueError(f"grid of {total} points exceeds cap; coarsen the step")
    per_set = [_simplex_grid(n_a, step) * float(alpha) for alpha in poly.avail.probs]
    out = np.zeros((total, n_a * n_z))
    for row, combo in enumerate(itertools.product(*per_set)):
        beta = np.stack(combo, axis=1)  # (n_a, n_z)
        out[row] = beta.reshape(-1)
    if poly.budget_matrix.shape[0]:
        ok = np.all(out @ poly.budget_matrix.T <= poly.budget_rhs + 1e-12, axis=1)
        out = out[ok]
    return out


def nonadaptive_slice(table: DivergenceTable, poly: ConstraintPolytope,
                      fixed: dict[int, float], step: float = 0.01) -> SlicePolyline:
    """Staircase boundary of the shared-frequency per-hypothesis region slice.

    The non-adaptive region is a union of boxes over one shared frequency, so
    its slice boundary is the Pareto staircase of the grid's box corners.
    """
    if table.M != 3 or len(fixed) != 1:
        raise UnsupportedDimension("non-adaptive slices cover M=3 with one fixed axis")
    (k, v), = fixed.items()
    i, j = [t for t in range(3) if t != k]
    grid = constraint_grid(poly, step)
    pairs, rows = table.pair_rows()
    vals = grid @ rows.T  # (N, M(M-1)) pairwise exponents
    by_truth = {t: [pi for pi, (m, tt) in enumerate(pairs) if tt == t] for t in range(3)}
    g = np.stack([vals[:, by_truth[t]].min(axis=1) for t in range(3)], axis=1)
    feas = g[:, k] >= v - 1e-12
    if not np.any(feas):
        return SlicePolyline((i, j), np.zeros((0, 2)))
    corners = g[feas][:, [i, j]]
    front = _pareto_max(corners)
    front = front[np.argsort(-front[:, 0])]
    pts: list[np.ndarray] = [np.array([front[0, 0], 0.0])]
    cur_y = 0.0
    for p in front:
        if p[1] > cur_y + 1e-12:
            pts.append(np.array([p[0], cur_y]))
            pts.append(np.array([p[0], p[1]]))
            cur_y = p[1]
    pts.append(np.array([0.0, cur_y]))
    return SlicePolyline((i, j), np.array(pts))


def tuncel_slice(model: JointModel, beta_sources: np.ndarray,
                 fixed: dict[int, float], samples: int = 17,
                 options: TuncelOptions | None = None) -> SlicePolyline:
    """Sampled boundary of the fixed-length region slice at one sampling
    proportion: for a sweep of x values, bisect the largest feasible y."""
    if model.M != 3 or len(fixed) != 1:
        raise UnsupportedDimension("fixed-length slices cover M=3 with one fixed axis")
    options = options or TuncelOptions(grid_step=0.1, descent_starts=4,
                                       descent_iters=120)
    (k, v), = fixed.items()
    i, j = [t for t in range(3) if t != k]
    Q = source_marginals(model)
    betas = np.asarray(beta_sources, dtype=float).reshape(-1)
    evaluator = _TuncelEvaluator(Q, betas, options)

    def feasible(x: float, y: float) -> bool:
        e = np.zeros(3)
        e[k], e[i], e[j] = v, x, y
        val, _ = evaluator.min_slack(_e_tuple_targets(e, 3))
        return val >= -1e-12

    hi_guess = max(kl(Q[a][jj], Q[b][jj]) for a in range(3) for b in range(3)
                   for jj in range(model.n) if a != b) * model.n
    if not feasible(0.0, 0.0):
        return SlicePolyline((i, j), np.zeros((0, 2)))
    lo, hi = 0.0, hi_guess
    for _ in range(20):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if feasible(mid, 0.0) else (lo, mid)
    x_max = lo
    pts = []
    for x in np.linspace(0.0, x_max, samples):
        lo, hi = 0.0, hi_guess
        if not feasible(float(x), 0.0):
            continue
        for _ in range(20):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if feasible(float(x), mid) else (lo, mid)
        pts.append(np.array([float(x), lo]))
    return SlicePolyline((i, j), np.array(pts))
