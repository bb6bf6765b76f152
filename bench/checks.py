"""Output checks computed apart from the program.

Everything here starts from the model file's JSON: KL tables in numpy, linear
programs in scipy's HiGHS, binomial tests from scipy.stats. The program's
only inputs to a check are the outputs being checked, plus the test
thresholds the simulation ran with (the martingale bound is a statement about
those thresholds). Each check returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.stats import binom, norm

TOL = 1e-7          # relative tolerance between a program value and HiGHS
BAND = 1e-6         # relative half-width of the membership boundary band
OUT_SLACK = -1e-9   # a fixed-length "out" witness must have slack below this
FIT_RATIO = 1.05    # fitted slope / e* ceiling
LEVEL = 1e-4        # family-wise level of each statistical check


@dataclass(frozen=True)
class System:
    """Model file in numpy: per-source PMFs, KL table, constraint polytope.

    ``kl[ai, zi, m, t]`` is KL(P_m || P_t) of the sources in action ai that
    are available in set zi; x is indexed like the program's frequencies,
    ``x[ai * n_z + zi]``.
    """

    M: int
    sources: list          # sources[t][j]: PMF of source j+1 under hypothesis t
    actions: list
    sets: list
    kl: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_ub: np.ndarray      # budgets only; x >= 0 is a bound
    b_ub: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.actions) * len(self.sets)

    def rows(self, m: int, t: int) -> np.ndarray:
        return self.kl[:, :, m, t].reshape(-1)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    pos = p > 0
    return float(np.sum(p[pos] * np.log(p[pos] / q[pos])))


def system(model: dict) -> System:
    M = model["M"]
    sources = [[np.asarray(p, dtype=float) for p in h["independent"]]
               for h in model["hypotheses"]]
    actions = [()] + [tuple(sorted(a)) for a in model["actions"]]
    sets = [tuple(sorted(e["subset"])) for e in model["availability"]]
    probs = np.array([e["prob"] for e in model["availability"]], dtype=float)
    n_a, n_z = len(actions), len(sets)
    kl = np.zeros((n_a, n_z, M, M))
    for ai, a in enumerate(actions):
        for zi, z in enumerate(sets):
            keep = sorted(set(a) & set(z))
            for m in range(M):
                for t in range(M):
                    kl[ai, zi, m, t] = sum(_kl(sources[m][j - 1], sources[t][j - 1])
                                           for j in keep)
    A_eq = np.zeros((n_z, n_a * n_z))
    for zi in range(n_z):
        A_eq[zi, zi::n_z] = 1.0
    budgets = model.get("budgets", [])
    A_ub = np.zeros((len(budgets), n_a * n_z))
    for i, b in enumerate(budgets):
        for ai, a in enumerate(actions):
            for zi, z in enumerate(sets):
                A_ub[i, ai * n_z + zi] = sum(b["coeff"][j - 1] for j in set(a) & set(z))
    b_ub = np.array([b["rate"] for b in budgets], dtype=float)
    return System(M, sources, actions, sets, kl, A_eq, probs, A_ub, b_ub)


def highs(c: np.ndarray, A_ub=None, b_ub=None, A_eq=None, b_eq=None, free: int = 0):
    """Maximize c.x by HiGHS; the last ``free`` variables are unbounded, the
    rest nonnegative. Returns (status, x, value), status 0 when optimal."""
    n = len(c)
    bounds = [(0, None)] * (n - free) + [(None, None)] * free
    r = linprog(-np.asarray(c, dtype=float), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                bounds=bounds, method="highs")
    return r.status, r.x, (-r.fun if r.status == 0 else None)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * (1.0 + abs(b))


def _ub(sys: System, extra_A=None, extra_b=None):
    """Budget rows plus optional extra rows, padded for extra variables."""
    A, b = sys.A_ub, sys.b_ub
    if extra_A is not None:
        A = np.vstack([np.hstack([A, np.zeros((A.shape[0], extra_A.shape[1] - A.shape[1]))]),
                       extra_A])
        b = np.concatenate([b, extra_b])
    return (A, b) if len(b) else (None, None)


def support(sys: System, obj: np.ndarray) -> float:
    """max obj.x over the constraint polytope."""
    A, b = _ub(sys)
    status, _, value = highs(obj, A, b, sys.A_eq, sys.b_eq)
    assert status == 0, "constraint polytope LP not optimal"
    return value


def feasible(sys: System, R: np.ndarray, targets: np.ndarray) -> bool:
    """Some x in the polytope with R x >= targets."""
    A, b = _ub(sys, -R, -np.asarray(targets, dtype=float))
    return highs(np.zeros(sys.dim), A, b, sys.A_eq, sys.b_eq)[0] == 0


# -------------------------------------------------------------------- region

def check_polytope(sys: System, V: np.ndarray, rng: np.random.Generator,
                   n_dirs: int = 8) -> list[str]:
    """Every vertex is feasible, and vertex maxima of random objectives equal
    the HiGHS optima."""
    out = []
    if len(V) == 0:
        return ["polytope: no vertices"]
    if V.min() < -1e-9:
        out.append(f"polytope: a vertex has a negative coordinate {V.min():.3g}")
    eq_err = np.abs(V @ sys.A_eq.T - sys.b_eq).max()
    if eq_err > 1e-9:
        out.append(f"polytope: a vertex misses an availability total by {eq_err:.3g}")
    if len(sys.b_ub) and (V @ sys.A_ub.T - sys.b_ub).max() > 1e-9:
        out.append("polytope: a vertex exceeds a budget")
    for _ in range(n_dirs):
        c = rng.standard_normal(sys.dim)
        best, opt = float((V @ c).max()), support(sys, c)
        if not _close(best, opt):
            out.append(f"polytope: vertex max {best:.10g} != HiGHS max {opt:.10g}")
    return out


def gamma_lp(sys: System, m: int) -> float:
    """max over x in the polytope of min over t != m of rows(m, t).x."""
    thetas = [t for t in range(sys.M) if t != m]
    c = np.zeros(sys.dim + 1)
    c[-1] = 1.0
    rows = np.hstack([-np.stack([sys.rows(m, t) for t in thetas]), np.ones((len(thetas), 1))])
    A, b = _ub(sys, rows, np.zeros(len(thetas)))
    A_eq = np.hstack([sys.A_eq, np.zeros((sys.A_eq.shape[0], 1))])
    status, _, value = highs(c, A, b, A_eq, sys.b_eq, free=1)
    assert status == 0, "max-min LP not optimal"
    return value


def check_region(sys: System, payload: dict, rng: np.random.Generator,
                 n_dirs: int = 8) -> list[str]:
    """Region JSON against its support function, its facets and gamma."""
    out = []
    if len(payload["per_m"]) != sys.M:
        return [f"region: {len(payload['per_m'])} sub-regions for M = {sys.M}"]
    for m, g in enumerate(payload["gamma"]):
        ref = gamma_lp(sys, m)
        if not _close(g, ref):
            out.append(f"gamma[{m}] = {g:.10g}, HiGHS max-min {ref:.10g}")
    for sub in payload["per_m"]:
        m, thetas = sub["declared"], sub["thetas"]
        R = np.stack([sys.rows(m, t) for t in thetas])
        corners = np.asarray(sub["corners"], dtype=float)
        verts = np.asarray(sub["vertices"], dtype=float)
        facets = sub["facets"]
        if facets is None:
            out.append(f"m={m}: no facet representation")
            continue
        N = np.array([f["normal"] for f in facets], dtype=float)
        b = np.array([f["offset"] for f in facets], dtype=float)
        scale = 1.0 + np.abs(corners).max()
        if (corners @ N.T - b).max() > TOL * scale:
            out.append(f"m={m}: a corner violates a facet by {(corners @ N.T - b).max():.3g}")
        tight = (np.abs(verts @ N.T - b) <= TOL * scale).sum(axis=1)
        if tight.min() < len(thetas):
            out.append(f"m={m}: a hull vertex lies on only {tight.min()} facets "
                       f"(needs {len(thetas)})")
        for _ in range(n_dirs):
            w = rng.uniform(0.0, 1.0, size=len(thetas))
            ref = support(sys, w @ R)
            got = {"vertices": float((verts @ w).max()), "corners": float((corners @ w).max())}
            status, _, by_facets = highs(w, N, b, free=len(thetas))
            got["facets"] = by_facets if status == 0 else math.inf
            for what, val in got.items():
                if not _close(val, ref):
                    out.append(f"m={m}: support over {what} {val:.10g} != HiGHS {ref:.10g}")
    return out


def boundary_scale(sys: System, D: np.ndarray) -> float:
    """Largest s with s * D[m, t] achievable for every pair by one shared x."""
    pairs = [(m, t) for m in range(sys.M) for t in range(sys.M) if t != m]
    R = np.stack([sys.rows(m, t) for m, t in pairs])
    d = np.array([D[m, t] for m, t in pairs])
    c = np.zeros(sys.dim + 1)
    c[-1] = 1.0
    A, b = _ub(sys, np.hstack([-R, d[:, None]]), np.zeros(len(pairs)))
    A_eq = np.hstack([sys.A_eq, np.zeros((sys.A_eq.shape[0], 1))])
    status, _, value = highs(c, A, b, A_eq, sys.b_eq)
    assert status == 0, "boundary LP not optimal"
    return value


def nonadaptive_queries(sys: System, rng: np.random.Generator, count: int):
    """Exponent matrices spread across the shared-frequency boundary: a
    random direction scaled to u times its HiGHS boundary scale, u in
    [0.8, 1.2]. Returns (queries, expected verdicts, in-band flags)."""
    queries, expected, in_band = [], [], []
    directions = max(1, count // 8)
    for _ in range(directions):
        D = rng.uniform(0.2, 1.0, size=(sys.M, sys.M))
        np.fill_diagonal(D, 0.0)
        s = boundary_scale(sys, D)
        for u in rng.uniform(0.8, 1.2, size=count // directions):
            queries.append(u * s * D)
            expected.append(bool(u <= 1.0))
            in_band.append(abs(u - 1.0) <= BAND)
    return queries, expected, in_band


def check_verdicts(verdicts, expected, in_band) -> list[str]:
    bad = [i for i, (v, e, band) in enumerate(zip(verdicts, expected, in_band))
           if not band and bool(v) != e]
    return [f"{len(bad)} membership verdicts disagree with HiGHS (first: query {bad[0]})"] \
        if bad else []


# ------------------------------------------------------------ fixed length

def pairs_matrix(sys: System, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pairs = [(m, t) for m in range(sys.M) for t in range(sys.M) if t != m]
    return (np.stack([sys.rows(m, t) for m, t in pairs]),
            np.array([E[m, t] for m, t in pairs]))


def shared_feasible(sys: System, E: np.ndarray, tol: float = 1e-9) -> bool:
    R, targets = pairs_matrix(sys, E)
    return feasible(sys, R, targets - tol)


def corner(sys: System, beta_sources: np.ndarray) -> np.ndarray:
    """Pairwise exponents of sampling every source at its fixed proportion."""
    C = np.zeros((sys.M, sys.M))
    for m in range(sys.M):
        for t in range(sys.M):
            if t != m:
                C[m, t] = sum(beta_sources[j] * _kl(sys.sources[m][j], sys.sources[t][j])
                              for j in range(len(beta_sources)))
    return C


def fixed_length_queries(sys: System, beta_sources, rng, count: int) -> list[np.ndarray]:
    """The corner tuple scaled entrywise by U(0, 0.9), as in criterion 3."""
    C = corner(sys, beta_sources)
    out = []
    for _ in range(count):
        E = C * rng.uniform(0.0, 0.9, size=C.shape)
        np.fill_diagonal(E, 0.0)
        out.append(E)
    return out


def witness_slack(sys: System, beta_sources, E: np.ndarray, P) -> float:
    """max over declared d of min over truths m != d of
    sum_j beta_j KL(P_j || Q_m_j) - E[d, m]."""
    h = [sum(beta_sources[j] * _kl(np.asarray(P[j]), sys.sources[m][j])
             for j in range(len(beta_sources))) for m in range(sys.M)]
    return max(min(h[m] - E[d, m] for m in range(sys.M) if m != d) for d in range(sys.M))


def check_fixed_length(sys: System, beta_sources, queries, results) -> list[str]:
    """"out" needs a witness with recomputed slack below -1e-9; "in" must
    be feasible for the shared-frequency LP (fixed length implies shared
    frequency when every demand is positive)."""
    out = []
    for i, (E, res) in enumerate(zip(queries, results)):
        if res.status == "out":
            s = witness_slack(sys, beta_sources, E, res.witness)
            if not s < OUT_SLACK:
                out.append(f"query {i}: 'out' witness has slack {s:.3g}")
        elif res.status == "in" and not shared_feasible(sys, E):
            out.append(f"query {i}: 'in' but no shared frequency achieves it")
    return out


def check_slices(sys: System, fixed: tuple[int, float], adaptive, nonadaptive,
                 tuncel) -> list[str]:
    """Slice points at e_k = v: the non-adaptive and adaptive polylines lie in
    the adaptive region, and every fixed-length point with positive
    coordinates is feasible for the shared-frequency LP."""
    k, v = fixed
    i, j = [t for t in range(3) if t != k]
    out = []

    def e_vec(p):
        e = np.zeros(3)
        e[k], e[i], e[j] = v, p[0], p[1]
        return e

    def adaptive_ok(e):
        for m in range(3):
            thetas = [t for t in range(3) if t != m]
            R = np.stack([sys.rows(m, t) for t in thetas])
            if not feasible(sys, R, e[thetas] - 1e-9 * (1 + e[thetas])):
                return False
        return True

    for name, pts in (("adaptive", adaptive), ("nonadaptive", nonadaptive)):
        if len(pts) == 0:
            out.append(f"{name} slice is empty")
        bad = [p for p in pts if not adaptive_ok(e_vec(p))]
        if bad:
            out.append(f"{len(bad)} {name} slice points outside the adaptive region")
    if len(tuncel) == 0:
        out.append("fixed-length slice is empty")
    bad = [p for p in tuncel if min(p) > 0 and not shared_feasible(sys, np.tile(e_vec(p), (3, 1)))]
    if bad:
        out.append(f"{len(bad)} fixed-length slice points outside the shared-frequency region")
    return out


# ---------------------------------------------------------------- simulation

def check_cells(report, trials: int, thresholds: dict) -> list[str]:
    """Counts sum to the trials, no trial is invalid, every cell runs the
    adaptive regime, and pi(m|t) <= exp(-threshold[m, t]) in every cell as a
    one-sided binomial test at family-wise level LEVEL (Bonferroni)."""
    out = []
    M = report.M
    level = LEVEL / (len(report.cells) * (M - 1))
    for (T, t), cell in sorted(report.cells.items()):
        where = f"cell T={T:g} truth={t}"
        if cell.n_valid + cell.n_invalid != trials or int(cell.declared.sum()) != cell.n_valid:
            out.append(f"{where}: counts do not sum to {trials} trials")
        if cell.n_invalid:
            out.append(f"{where}: {cell.n_invalid} invalid trials")
        if cell.regime != 2:
            out.append(f"{where}: ran regime {cell.regime}")
        for m in range(M):
            if m == t:
                continue
            bound = math.exp(-max(float(thresholds[T][m, t]), 0.0))
            k = int(cell.declared[m])
            p = float(binom.sf(k - 1, cell.n_valid, bound))
            if p < level:
                out.append(f"{where}: {k}/{cell.n_valid} declared {m}, above "
                           f"exp(-threshold) = {bound:.3g} (p = {p:.2g})")
    return out


def check_fits(sys: System, fits: dict, betas) -> list[str]:
    """Every fitted slope is at most FIT_RATIO times e* = beta^m . KL(m, t)."""
    out = []
    for (m, t), f in sorted(fits.items()):
        if f.kind != "fit":
            continue
        estar = float(np.asarray(betas[m]).reshape(-1) @ sys.rows(m, t))
        if f.slope > FIT_RATIO * estar:
            out.append(f"({m}|{t}): fitted slope {f.slope:.4f} above {FIT_RATIO} e* = "
                       f"{FIT_RATIO * estar:.4f}")
    return out


def check_budget_rate(sys: System, report) -> list[str]:
    """Mean cost minus rate times mean stopping time is at most zero, as a
    one-sided z-test at family-wise level LEVEL. The cost per step has mean at
    most the rate whatever the estimate, because every frequency tuple lies in
    the constraint set and nothing is explored. The variance of cost - rate *
    tau is bounded by (sd(cost) + rate * sd(tau))^2."""
    out = []
    z = float(norm.isf(LEVEL / (len(report.cells) * len(sys.b_ub))))
    for (T, t), cell in sorted(report.cells.items()):
        n = cell.n_valid
        sd_tau = math.sqrt(max(cell.sum_tau2 / n - (cell.sum_tau / n) ** 2, 0.0))
        for i, rate in enumerate(sys.b_ub):
            mean_c = cell.sum_cost[i] / n
            sd_c = math.sqrt(max(cell.sum_cost2[i] / n - mean_c ** 2, 0.0))
            excess = mean_c - rate * cell.sum_tau / n
            if excess > z * (sd_c + rate * sd_tau) / math.sqrt(n):
                out.append(f"cell T={T:g} truth={t}: budget {i} usage "
                           f"{mean_c / (cell.sum_tau / n):.4f} per step above rate {rate}")
    return out


def check_csv(report, rows: list[dict]) -> list[str]:
    counts = {(float(r["T"]), int(r["truth"]), int(r["declared"])): int(r["count"]) for r in rows}
    want = {(T, t, m): int(c.declared[m]) for (T, t), c in report.cells.items()
            for m in range(report.M)}
    return [] if counts == want else ["results CSV counts differ from the report"]


def same_counts(a, b) -> list[str]:
    """Two reports of one configuration hold identical counts."""
    if a.cells.keys() != b.cells.keys():
        return ["worker-count runs cover different cells"]
    bad = [k for k in a.cells
           if not (np.array_equal(a.cells[k].declared, b.cells[k].declared)
                   and a.cells[k].n_invalid == b.cells[k].n_invalid
                   and a.cells[k].sum_tau == b.cells[k].sum_tau)]
    return [f"counts depend on the worker count in {len(bad)} cells"] if bad else []
