"""Small dense linear programming via two-phase tableau simplex.

Problems here have at most a few dozen variables (selection frequencies plus
slack), and at that size per-call overhead decides the speed. One tableau
B^-1 [A | b] and its reduced-cost row serve both phases, pivoted by rank-1
updates: phase 1 starts on the artificials, where B = I and the tableau is
[A | b] itself, and phase 2 continues phase 1's tableau. x and a Farkas
certificate are solved from the final basis. Bland's rule picks every pivot,
which guarantees termination and fixes which of several optima is returned. A
non-adaptive membership query on a 32-variable model takes 0.25 to 0.28 ms
(2 vCPUs); scipy's HiGHS takes 3.2 ms through ``scipy.optimize.linprog``,
and an infeasible query would need a second LP for its Farkas certificate.

Solves  max c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.

Infeasible problems come back with a Farkas certificate (y_eq, y_ub):
y_ub <= 0, y_eq.A_eq + y_ub.A_ub <= 0 componentwise, and
y_eq.b_eq + y_ub.b_ub > 0, which jointly rule out any feasible x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

_TOL = 1e-9


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    farkas_eq: np.ndarray | None = None
    farkas_ub: np.ndarray | None = None


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Bring column ``col`` into the basis at ``row``: a rank-1 update of T."""
    pivot_row = T[row] / T[row, col]
    T -= T[:, col, None] * pivot_row
    T[row] = pivot_row
    basis[row] = col


def _bland_simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> str:
    """Price T, rows B^-1 [A | b] over a row for the reduced costs, for
    ``cost``, then run simplex iterations (maximization) from its feasible
    basis, in place. Returns "optimal" or "unbounded".

    Each pivot is chosen on Python floats read from T, which at a few dozen
    entries costs less than numpy's per-call overhead; the update stays a
    numpy rank-1 update."""
    m, n = len(basis), T.shape[1] - 1
    T[m] = np.append(cost, 0.0) - cost[basis] @ T[:m]
    ids = basis.tolist()
    nonbasic = [True] * n
    for j in ids:
        nonbasic[j] = False
    for _ in range(20000):
        for entering, r in enumerate(T[m, :n].tolist()):
            if r > _TOL and nonbasic[entering]:
                break
        else:
            return "optimal"
        column, rhs = T[:m, entering].tolist(), T[:m, n].tolist()
        # Ratios max(r, 0) / a over rows with a > _TOL; nan stays nan, as in
        # np.maximum, and means the tableau overflowed.
        least = None
        for a, r in zip(column, rhs):
            if a > _TOL:
                ratio = (0.0 if r < 0.0 else r) / a
                if ratio != ratio:
                    raise ValueError("simplex ratio test met nan: the LP's entries overflow")
                if least is None or ratio < least:
                    least = ratio
        if least is None:
            return "unbounded"
        # Bland tie-break: among minimal ratios, leave the smallest column id.
        bound, leave = least + _TOL, -1
        for i, (a, r) in enumerate(zip(column, rhs)):
            if (a > _TOL and (0.0 if r < 0.0 else r) / a <= bound
                    and (leave < 0 or ids[i] < ids[leave])):
                leave = i
        nonbasic[ids[leave]], nonbasic[entering] = True, False
        ids[leave] = entering
        _pivot(T, basis, leave, entering)
    raise RuntimeError("simplex failed to terminate")


def _finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")


def _checked(A, b, n: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[1] != n or b.shape != A.shape[:1]:
        raise DimensionMismatch(f"A_{name} of shape {A.shape} and b_{name} of shape {b.shape} "
                                f"do not fit {n} variables")
    _finite(A, f"A_{name}")
    _finite(b, f"b_{name}")
    return A, b


def solve_lp(c: np.ndarray, A_eq: np.ndarray | None = None, b_eq: np.ndarray | None = None,
             A_ub: np.ndarray | None = None, b_ub: np.ndarray | None = None) -> LpResult:
    """Raises ``DimensionMismatch`` unless c is 1-D, each matrix is 2-D with
    c.size columns and each right-hand side has one entry per matrix row, and
    ``ValueError`` naming the first argument with a nan or inf entry."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise DimensionMismatch(f"c must be 1-D, got shape {c.shape}")
    _finite(c, "c")
    n = c.size
    A_eq, b_eq = _checked(A_eq, b_eq, n, "eq")
    A_ub, b_ub = _checked(A_ub, b_ub, n, "ub")
    m_eq, m_ub = A_eq.shape[0], A_ub.shape[0]
    m, n_std = m_eq + m_ub, n + m_ub
    if m == 0:
        if np.all(c <= _TOL):
            return LpResult("optimal", np.zeros(n), 0.0)
        return LpResult("unbounded")

    # Standard form with a slack per inequality row, rows flipped to make
    # b >= 0, then one artificial per row: A1 = [A | slack | artificial].
    A1 = np.zeros((m, n_std + m))
    A1[:m_eq, :n] = A_eq
    A1[m_eq:, :n] = A_ub
    A1[m_eq:, n:n_std] = np.eye(m_ub)
    b = np.concatenate([b_eq, b_ub])
    flip = b < 0
    A1[flip] *= -1.0
    b = np.abs(b)
    A1[:, n_std:] = np.eye(m)

    # Phase 1: artificials with cost -1 start as the basis, B = I, so the
    # tableau is [A1 | b] as it is. Its last reduced cost is -objective.
    cost1 = np.concatenate([np.zeros(n_std), -np.ones(m)])
    basis = np.arange(n_std, n_std + m)
    T = np.vstack([np.column_stack([A1, b]), np.zeros(n_std + m + 1)])
    _bland_simplex(T, basis, cost1)
    if T[m, -1] > 1e-7:
        # Farkas: y = B^{-T} cost1_B has y.A_j >= 0 for real columns, y.b < 0.
        y = np.linalg.solve(A1[:, basis].T, cost1[basis])
        y = -y  # now y.A <= 0, y.b > 0 over the standardized system
        y[flip] *= -1.0  # undo row negations
        y_eq, y_ub = y[:m_eq].copy(), y[m_eq:].copy()
        return LpResult("infeasible", farkas_eq=y_eq, farkas_ub=y_ub)

    # Drive artificials out of the basis: pivot each one's tableau row on its
    # first nonzero real column. A tableau row with none is y = B^-T e_i with
    # y.A = 0 and weight 1 on the constraint row of the artificial basic there
    # (not row i once artificials have moved), so that constraint row is
    # redundant: drop it with the tableau row.
    keep_rows = np.ones(m, dtype=bool)
    keep_basic = np.ones(m, dtype=bool)
    for i in np.flatnonzero(basis >= n_std):
        nonzero = np.abs(T[i, :n_std]) > _TOL
        nonzero[basis[basis < n_std]] = False
        if nonzero.any():
            _pivot(T, basis, i, int(nonzero.argmax()))
        else:
            keep_rows[basis[i] - n_std] = False
            keep_basic[i] = False
    A, b, basis = A1[keep_rows, :n_std], b[keep_rows], basis[keep_basic]

    # Phase 2 continues phase 1's tableau without the artificials' columns and
    # the redundant rows. A zero objective has no improving column to pivot on.
    if c.any():
        T = T[np.append(keep_basic, True)][:, np.r_[:n_std, -1]]
        if _bland_simplex(T, basis, np.concatenate([c, np.zeros(m_ub)])) == "unbounded":
            return LpResult("unbounded")
    xb = np.linalg.solve(A[:, basis], b)
    x = np.zeros(n_std)
    x[basis] = xb
    x_out = np.maximum(x[:n], 0.0)
    return LpResult("optimal", x_out, float(c @ x_out))
