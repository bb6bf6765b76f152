"""Statistical environment: hypotheses, sources, availability, actions, budgets.

Sources are labeled 1..n (axis j-1 of the joint probability tables). Subsets of
sources (availability sets, actions) are stored as sorted tuples of source
labels; the empty action is ``()``.

Selection frequencies are dense arrays of shape (n_actions, n_sets), row order
matching ``ActionSpace.actions`` and column order matching
``AvailabilityDist.sets``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import InvalidDistribution, SupportMismatch

if TYPE_CHECKING:
    from .divergence import DivergenceTable

# Tolerances. Probability normalization is checked tightly; affine
# constraint membership allows solver-level noise.
PROB_TOL = 1e-12
AFFINE_TOL = 1e-9
BUDGET_TOL = 1e-12


def normalize_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """Canonical sorted-tuple form of a source subset, validated against [1:n]."""
    out = tuple(sorted(set(int(j) for j in subset)))
    for j in out:
        if not 1 <= j <= n:
            raise ValueError(f"source label {j} outside [1:{n}]")
    return out


@dataclass(frozen=True)
class JointModel:
    """Hypothesis count, source count, and one joint PMF table per hypothesis.

    ``pmfs[theta]`` has shape ``alphabet`` (one axis per source). Tables are
    dense so marginalization is exact summation.
    """

    M: int
    n: int
    alphabet: tuple[int, ...]
    pmfs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("need at least two hypotheses")
        if self.n < 1:
            raise ValueError("need at least one source")
        if len(self.alphabet) != self.n or any(k < 1 for k in self.alphabet):
            raise ValueError("alphabet must list a positive size per source")
        if len(self.pmfs) != self.M:
            raise ValueError("need one joint table per hypothesis")
        for p in self.pmfs:
            if p.shape != self.alphabet:
                raise ValueError("joint table shape must match the alphabet")


@dataclass(frozen=True)
class AvailabilityDist:
    """Support and probabilities of the i.i.d. available-source subset."""

    sets: tuple[tuple[int, ...], ...]
    probs: np.ndarray

    def __post_init__(self):
        if len(self.sets) < 1:
            raise ValueError("availability support must be nonempty")
        if len(set(self.sets)) != len(self.sets):
            raise ValueError("duplicate availability sets")
        if len(self.probs) != len(self.sets):
            raise ValueError("probability per availability set required")
        if not np.all(self.probs > 0):  # NaN fails too; +inf fails the sum
            raise InvalidDistribution("availability probabilities must be positive")
        if abs(float(self.probs.sum()) - 1.0) > PROB_TOL:
            raise InvalidDistribution("availability probabilities must sum to 1")


@dataclass(frozen=True)
class ActionSpace:
    """All source subsets the decision maker may select; always contains ()."""

    actions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if () not in self.actions:
            raise ValueError("the empty action must be available")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError("duplicate actions")

    @property
    def size(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class BudgetSpec:
    """Linear cost functions on per-source selection counts, with rates.

    ``coeffs`` has shape (n_budgets, n); entry (i, j-1) weights source j in
    cost i. Coefficients are nonnegative (linearity with zero cost at zero
    selection forces this on the nonnegative orthant). ``rates`` are the
    allowed cost per unit of expected stopping time, each finite and
    nonnegative.
    """

    coeffs: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        if self.coeffs.ndim != 2 or len(self.rates) != self.coeffs.shape[0]:
            raise ValueError("coeffs must be (n_budgets, n) with one rate per row")
        if not np.all(np.isfinite(self.coeffs) & (self.coeffs >= 0)):
            raise ValueError("budget coefficients must be finite and nonnegative")
        for i, r in enumerate(self.rates.tolist()):
            if not 0.0 <= r < np.inf:  # NaN fails too
                raise ValueError(f"budget {i} rate must be finite and nonnegative, got {r!r}")

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]

    @staticmethod
    def none(n: int) -> "BudgetSpec":
        return BudgetSpec(np.zeros((0, n)), np.zeros(0))


@dataclass(frozen=True)
class Instance:
    """A validated environment bundle: model + availability + actions + budgets."""

    model: JointModel
    avail: AvailabilityDist
    actions: ActionSpace
    budgets: BudgetSpec


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of model validation.

    ``llr_bound`` is the supremum of |log likelihood ratio| over the common
    support, across all ordered hypothesis pairs. ``assumption2_ok`` says every
    ordered pair is discriminated by some (action, availability) combination;
    ``assumption3_ok`` is the stronger per-combination version, reported for
    information only (evaluated over combinations that select at least one
    source, since an empty selection can never discriminate). ``table`` is
    the divergence table the flags were read from, for callers to reuse.
    """

    llr_bound: float
    assumption2_ok: bool
    assumption3_ok: bool
    table: DivergenceTable = field(repr=False, compare=False)


def marginal(model: JointModel, keep: tuple[int, ...], theta: int) -> np.ndarray:
    """Exact marginal of hypothesis ``theta`` over the sources in ``keep``, one
    axis per kept source in label order. For ``keep = ()`` this is the point
    mass on the empty tuple, a zero-dimensional array holding 1.0.
    """
    drop = tuple(j - 1 for j in range(1, model.n + 1) if j not in keep)
    return model.pmfs[theta].sum(axis=drop) if drop else model.pmfs[theta].copy()


def observed_sources(actions: ActionSpace, avail: AvailabilityDist) -> list[list[tuple[int, ...]]]:
    """The sources a∩z that each (action, set) cell observes, as sorted tuples
    indexed [action][set]; () where the cell observes nothing."""
    return [[tuple(sorted(set(a) & set(z))) for z in avail.sets] for a in actions.actions]


def subset_pmfs(model: JointModel,
                cells: list[list[tuple[int, ...]]]) -> dict[tuple[int, ...], np.ndarray]:
    """Every hypothesis' marginal over each distinct nonempty subset in ``cells``
    (as ``observed_sources`` gives them), stacked as a [symbol, theta] table."""
    subsets = dict.fromkeys(keep for row in cells for keep in row if keep)
    return {keep: np.stack([marginal(model, keep, t).reshape(-1)
                            for t in range(model.M)], axis=1) for keep in subsets}


def omega(actions: ActionSpace, avail: AvailabilityDist, beta: np.ndarray,
          n: int) -> np.ndarray:
    """Per-source selection frequencies omega_j = sum_{a,z} beta_{a,z} 1{j in a∩z},
    for the n sources of the model."""
    return selection_matrix(actions, avail, n) @ np.asarray(beta).reshape(-1)


def selection_matrix(actions: ActionSpace, avail: AvailabilityDist, n: int) -> np.ndarray:
    """Matrix W with W[j-1, flat(a,z)] = 1{j in a∩z}, so omega = W @ beta.flat."""
    cells = [keep for row in observed_sources(actions, avail) for keep in row]
    W = np.zeros((n, len(cells)))
    for c, keep in enumerate(cells):
        W[[j - 1 for j in keep], c] = 1.0
    return W


def in_constraint_set(beta: np.ndarray, avail: AvailabilityDist, actions: ActionSpace,
                      budgets: BudgetSpec) -> bool:
    """Membership of a selection-frequency tuple in the feasible set.

    Requires beta >= 0 (within ``AFFINE_TOL``), per-availability totals equal
    to alpha_z (within ``AFFINE_TOL``), and every budget inequality
    <c_i, omega(beta)> <= r_i (within ``BUDGET_TOL``).
    """
    if beta.shape != (actions.size, len(avail.sets)):
        raise ValueError("beta shape must be (n_actions, n_sets)")
    if not np.all(beta >= -AFFINE_TOL):  # a NaN entry fails too
        return False
    if np.any(np.abs(beta.sum(axis=0) - avail.probs) > AFFINE_TOL):
        return False
    if budgets.size:
        w = omega(actions, avail, beta, n=budgets.coeffs.shape[1])
        if np.any(budgets.coeffs @ w > budgets.rates + BUDGET_TOL):
            return False
    return True


def _check_pmf(p: np.ndarray, what: str) -> None:
    if not np.all(p >= 0):  # NaN fails too; +inf fails the sum
        raise InvalidDistribution(f"{what} has negative or NaN entries")
    if abs(float(p.sum()) - 1.0) > PROB_TOL:
        raise InvalidDistribution(f"{what} sums to {float(p.sum())!r}, not 1")


def validate_model(model: JointModel, avail: AvailabilityDist, actions: ActionSpace,
                   budgets: BudgetSpec) -> ValidationReport:
    """Validate distributions and compute discrimination diagnostics.

    Raises SupportMismatch if the hypotheses do not share a common support
    (the log-likelihood-ratio bound would be infinite), InvalidDistribution
    on normalization or sign violations.
    """
    for theta, p in enumerate(model.pmfs):
        _check_pmf(p, f"joint pmf of hypothesis {theta}")
    support = model.pmfs[0] > 0
    for theta in range(1, model.M):
        if np.any((model.pmfs[theta] > 0) != support):
            raise SupportMismatch(
                f"hypothesis {theta} support differs from hypothesis 0 support")

    llr_bound = 0.0
    for t in range(model.M):
        for m in range(model.M):
            if m == t:
                continue
            ratio = np.log(model.pmfs[t][support] / model.pmfs[m][support])
            llr_bound = max(llr_bound, float(np.max(np.abs(ratio))))

    # Discrimination flags over the (action, availability) combinations that
    # select at least one source.
    from .divergence import build_table  # deferred: divergence imports this module

    table = build_table(model, avail, actions)
    selects = np.array([[bool(keep) for keep in row] for row in observed_sources(actions, avail)])
    seen = table.table[selects][:, ~np.eye(model.M, dtype=bool)] > 1e-12  # (combination, pair)
    a2_ok = bool(seen.any(axis=0).all())
    return ValidationReport(llr_bound, a2_ok, a2_ok and bool(seen.all()), table)
