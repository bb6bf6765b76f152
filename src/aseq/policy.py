"""The two-regime active sequential test.

Regime 2 runs the adaptive procedure: at each step, mix the selection
frequencies of the current maximum-likelihood hypothesis with a small uniform
exploration component, collect samples from the drawn action intersected with
the available sources, accumulate pairwise log-likelihood ratios, and stop
once some hypothesis clears all of its pairwise thresholds. Regime 1 (budgets
too small for the concentration machinery to bite) stops immediately with a
uniform random guess; it exists so the expected-stopping-time and budget
constraints hold for every budget value rather than only asymptotically.

Threshold parameters follow a fixed dependency chain. Writing eps for the
exploration probability (log T)^(-1/4) and D[a,z,t,m] for the divergence
table:

  explore_drift[t,m]  = rate * sum over explored (a,z) of D[a,z,t,m]
  mixed_drift[t,m]    = (1-eps) * exponent(beta^t, t, m) + eps * explore_drift
  threshold_slope     = mixed_drift / (1 + margin)
  margin              solves x(1+x)^2 = T^(-1/6) (min mixed / min explore)^2
                      (slope and margin are mutually defined; substituting the
                      slope's 1/(1+margin) factor yields this cubic, which has
                      a unique positive root)
  min_drift           = eps * min explore_drift
  tail_rate           = margin^3 / (4(1+margin)^3) * (min_drift / 4L)^2
  tail_coef           = 2 + 2(1+margin)^2/margin^2 * (4L / min_drift)^2
  regime_threshold    = 1 + (1 + log(M * tail_coef * (1+tail_rate))) / tail_rate
  tail_bound          = -M * tail_coef * (1+tail_rate) * exp(-tail_rate*(T-1))
  offset_scale        = sqrt(tail_bound * e + 1) - 1      (in [-1, 0])
  threshold_offset[t] = max_slope[t] * (1 - offset_scale / tail_rate)
  threshold[t,m]      = T * threshold_slope[t,m] - threshold_offset[t]

Regime 2 applies when T >= max(e, regime_threshold).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import add, ge

import numpy as np

from .divergence import DivergenceTable
from .errors import (InvalidBeta, InvalidPmf, NoExplorationPossible,
                     TrialBudgetExceeded)
from .model import (ActionSpace, AvailabilityDist, BudgetSpec, Instance,
                    in_constraint_set, observed_sources, selection_matrix, subset_pmfs)


@dataclass(frozen=True)
class ExplorationPlan:
    """Uniform exploration rate plus the set of action indices it covers."""

    rate: float
    support: tuple[int, ...]


def choose_exploration_rate(avail: AvailabilityDist, actions: ActionSpace,
                            budgets: BudgetSpec, table: DivergenceTable) -> ExplorationPlan:
    """Largest admissible uniform exploration rate and its pruned support.

    The rate is capped by the rarest availability probability spread over the
    whole action space and by every positive-rate budget evaluated at all-ones
    selection frequencies. Zero-rate budgets admit no exploration spending at
    all, so any action that could ever select one of their costed sources is
    dropped from the exploration support. Raises NoExplorationPossible if the
    pruned support can no longer discriminate every hypothesis pair.
    """
    explorable = np.array([bool(a) for a in actions.actions])
    rate = float(np.min(avail.probs)) / actions.size
    if budgets.size:
        W = selection_matrix(actions, avail, budgets.coeffs.shape[1])  # [source, (a, z)]
        positive = budgets.rates > 0
        costed = ((budgets.coeffs[~positive] > 0) @ W).any(axis=0)
        explorable &= ~costed.reshape(actions.size, len(avail.sets)).any(axis=1)
        w = W.sum(axis=1)  # omega at all-ones selection frequencies
        for c, r in zip(budgets.coeffs[positive], budgets.rates[positive]):
            cost = float(c @ w)
            if cost > 0:
                rate = min(rate, float(r) / cost)
    support = tuple(np.flatnonzero(explorable).tolist())

    seen = (table.table[list(support)] > 1e-12).any(axis=(0, 1))  # [m, t]
    for t, m in zip(*np.nonzero(~seen.T)):
        if m != t:
            raise NoExplorationPossible(
                f"pruned exploration support cannot separate {m} from {t}")
    return ExplorationPlan(rate, support)


def offset_correction(x: float) -> float:
    """sqrt(x*e + 1) - 1 on [-1/e, 0], clamped to its domain endpoints."""
    lo = -math.exp(-1)
    if x <= lo:
        return -1.0
    if x >= 0.0:
        return 0.0
    return math.sqrt(x * math.e + 1.0) - 1.0


def solve_drift_margin(c: float) -> float:
    """Unique positive root of x(1+x)^2 = c (c > 0), to tiny residual.

    Bisection brackets the root; a few Newton steps polish it.
    """
    if c <= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi * (1 + hi) ** 2 < c:
        hi *= 2.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if mid * (1 + mid) ** 2 < c:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    for _ in range(4):
        f = x * (1 + x) ** 2 - c
        fp = (1 + x) * (1 + 3 * x)  # >= 1, since x >= 0
        x = max(x - f / fp, 0.0)
    return x


@dataclass(frozen=True)
class TestParams:
    """Every quantity the test needs for a given expected-stopping-time budget.

    Matrix entries are indexed [t, m] for the hypothesis pair (t against m);
    diagonals are zero and meaningless. Tail quantities are NaN in regime 1
    (and when a zero exploration override removes the concentration term).
    """

    T: float
    regime: int
    explore_prob: float
    plan: ExplorationPlan
    llr_bound: float
    exploit_drift: np.ndarray
    explore_drift: np.ndarray
    mixed_drift: np.ndarray
    drift_margin: float
    threshold_slope: np.ndarray
    max_slope: np.ndarray
    min_drift: float
    tail_rate: float
    tail_coef: float
    regime_threshold: float
    tail_bound: float
    offset_scale: float
    threshold_offset: np.ndarray
    thresholds: np.ndarray
    betas: tuple[np.ndarray, ...]


def build_params(T: float, inst: Instance, table: DivergenceTable, llr_bound: float,
                 betas: list[np.ndarray] | tuple[np.ndarray, ...],
                 epsilon: float | None = None) -> TestParams:
    """Assemble test parameters for budget T and per-hypothesis frequencies.

    ``epsilon`` overrides the exploration probability (experimentation knob;
    0 disables exploration and forces the adaptive regime, forfeiting the
    finite-budget regime guarantee).
    """
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

    # D[t, m]: pair (t, m) over the (action, set) cells in C-order, made contiguous so
    # that each last-axis sum below adds in the order of a sum over one pair's cells.
    D = np.ascontiguousarray(table.table.transpose(2, 3, 0, 1)).reshape(M, M, -1)
    off = ~np.eye(M, dtype=bool)
    n_z = len(inst.avail.sets)
    explored = [ai * n_z + zi for ai in plan.support for zi in range(n_z)]
    nan = float("nan")
    zeros = np.zeros((M, M))
    params = TestParams(
        T=float(T), regime=1, explore_prob=nan, plan=plan, llr_bound=float(llr_bound),
        exploit_drift=np.where(off, (D * np.stack(betas).reshape(M, 1, -1)).sum(-1), 0.0),
        explore_drift=plan.rate * D[:, :, explored].sum(-1), mixed_drift=zeros,
        drift_margin=nan, threshold_slope=zeros, max_slope=np.zeros(M), min_drift=nan,
        tail_rate=nan, tail_coef=nan, regime_threshold=nan, tail_bound=nan,
        offset_scale=nan, threshold_offset=np.zeros(M), thresholds=zeros, betas=betas)
    if degenerate_plan or (epsilon is None and T < math.e):
        return params
    eps = math.log(T) ** -0.25 if epsilon is None else float(epsilon)

    mixed = (1.0 - eps) * params.exploit_drift + eps * params.explore_drift
    min_explore = float(params.explore_drift[off].min())
    cubic_rhs = (T ** (-1.0 / 6.0) * (float(mixed[off].min()) / min_explore) ** 2
                 if min_explore > 0 else 0.0)
    margin = solve_drift_margin(cubic_rhs)
    slope = mixed / (1.0 + margin)
    np.fill_diagonal(slope, 0.0)
    min_drift = eps * min_explore
    params = replace(params, explore_prob=eps, mixed_drift=mixed, drift_margin=margin,
                     threshold_slope=slope, max_slope=slope[off].reshape(M, M - 1).max(axis=1),
                     min_drift=min_drift)

    if min_drift > 0:
        tail_rate = margin ** 3 / (4 * (1 + margin) ** 3) * (min_drift / (4 * llr_bound)) ** 2
        tail_coef = 2 + 2 * (1 + margin) ** 2 / margin ** 2 * (4 * llr_bound / min_drift) ** 2
        regime_threshold = 1 + (1 + math.log(M * tail_coef * (1 + tail_rate))) / tail_rate
        params = replace(params, tail_rate=tail_rate, tail_coef=tail_coef,
                         regime_threshold=regime_threshold)
        if T < max(math.e, regime_threshold):
            return params
        tail_bound = -M * tail_coef * (1 + tail_rate) * math.exp(-tail_rate * (T - 1))
        k_val = offset_correction(tail_bound)
        params = replace(params, tail_bound=tail_bound, offset_scale=k_val,
                         threshold_offset=params.max_slope * (1.0 - k_val / tail_rate))
    else:
        # Zero exploration removes the concentration certificate; run the
        # adaptive regime with the asymptotic offset.
        params = replace(params, threshold_offset=params.max_slope.copy())

    thresholds = T * slope - params.threshold_offset[:, None]
    np.fill_diagonal(thresholds, 0.0)
    return replace(params, regime=2, thresholds=thresholds)


def action_pmf(zi: int, theta_hat: int, params: TestParams,
               inst: Instance) -> np.ndarray:
    """Conditional action distribution given the available set (its index
    ``zi``) and the MLE.

    Nonempty actions get the exploitation share of the MLE's frequencies plus
    the uniform exploration share (restricted to the exploration support); the
    empty action absorbs the remainder. Output is ordered like the action space.
    """
    if params.regime != 2:
        raise ValueError("action distribution is defined in the adaptive regime only")
    b = params.betas[theta_hat]
    alpha = float(inst.avail.probs[zi])
    eps = params.explore_prob
    pmf = (1.0 - eps) * b[:, zi] / alpha
    for ai in params.plan.support:
        pmf[ai] += eps * params.plan.rate / alpha
    empty_idx = inst.actions.actions.index(())
    others = float(pmf.sum() - pmf[empty_idx])
    remainder = 1.0 - others
    if remainder < -1e-12:
        raise InvalidPmf(f"action probabilities exceed 1 by {-remainder:.3e}")
    pmf[empty_idx] = max(remainder, 0.0)
    return pmf


@dataclass(frozen=True)
class TrialResult:
    """One simulated run: when it stopped, what it declared, and how many
    samples it took from each source."""

    stopping_time: int
    declared: int
    source_counts: tuple[int, ...]


@dataclass(frozen=True)
class TrialKernel:
    """What every trial under one (params, truth) reads, as Python lists: a
    trial's only input besides its generator.

    A trial holds S as its M(M-1) off-diagonal entries in one row-major list,
    row t being S[t][m] for m != t in ascending m, and every increment and
    threshold row here is laid out the same way. ``n_sources`` is the model's
    source count, the length of a trial's source counts. ``z_cdf`` is the
    availability CDF, and ``steps[theta_hat][zi]`` pairs the action CDF given
    the estimate and the available set with the set's cells, one per action.
    A cell is None when the action selects no source of the set; otherwise it
    holds the truth's sampling CDF over the symbols of the selected
    sub-alphabet that the truth gives positive mass, the increments
    lam[t] - lam[m] of S for each of them, and the selected source indices.
    The last entry of every CDF is +inf, so bisect_right of a draw in [0, 1)
    lands on an entry even past a last partial sum rounded below 1.
    ``thresholds[t]`` is row t's off-diagonal thresholds. ``cands[theta_hat]``
    lists, in ascending order, the rows the stopping rule can clear under
    that estimate: the estimate itself and every row with a nonpositive
    threshold (see ``run_trial``).
    The tables are empty in regime 1, whose trials read only the source count.
    """

    params: TestParams
    truth: int
    n_sources: int
    z_cdf: list[float]
    steps: list[list[tuple[list[float], list[tuple | None]]]]
    thresholds: list[list[float]]
    cands: list[tuple[int, ...]]

    @staticmethod
    def build(inst: Instance, params: TestParams, truth: int) -> "TrialKernel":
        model = inst.model
        M, n_z = model.M, len(inst.avail.sets)
        if params.regime != 2:
            return TrialKernel(params, truth, model.n, [], [], [], [])
        cells = observed_sources(inst.actions, inst.avail)
        by_keep = {}
        for keep, flats in subset_pmfs(model, cells).items():  # flats: [symbol, t]
            # Only symbols the truth can emit: a draw past a last partial sum
            # rounded below 1 then lands on one of them, and no log of a zero
            # mass is taken.
            flats = flats[flats[:, truth] > 0]
            incs = [[lt - lm for t, lt in enumerate(lam) for m, lm in enumerate(lam) if m != t]
                    for lam in np.log(flats).tolist()]
            by_keep[keep] = (_cdf(flats[:, truth]), incs, tuple(j - 1 for j in keep))
        by_set = [[by_keep[row[zi]] if row[zi] else None for row in cells] for zi in range(n_z)]
        steps = [[(_cdf(action_pmf(zi, th, params, inst)), by_set[zi]) for zi in range(n_z)]
                 for th in range(M)]
        thresholds = params.thresholds[~np.eye(M, dtype=bool)].reshape(M, M - 1)
        nonpositive = set(np.flatnonzero(~(thresholds > 0).all(axis=1)).tolist())
        cands = [tuple(sorted(nonpositive | {th})) for th in range(M)]
        return TrialKernel(params, truth, model.n, _cdf(inst.avail.probs), steps,
                           thresholds.tolist(), cands)


def _cdf(pmf: np.ndarray) -> list[float]:
    """The partial sums of ``pmf`` with the last one replaced by +inf."""
    cdf = np.cumsum(pmf).tolist()
    cdf[-1] = math.inf
    return cdf


def _square(V: list[float], M: int) -> list[list[float]]:
    """The M x M matrix, zero on the diagonal, of the row-major off-diagonal
    list ``V`` (the layout of S in ``run_trial``)."""
    w = M - 1
    return [V[t * w:t * w + t] + [0.0] + V[t * w + t:t * w + w] for t in range(M)]


_DRAW_BATCH = 32


def _uniforms(rng: np.random.Generator):
    """rng.random() values one at a time, drawn in batches: on numpy's bit
    generators rng.random(k) yields the stream of k scalar draws."""
    while True:
        yield from rng.random(_DRAW_BATCH).tolist()


def default_max_steps(T: float) -> int:
    """A trial's step cap at budget T when none is given: ceil(200 T).
    Raises ValueError for a T so large that 200 T overflows."""
    if not math.isfinite(cap := 200 * T):
        raise ValueError(f"T={T!r} is too large for the default step cap of 200 T; "
                         f"give a cap (--max-steps)")
    return math.ceil(cap)


def run_trial(kernel: TrialKernel, rng: np.random.Generator,
              max_steps: int | None = None) -> TrialResult:
    """Simulate one trial of ``kernel``'s (params, truth), deterministic given
    the generator.

    Regime 1 stops at step one with a uniform guess and selects nothing.
    Regime 2 loops draw-availability / draw-action / sample / update,
    reading the tables of ``kernel``. S[t][m] holds the pairwise
    log-likelihood ratios of t against m, kept as the flat off-diagonal list
    of ``TrialKernel``, and each observation adds lam[t] - lam[m] to every
    entry in one pass. Two rules read S:

    - the estimate is the smallest hypothesis whose row of S is all >= 0,
      else (only for an inconsistent S) the one with the largest row sum;
    - the test stops at the smallest hypothesis whose row clears every
      threshold, S[t][m] >= thresholds[t][m] for all m.

    Both run only after S changes, plus once at step 1 on S = 0: on an
    unchanged S they give the answers they gave before. The stopping rule
    tests only the rows ``kernel.cands[theta_hat]``, and only their
    off-diagonal entries. That is the full rule because of two facts. The
    threshold diagonal is zero, so S[t][t] = 0 clears it. And S is exactly
    antisymmetric: the increments of S[t][m] and S[m][t] are lt - lm and
    lm - lt, which round to exact negatives, and so do their running sums.
    So if a row t other than the estimate, with all thresholds positive,
    cleared them, row t would be all > 0; the estimate theta would then be a
    smaller row with S[theta][t] >= 0, and S[t][theta] = -S[theta][t] <= 0
    would contradict it.

    Uniforms are drawn in batches, so the generator may end up to one batch
    past the last draw the trial used; give each trial its own generator.
    Raises TrialBudgetExceeded when the safety cap (default 200 T, see
    ``default_max_steps``) is hit; callers account such trials as invalid
    rather than fabricating a decision.
    """
    params = kernel.params
    M = len(params.betas)
    if params.regime == 1:
        return TrialResult(1, int(rng.integers(M)), (0,) * kernel.n_sources)
    if max_steps is None:
        max_steps = default_max_steps(params.T)

    z_cdf, steps, thresholds, cands = (kernel.z_cdf, kernel.steps, kernel.thresholds,
                                       kernel.cands)
    w = M - 1
    V = [0.0] * (M * w)
    source_counts = [0] * kernel.n_sources
    draw = _uniforms(rng).__next__
    theta_hat = 0  # the estimate on S = 0
    for t in range(1, max_steps + 1):
        act_cdf, cells = steps[theta_hat][bisect_right(z_cdf, draw())]
        seen = cells[bisect_right(act_cdf, draw())]
        if seen is not None:
            samp_cdf, incs, sources = seen
            V = list(map(add, V, incs[bisect_right(samp_cdf, draw())]))
            for j in sources:
                source_counts[j] += 1
            # Maximum-likelihood estimate.
            for theta_hat in range(M):
                if min(V[theta_hat * w:theta_hat * w + w]) >= 0:
                    break
            else:
                theta_hat = int(np.argmax(np.array(_square(V, M)).sum(axis=1)))
        elif t > 1:
            continue
        # Stopping rule.
        for declared in cands[theta_hat]:
            if all(map(ge, V[declared * w:declared * w + w], thresholds[declared])):
                return TrialResult(t, declared, tuple(source_counts))
    raise TrialBudgetExceeded(f"no decision within {max_steps} steps")
