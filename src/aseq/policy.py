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
from operator import add, sub

import numpy as np

from .divergence import DivergenceTable, exponent
from .errors import (InvalidBeta, InvalidPmf, NoExplorationPossible,
                     TrialBudgetExceeded)
from .model import (ActionSpace, AvailabilityDist, BudgetSpec, Instance,
                    in_constraint_set, marginal, omega)


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
        fp = (1 + x) * (1 + 3 * x)
        if fp <= 0:
            break
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


def _offdiag_min(mat: np.ndarray) -> float:
    M = mat.shape[0]
    return min(float(mat[t, m]) for t in range(M) for m in range(M) if m != t)


def build_params(T: float, inst: Instance, table: DivergenceTable, llr_bound: float,
                 betas: list[np.ndarray] | tuple[np.ndarray, ...],
                 epsilon: float | None = None,
                 plan: ExplorationPlan | None = None) -> TestParams:
    """Assemble test parameters for budget T and per-hypothesis frequencies.

    ``epsilon`` overrides the exploration probability (experimentation knob;
    0 disables exploration and forces the adaptive regime, forfeiting the
    finite-budget regime guarantee).
    """
    if T < 1:
        raise ValueError("expected-stopping-time budget must be at least 1")
    M = table.M
    if len(betas) != M:
        raise InvalidBeta(f"need one selection-frequency tuple per hypothesis, got {len(betas)}")
    betas = tuple(np.asarray(b, dtype=float) for b in betas)
    for t, b in enumerate(betas):
        if not in_constraint_set(b, inst.avail, inst.actions, inst.budgets):
            raise InvalidBeta(f"frequencies for hypothesis {t} violate the constraint set")
    degenerate_plan = False
    if plan is None:
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
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("exploration probability override must be in [0, 1)")
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


def action_pmf(z: tuple[int, ...] | int, theta_hat: int, params: TestParams,
               inst: Instance, beta: np.ndarray | None = None) -> np.ndarray:
    """Conditional action distribution given the available set and the MLE.

    Nonempty actions get the exploitation share of the MLE's frequencies plus
    the uniform exploration share (restricted to the exploration support); the
    empty action absorbs the remainder. ``z`` may be the availability-set
    index or the set itself. Output is ordered like the action space.
    """
    if params.regime != 2:
        raise ValueError("action distribution is defined in the adaptive regime only")
    b = params.betas[theta_hat] if beta is None else np.asarray(beta, dtype=float)
    zi = int(z) if isinstance(z, (int, np.integer)) else \
        inst.avail.sets.index(tuple(sorted(z)))
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
    """One simulated run: when it stopped, what it declared, what it spent."""

    stopping_time: int
    declared: int
    source_counts: np.ndarray
    action_counts: np.ndarray
    regime: int


@dataclass(frozen=True)
class TrialKernel:
    """What every trial under one (params, truth) reads, as Python lists.

    ``z_cdf`` is the availability CDF and ``act_cdfs[theta_hat][zi]`` the
    action CDF given the estimate and the available set. ``obs[ai][zi]`` is
    None when action ai selects no source of set zi; otherwise it holds the
    truth's sampling CDF over the selected sub-alphabet, the increment
    lam[t] - lam[m] of S for each symbol, and the selected source indices.
    Empty in regime 1, whose trials read nothing.
    """

    params: TestParams
    truth: int
    z_cdf: list[float]
    act_cdfs: list[list[list[float]]]
    obs: list[list[tuple | None]]
    thresholds: list[list[float]]

    @staticmethod
    def build(inst: Instance, params: TestParams, truth: int) -> "TrialKernel":
        model = inst.model
        n_z = len(inst.avail.sets)
        if params.regime != 2:
            return TrialKernel(params, truth, [], [], [], [])
        act_cdfs = [[np.cumsum(action_pmf(zi, th, params, inst)).tolist()
                     for zi in range(n_z)] for th in range(model.M)]
        by_keep: dict[tuple[int, ...], tuple] = {}
        obs: list[list] = [[None] * n_z for _ in inst.actions.actions]
        for ai, a in enumerate(inst.actions.actions):
            for zi, z in enumerate(inst.avail.sets):
                keep = tuple(sorted(set(a) & set(z)))
                if not keep:
                    continue
                if keep not in by_keep:
                    flats = [marginal(model, keep, keep, t).probs.reshape(-1)
                             for t in range(model.M)]
                    loglik = np.log(np.stack(flats, axis=1)).tolist()  # [symbol][t]
                    incs = [[[lt - lm for lm in lam] for lt in lam] for lam in loglik]
                    by_keep[keep] = (np.cumsum(flats[truth]).tolist(), incs,
                                     tuple(j - 1 for j in keep))
                obs[ai][zi] = by_keep[keep]
        return TrialKernel(params, truth, np.cumsum(inst.avail.probs).tolist(),
                           act_cdfs, obs, params.thresholds.tolist())


_DRAW_BATCH = 32


def _uniforms(rng: np.random.Generator):
    """rng.random() values one at a time, drawn in batches: on numpy's bit
    generators rng.random(k) yields the stream of k scalar draws."""
    while True:
        yield from rng.random(_DRAW_BATCH).tolist()


def run_trial(inst: Instance, params: TestParams, truth: int,
              rng: np.random.Generator, max_steps: int | None = None,
              kernel: TrialKernel | None = None) -> TrialResult:
    """Simulate one trial under ``truth``, deterministic given the generator.

    Regime 1 stops at step one with a uniform guess and selects nothing.
    Regime 2 loops draw-availability / estimate / draw-action / sample /
    update / check-stop, reading the tables of ``kernel`` (built here when
    not given; pass ``TrialKernel.build(inst, params, truth)`` to share it
    across trials). S[t][m] holds the pairwise log-likelihood ratios of t
    against m, and each observation adds lam[t] - lam[m], so S stays
    antisymmetric. Two rules read it:

    - the estimate is the smallest hypothesis whose row of S is all >= 0,
      else (only for an inconsistent S) the one with the largest row sum;
    - the test stops at the smallest hypothesis whose row clears every
      threshold, S[t][m] >= thresholds[t][m] for all m.

    Uniforms are drawn in batches, so the generator may end up to one batch
    past the last draw the trial used; give each trial its own generator.
    Raises TrialBudgetExceeded when the safety cap (default 200 T) is hit;
    callers account such trials as invalid rather than fabricating a
    decision.
    """
    model = inst.model
    n_a, n_z = inst.actions.size, len(inst.avail.sets)
    if params.regime == 1:
        return TrialResult(1, int(rng.integers(model.M)), np.zeros(model.n),
                           np.zeros((n_a, n_z)), 1)
    if max_steps is None:
        max_steps = int(math.ceil(200 * params.T))
    if kernel is None:
        kernel = TrialKernel.build(inst, params, truth)
    elif kernel.params is not params or kernel.truth != truth:
        raise ValueError("kernel was built for other parameters or another truth")

    z_cdf, act_cdfs, obs, thresholds = (kernel.z_cdf, kernel.act_cdfs, kernel.obs,
                                        kernel.thresholds)
    S = [[0.0] * model.M for _ in range(model.M)]
    source_counts = [0] * model.n
    action_counts = [[0] * n_z for _ in range(n_a)]
    draw = _uniforms(rng).__next__
    for t in range(1, max_steps + 1):
        zi = min(bisect_right(z_cdf, draw()), n_z - 1)
        # Maximum-likelihood estimate.
        for theta_hat, row in enumerate(S):
            if min(row) >= 0:
                break
        else:
            theta_hat = int(np.argmax(np.array(S).sum(axis=1)))
        ai = min(bisect_right(act_cdfs[theta_hat][zi], draw()), n_a - 1)
        action_counts[ai][zi] += 1
        seen = obs[ai][zi]
        if seen is not None:
            samp_cdf, incs, sources = seen
            sym = min(bisect_right(samp_cdf, draw()), len(samp_cdf) - 1)
            S = [list(map(add, row, inc)) for row, inc in zip(S, incs[sym])]
            for j in sources:
                source_counts[j] += 1
        # Stopping rule.
        for declared, (row, thr) in enumerate(zip(S, thresholds)):
            if min(map(sub, row, thr)) >= 0:
                return TrialResult(t, declared, np.array(source_counts, dtype=float),
                                   np.array(action_counts, dtype=float), 2)
    raise TrialBudgetExceeded(f"no decision within {max_steps} steps")
