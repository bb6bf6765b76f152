import itertools
import json
from bisect import bisect_right
from operator import add
from pathlib import Path

import numpy as np
import pytest

from aseq.model import (ActionSpace, AvailabilityDist, BudgetSpec, Instance,
                        JointModel, omega, selection_matrix)
from aseq.modelio import instance_from_dict, load_instance

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


def kernel_path(kernel, zi, rng, steps):
    """Walk the adaptive test's step through the tables of ``kernel`` with the
    availability set ``zi`` held fixed and no stopping rule: estimate, draw
    the action, then (if it selects a source) the symbol, one rng.random()
    each, and add the symbol's increments to S. Yields (action, symbol or
    None, S) after every step."""
    M = len(kernel.act_cdfs)
    S = [[0.0] * M for _ in range(M)]
    for _ in range(steps):
        theta_hat = next((t for t, row in enumerate(S) if min(row) >= 0), None)
        if theta_hat is None:
            theta_hat = int(np.argmax(np.sum(S, axis=1)))
        act_cdf = kernel.act_cdfs[theta_hat][zi]
        ai = min(bisect_right(act_cdf, rng.random()), len(act_cdf) - 1)
        sym, seen = None, kernel.obs[ai][zi]
        if seen is not None:
            samp_cdf, incs, _ = seen
            sym = min(bisect_right(samp_cdf, rng.random()), len(samp_cdf) - 1)
            S = [list(map(add, row, inc)) for row, inc in zip(S, incs[sym])]
        yield ai, sym, S


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
    A_ub = np.hstack([-pair_rows_m, np.ones((n_th, 1))])
    b_ub = -np.asarray(e_sub, dtype=float)
    n_z = len(inst.avail.sets)
    A_eq = np.zeros((n_z, d + 1))
    for zi in range(n_z):
        for ai in range(inst.actions.size):
            A_eq[zi, ai * n_z + zi] = 1.0
    b_eq = inst.avail.probs
    if inst.budgets.size:
        W = selection_matrix(inst.actions, inst.avail, inst.model.n)
        G = inst.budgets.coeffs @ W
        A_ub = np.vstack([A_ub, np.hstack([G, np.zeros((G.shape[0], 1))])])
        b_ub = np.concatenate([b_ub, inst.budgets.rates])
    bounds = [(0, None)] * d + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(-res.fun)
