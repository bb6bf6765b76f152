"""Pairwise KL divergence tables and the achievable-exponent functional.

Every stopping threshold and region facet downstream is a linear functional of
the table built here, so it is computed once per environment and shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SupportMismatch
from .model import (ActionSpace, AvailabilityDist, Instance, JointModel, observed_sources,
                    subset_pmfs)


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence sum p log(p/q) in nats, with 0 log 0 = 0.

    Raises SupportMismatch where p puts mass outside q's support.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape != q.shape:
        raise ValueError("p and q must have the same length")
    pos = p > 0
    if np.any(q[pos] <= 0):
        raise SupportMismatch("p has mass where q is zero; divergence is infinite")
    return float(np.sum(p[pos] * np.log(p[pos] / q[pos])))


@dataclass(frozen=True)
class DivergenceTable:
    """KL(P^{a,z}_m || P^{a,z}_theta) for every action, availability set, and
    ordered hypothesis pair.

    ``table[ai, zi, m, theta]`` indexes action ai and availability set zi in
    the orders stored on the action space / availability distribution. Entries
    with an empty a∩z are zero by convention, as is the diagonal m == theta.
    """

    table: np.ndarray
    actions: ActionSpace
    avail: AvailabilityDist
    M: int

    @property
    def dim(self) -> int:
        return self.actions.size * len(self.avail.sets)

    def pair_matrix(self, m: int, theta: int) -> np.ndarray:
        """Divergence slice for the ordered pair (m, theta), shape (|A|, |Z|)."""
        return self.table[:, :, m, theta]

    def pair_rows(self) -> tuple[list[tuple[int, int]], np.ndarray]:
        """All ordered pairs and a matrix of flattened divergence rows.

        Row k corresponds to pair ``pairs[k]`` and has length |A|*|Z| in
        C-order (actions major), so ``rows @ beta.reshape(-1)`` evaluates the
        exponent functional for every pair at once.
        """
        pairs = [(m, t) for m in range(self.M) for t in range(self.M) if t != m]
        rows = np.stack([self.table[:, :, m, t].reshape(-1) for m, t in pairs])
        return pairs, rows


def build_table(model: JointModel, avail: AvailabilityDist, actions: ActionSpace) -> DivergenceTable:
    """Compute the full divergence table for a validated model.

    The M x M divergence matrix depends on a∩z only, so it is computed once
    per distinct subset.
    """
    cells = observed_sources(actions, avail)
    kls = {keep: np.array([[kl(p[:, m], p[:, t]) if t != m else 0.0 for t in range(model.M)]
                           for m in range(model.M)])
           for keep, p in subset_pmfs(model, cells).items()}
    out = np.zeros((actions.size, len(avail.sets), model.M, model.M))
    for ai, row in enumerate(cells):
        for zi, keep in enumerate(row):
            if keep:
                out[ai, zi] = kls[keep]
    return DivergenceTable(out, actions, avail, model.M)


def build_instance_table(inst: Instance) -> DivergenceTable:
    return build_table(inst.model, inst.avail, inst.actions)


def exponent(beta: np.ndarray, table: DivergenceTable, m: int, theta: int) -> float:
    """Achievable exponent for declaring m against ground truth theta,
    sum_{a,z} beta_{a,z} KL(P^{a,z}_m || P^{a,z}_theta)."""
    if beta.shape != (table.actions.size, len(table.avail.sets)):
        raise ValueError("beta shape must be (n_actions, n_sets)")
    return float(np.sum(beta * table.pair_matrix(m, theta)))
