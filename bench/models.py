"""Model files for the benchmark workloads.

Every file is written from code here; the program under test only ever sees
these files. Each model is a fixed base model under labels drawn from the
seed: the symbols of every source are permuted (one permutation per source,
shared by all hypotheses) and, for the region models, so are the
hypotheses. Relabelling changes every file and the order of every output,
but not a single divergence, so each call does the same amount of work
whatever the seed. Drawing the distributions themselves from the seed would
not: compute_region on model (a) takes 2.6 s on one draw and 5.8 s on
another with the same 1272-vertex polytope.
"""

from __future__ import annotations

import copy
import itertools
import json
from pathlib import Path

import numpy as np

# Per-source PMFs of the repository's example model, models/chernoff3x2.json:
# three hypotheses, two independent sources with three symbols each.
EXAMPLE_SOURCES = (
    ((0.9, 0.07, 0.03), (0.78, 0.17, 0.05)),
    ((0.12, 0.83, 0.05), (0.04, 0.79, 0.17)),
    ((0.05, 0.1, 0.85), (0.15, 0.05, 0.8)),
)
BASE_SEED = 1  # draws the base distributions of the region models


def _nonempty_subsets(n: int) -> list[list[int]]:
    return [list(s) for r in range(1, n + 1)
            for s in itertools.combinations(range(1, n + 1), r)]


def relabel(model: dict, seed: int, hypotheses: bool) -> dict:
    """The same model under new symbol (and optionally hypothesis) labels."""
    rng = np.random.default_rng([seed, model["M"], model["n"]])
    out = copy.deepcopy(model)
    perms = [rng.permutation(k) for k in model["alphabets"]]
    for h in out["hypotheses"]:
        h["independent"] = [[p[i] for i in perm] for p, perm in zip(h["independent"], perms)]
    if hypotheses:
        out["hypotheses"] = [out["hypotheses"][i] for i in rng.permutation(model["M"])]
    return out


def region_model(M: int, n: int, coeff: list[float], rate: float) -> dict:
    """M hypotheses over n independent binary sources (P(symbol 0) drawn
    from [0.15, 0.85]), every nonempty action, the full source set available
    with probability 0.6 and otherwise sources {1, 2} (source 1 alone when
    n = 2), and one budget."""
    rng = np.random.default_rng([BASE_SEED, M, n])
    return {"M": M, "n": n, "alphabets": [2] * n,
            "hypotheses": [{"independent": [[p, 1.0 - p] for p in
                                            rng.uniform(0.15, 0.85, size=n).tolist()]}
                           for _ in range(M)],
            "availability": [{"subset": list(range(1, n + 1)), "prob": 0.6},
                             {"subset": [1, 2] if n > 2 else [1], "prob": 0.4}],
            "actions": _nonempty_subsets(n),
            "budgets": [{"coeff": coeff, "rate": rate}]}


def region_m3(seed: int, n: int = 4) -> dict:
    """Model (a): M = 3; with n = 4 its polytope has 1272 vertices."""
    return relabel(region_model(3, n, [1.0] * n, 1.5), seed, hypotheses=True)


def region_m4(seed: int, n: int = 3) -> dict:
    """Model (b): M = 4; with n = 3 its polytope has 162 vertices."""
    return relabel(region_model(4, n, [float(j) for j in range(1, n + 1)], 2.0), seed,
                   hypotheses=True)


def example(seed: int) -> dict:
    """The repository's example model. Hypotheses keep their labels, since
    the slice is drawn at a fixed e2."""
    d = {"M": 3, "n": 2, "alphabets": [3, 3],
         "hypotheses": [{"independent": [list(p) for p in h]} for h in EXAMPLE_SOURCES],
         "availability": [{"subset": [1, 2], "prob": 1.0}],
         "actions": [[1], [2]], "budgets": []}
    return relabel(d, seed, hypotheses=False)


def sim_long(seed: int) -> dict:
    """The example's sources; source 2 is missing 30% of the time, both
    sources may be selected together, and a budget of 1.2 selected sources
    per step binds every hypothesis's optimal frequencies."""
    d = example(seed)
    d["availability"] = [{"subset": [1, 2], "prob": 0.7}, {"subset": [1], "prob": 0.3}]
    d["actions"] = [[1], [2], [1, 2]]
    d["budgets"] = [{"coeff": [1.0, 1.0], "rate": 1.2}]
    return d


def write(model: dict, path: Path) -> Path:
    path.write_text(json.dumps(model, indent=1) + "\n", encoding="utf-8")
    return path
