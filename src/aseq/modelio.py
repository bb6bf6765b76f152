"""Model config files: JSON schema, loading, and normalized dumping.

The on-disk format (UTF-8 JSON) carries: M, n, alphabets, hypotheses (each
either a dense "joint" table or "independent" per-source PMFs), availability
as a list of {subset, prob}, actions as a list of subsets (the empty action is
added automatically), and budgets as a list of {coeff, rate}. Parse errors
name the offending JSON path. The machine-readable schema ships at
schemas/model.schema.json.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ModelFormatError
from .model import (ActionSpace, AvailabilityDist, BudgetSpec, Instance,
                    JointModel, normalize_subset)


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ModelFormatError(f"{path}.{key}: missing required field")
    return obj[key]


def _as_int(v, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ModelFormatError(f"{path}: expected an integer, got {v!r}")
    return v


def _as_float(v, path: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ModelFormatError(f"{path}: expected a number, got {v!r}")
    return float(_as_array(v, path))


def _as_array(v, path: str) -> np.ndarray:
    """``v`` as a float array. json.loads reads NaN, Infinity and integers of
    any length, so every entry must also convert to a finite float."""
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: not a numeric table") from exc
    except OverflowError:  # an integer beyond float range
        arr = np.array(np.inf)
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{path}: every number must be a finite float")
    return arr


def _as_subset(v, n: int, path: str) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ModelFormatError(f"{path}: expected a list of source labels, got {v!r}")
    labels = [_as_int(j, f"{path}[{i}]") for i, j in enumerate(v)]
    try:
        return normalize_subset(labels, n)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def load_instance(path: str | Path) -> Instance:
    """Parse and structurally validate a model config file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"$: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ModelFormatError("$: top level must be an object")
    return instance_from_dict(raw)


def instance_from_dict(raw: dict) -> Instance:
    M = _as_int(_need(raw, "M", "$"), "$.M")
    n = _as_int(_need(raw, "n", "$"), "$.n")
    alphabets = _need(raw, "alphabets", "$")
    if not isinstance(alphabets, list) or len(alphabets) != n:
        raise ModelFormatError("$.alphabets: need one symbol count per source")
    K = tuple(_as_int(k, f"$.alphabets[{i}]") for i, k in enumerate(alphabets))

    hyps = _need(raw, "hypotheses", "$")
    if not isinstance(hyps, list) or len(hyps) != M:
        raise ModelFormatError("$.hypotheses: need one entry per hypothesis")
    pmfs = []
    for i, h in enumerate(hyps):
        path = f"$.hypotheses[{i}]"
        if not isinstance(h, dict):
            raise ModelFormatError(f"{path}: expected an object")
        if "joint" in h and "independent" in h:
            raise ModelFormatError(f"{path}: give either 'joint' or 'independent', not both")
        if "joint" in h:
            table = _as_array(h["joint"], f"{path}.joint")
            if table.shape != K:
                raise ModelFormatError(
                    f"{path}.joint: shape {table.shape} does not match alphabets {K}")
        elif "independent" in h:
            per_source = h["independent"]
            if not isinstance(per_source, list) or len(per_source) != n:
                raise ModelFormatError(f"{path}.independent: need one PMF per source")
            table = np.ones(())
            for j, p in enumerate(per_source):
                vec = _as_array(p, f"{path}.independent[{j}]")
                if vec.ndim != 1 or vec.size != K[j]:
                    raise ModelFormatError(
                        f"{path}.independent[{j}]: length must be {K[j]}")
                table = np.multiply.outer(table, vec)
            table = table.reshape(K)
        else:
            raise ModelFormatError(f"{path}: need either 'joint' or 'independent'")
        pmfs.append(table)
    model = JointModel(M, n, K, tuple(pmfs))

    av = _need(raw, "availability", "$")
    if not isinstance(av, list) or not av:
        raise ModelFormatError("$.availability: need a nonempty list")
    sets, probs = [], []
    for i, entry in enumerate(av):
        path = f"$.availability[{i}]"
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{path}: expected an object")
        sets.append(_as_subset(_need(entry, "subset", path), n, f"{path}.subset"))
        probs.append(_as_float(_need(entry, "prob", path), f"{path}.prob"))
    avail = AvailabilityDist(tuple(sets), np.array(probs))

    acts_raw = _need(raw, "actions", "$")
    if not isinstance(acts_raw, list):
        raise ModelFormatError("$.actions: expected a list of subsets")
    acts = [_as_subset(a, n, f"$.actions[{i}]") for i, a in enumerate(acts_raw)]
    if () not in acts:
        acts.insert(0, ())
    actions = ActionSpace(tuple(dict.fromkeys(acts)))

    buds = raw.get("budgets", [])
    if not isinstance(buds, list):
        raise ModelFormatError("$.budgets: expected a list")
    coeffs, rates = [], []
    for i, b in enumerate(buds):
        path = f"$.budgets[{i}]"
        if not isinstance(b, dict):
            raise ModelFormatError(f"{path}: expected an object")
        c = _as_array(_need(b, "coeff", path), f"{path}.coeff")
        if c.ndim != 1 or c.size != n:
            raise ModelFormatError(f"{path}.coeff: need one coefficient per source")
        coeffs.append(c)
        rates.append(_as_float(_need(b, "rate", path), f"{path}.rate"))
    budgets = (BudgetSpec(np.array(coeffs), np.array(rates)) if coeffs
               else BudgetSpec.none(n))
    return Instance(model, avail, actions, budgets)


def instance_to_dict(inst: Instance) -> dict:
    """Normalized config dict; re-parsing it reproduces the instance."""
    return {
        "M": inst.model.M,
        "n": inst.model.n,
        "alphabets": list(inst.model.alphabet),
        "hypotheses": [{"joint": p.tolist()} for p in inst.model.pmfs],
        "availability": [{"subset": list(z), "prob": float(p)}
                         for z, p in zip(inst.avail.sets, inst.avail.probs)],
        "actions": [list(a) for a in inst.actions.actions],
        "budgets": [{"coeff": inst.budgets.coeffs[i].tolist(),
                     "rate": float(inst.budgets.rates[i])}
                    for i in range(inst.budgets.size)],
    }


def dump_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n",
                          encoding="utf-8")


def load_betas(path: str | Path, inst: Instance) -> list[np.ndarray]:
    """Read per-hypothesis selection frequencies: a JSON list of M matrices,
    each |A| x |Z| in the model's action and availability order."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list) or len(raw) != inst.model.M:
        raise ModelFormatError("$: need one frequency matrix per hypothesis")
    shape = (inst.actions.size, len(inst.avail.sets))
    out = []
    for i, b in enumerate(raw):
        where = f"$[{i}] (hypothesis {i})"
        arr = _as_array(b, where)
        if arr.shape != shape:
            raise ModelFormatError(f"{where}: matrix must have shape {shape}")
        out.append(arr)
    return out
