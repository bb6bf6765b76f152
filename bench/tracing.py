"""Spans and counts around the program's public calls, from outside it.

``instrument`` rebinds each traced public function, in every ``aseq``
module that holds it, to a wrapper that records a span, and restores the
originals on exit. The program itself is unchanged. Spans live in memory
until ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MODULES = ("aseq", "aseq.cli", "aseq.divergence", "aseq.linprog", "aseq.model",
           "aseq.modelio", "aseq.policy", "aseq.region", "aseq.sim")

# (module, function) -> layer name
TRACED = {
    ("aseq.cli", "main"): "cli.main",
    ("aseq.modelio", "load_instance"): "modelio.load",
    ("aseq.model", "validate_model"): "model.validate",
    ("aseq.divergence", "build_instance_table"): "divergence.table",
    ("aseq.region", "build_polytope"): "region.build_polytope",
    ("aseq.region", "enumerate_vertices"): "region.enumerate_vertices",
    ("aseq.region", "compute_region"): "region.compute_region",
    ("aseq.region", "decision_risk_exponents"): "region.decision_risk_exponents",
    ("aseq.linprog", "solve_lp"): "linprog.solve_lp",
    ("aseq.region", "nonadaptive_membership"): "region.nonadaptive_membership",
    ("aseq.region", "individual_hypothesis_region_slice"): "region.adaptive_slice",
    ("aseq.region", "nonadaptive_slice"): "region.nonadaptive_slice",
    ("aseq.region", "tuncel_slice"): "region.tuncel_slice",
    ("aseq.region", "tuncel_membership"): "region.tuncel_membership",
    ("aseq.policy", "build_params"): "policy.build_params",
    ("aseq.policy", "run_trial"): "policy.run_trial",
    ("aseq.sim", "estimate_errors"): "sim.estimate_errors",
    ("aseq.sim", "fit_exponents"): "sim.fit_exponents",
    ("aseq.sim", "verify_constraints"): "sim.verify_constraints",
    ("aseq.sim", "write_report_csv"): "sim.write_report_csv",
}

# Called once per trial: aggregated per round, never kept span by span.
HOT = {"policy.run_trial"}
# Results kept for the checks of the traced run.
KEEP_RESULTS = {"region.enumerate_vertices"}


class Tracer:
    """Spans grouped by round. Per (round, name): call count, total and self
    time (total minus the time of child spans), plus a ``steps`` count for
    the trial kernel. Individual spans (id, name, round, parent id, start,
    end) are kept for every layer not in HOT."""

    def __init__(self):
        self.round = "setup"
        self.stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0,
                                          "durations": [], "steps": 0})
        self.spans: list[dict] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []   # per open span: [name, child time]
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = None
            if name not in HOT:
                span = {"id": len(self.spans), "name": name, "round": self.round,
                        "parent": self._stack[-1][0] if self._stack else None}
                self.spans.append(span)
            self._stack.append([span and span["id"], 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                st = self.stats[(self.round, name)]
                st["calls"] += 1
                st["total"] += dur
                st["self"] += dur - child
                if span is not None:
                    st["durations"].append(dur)
                    span.update(start=start - self._t0, end=end - self._t0)
            if name == "policy.run_trial":
                st["steps"] += int(result.stopping_time)
            if name in KEEP_RESULTS:
                self.results[name].append(result)
            return result
        return traced

    def dump(self, path: Path, extra: dict) -> None:
        stats = [{"round": rnd, "name": n, "calls": st["calls"], "total_s": st["total"],
                  "self_s": st["self"], "steps": st["steps"]}
                 for (rnd, n), st in sorted(self.stats.items(), key=lambda kv: str(kv[0]))]
        path.write_text(json.dumps({"spans": self.spans, "stats": stats, **extra},
                                   indent=1) + "\n", encoding="utf-8")


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every traced function in every aseq module that holds it."""
    mods = [importlib.import_module(m) for m in MODULES]
    saved = []
    for (mod_name, attr), name in TRACED.items():
        original = getattr(importlib.import_module(mod_name), attr)
        wrapper = tracer.wrap(name, original)
        for mod in mods:
            if getattr(mod, attr, None) is original:
                saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
