"""Cold set-up in a fresh interpreter: import aseq, then load, validate,
tabulate divergences and build the constraint polytope of each model file
named on the command line. Prints the seconds of each phase as JSON.

    python3 bench/setup_probe.py MODEL.json [MODEL.json ...]
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

start = time.perf_counter()
import aseq  # noqa: E402

phases = {"aseq.import": time.perf_counter() - start, "modelio.load": 0.0,
          "model.validate": 0.0, "divergence.table": 0.0, "region.build_polytope": 0.0}
for path in sys.argv[1:]:
    t0 = time.perf_counter()
    inst = aseq.load_instance(path)
    t1 = time.perf_counter()
    aseq.validate_model(inst.model, inst.avail, inst.actions, inst.budgets)
    t2 = time.perf_counter()
    aseq.build_instance_table(inst)
    t3 = time.perf_counter()
    aseq.build_polytope(inst.avail, inst.actions, inst.budgets)
    t4 = time.perf_counter()
    for name, dt in zip(("modelio.load", "model.validate", "divergence.table",
                         "region.build_polytope"), (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
        phases[name] += dt
print(json.dumps(phases))
