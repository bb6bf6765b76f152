"""Recorded `estimate_errors` outputs: the results CSV and summary JSON of
three fixed configurations, held byte for byte.

The files under tests/data/ were written by the trial kernel that laid S out
as M row lists and tested every row against the thresholds; any faster step
must reproduce them. To rewrite them (only when the outputs are meant to
change):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from aseq import sim
from aseq.modelio import load_instance

from conftest import MODEL_DIR, four_hypothesis_instance, two_set_instance

DATA = Path(__file__).resolve().parent / "data"

# name: instance, T grid, trials per cell, seed, step cap; all at epsilon 0.
# At T = 2 and 3 the four-hypothesis model has nonpositive thresholds, so
# the stop check reads more than one row; two_set_capped hits its cap.
GOLDEN = {
    "example": (lambda: load_instance(MODEL_DIR / "chernoff3x2.json"),
                (2.0, 3.0, 4.0, 5.0, 6.0), 1500, 23, None),
    "four_hypotheses": (four_hypothesis_instance, (2.0, 3.0, 3.5, 4.5), 800, 5, None),
    "two_set_capped": (lambda: two_set_instance([1, 1]), (24.0, 36.0), 400, 7, 20),
}


def golden_outputs(name: str, tmp: Path) -> tuple[bytes, bytes]:
    """The results CSV and the summary JSON (as `aseq simulate` writes
    them) of configuration ``name``, run serially."""
    make, T_grid, trials, seed, max_steps = GOLDEN[name]
    config = sim.ExperimentConfig(make(), T_grid, trials, seed, epsilon=0.0,
                                  max_steps=max_steps, workers=1)
    report = sim.estimate_errors(config)
    csv_path = tmp / f"{name}.csv"
    sim.write_report_csv(report, csv_path)
    summary = json.dumps(sim.summary_dict(report), indent=2) + "\n"
    return csv_path.read_bytes(), summary.encode("utf-8")


@pytest.mark.parametrize("name", list(GOLDEN))
def test_estimate_errors_matches_recorded_outputs(name, tmp_path):
    got_csv, got_summary = golden_outputs(name, tmp_path)
    assert got_csv == (DATA / f"{name}.csv").read_bytes()
    assert got_summary == (DATA / f"{name}_summary.json").read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN:
            csv_bytes, summary = golden_outputs(name, Path(tmp))
            (DATA / f"{name}.csv").write_bytes(csv_bytes)
            (DATA / f"{name}_summary.json").write_bytes(summary)
            print(f"wrote {DATA / name}.csv and {DATA / name}_summary.json")
