"""Recorded region-layer outputs of the CLI, held byte for byte: the
`aseq region` JSON of three models (the example; the four-hypothesis model,
whose 3-D sub-regions go through qhull; and a model whose declared-0 corner
cloud is flat, so its facets are null), and the example's `--slice e2=0.3`
CSV and `aseq divergence` CSV.

To rewrite them (only when the outputs are meant to change):

    PYTHONPATH=src python tests/test_golden_region.py
"""

from pathlib import Path

import pytest

from aseq.cli import main
from aseq.modelio import dump_instance

from conftest import MODEL_DIR, flat_corner_instance, four_hypothesis_instance

DATA = Path(__file__).resolve().parent / "data"

# file name: the instance (None for models/chernoff3x2.json) and the command.
GOLDEN = {
    "region_example.json": (None, ["region"]),
    "region_four_hypotheses.json": (four_hypothesis_instance, ["region"]),
    "region_flat_corners.json": (flat_corner_instance, ["region"]),
    "slice_example.csv": (None, ["region", "--slice", "e2=0.3"]),
    "divergence_example.csv": (None, ["divergence"]),
}


def golden_output(name: str, tmp: Path) -> bytes:
    """What the command of ``name`` writes to its --out file."""
    make, command = GOLDEN[name]
    model = MODEL_DIR / "chernoff3x2.json"
    if make is not None:
        model = tmp / "model.json"
        dump_instance(make(), model)
    out = tmp / name
    assert main([*command, "--model", str(model), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_region_commands_match_recorded_outputs(name, tmp_path):
    assert golden_output(name, tmp_path) == (DATA / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN:
            (DATA / name).write_bytes(golden_output(name, Path(tmp)))
            print(f"wrote {DATA / name}")
