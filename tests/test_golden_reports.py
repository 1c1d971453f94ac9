"""Golden witness reports and plot output, pinned byte for byte.

Each file under ``tests/golden/witness/`` and ``tests/golden/plot/`` was
written by the code as it stood before the refactors that these tests
guard.  To rewrite them (only when a change to the output is intended):

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

from kswitness.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEEDS = range(5)


def oracle_spec(kind: str, seed: int) -> dict:
    """The four built-in kinds; every kind but four_segment is rotated by
    a seed-derived rotation."""
    spec = {
        "four_segment": {"kind": "four_segment"},
        "step_meridian": {"kind": "step_meridian", "theta_star": 0.7},
        "polar_cap": {"kind": "polar_cap", "cap_latitude": 0.9},
        "valuation2d_rotated": {"kind": "valuation2d_rotated",
                                "intervals": [[0.2, 0.9], [1.1, 1.4]]},
    }[kind]
    if kind != "four_segment":
        spec = {**spec, "rotation_seed": seed}
    return spec


WITNESS_CASES = [(kind, seed) for kind in ("four_segment", "step_meridian", "polar_cap",
                                           "valuation2d_rotated") for seed in SEEDS]
PLOT_FORMATS = ("csv", "svg")


def witness_bytes(kind: str, seed: int, workdir: Path) -> bytes:
    spec = workdir / "oracle.json"
    spec.write_text(json.dumps(oracle_spec(kind, seed)))
    out = workdir / "report.json"
    main(["witness", str(spec), "--seed", str(seed), "--out", str(out)])
    return out.read_bytes()


def plot_bytes(fmt: str, workdir: Path) -> bytes:
    out = workdir / f"four_segment.{fmt}"
    code = main(["plot", "--figure", "four-segment", "--grid", "16", "--format", fmt,
                 "--out", str(out)])
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("kind,seed", WITNESS_CASES)
def test_witness_report_matches_golden(kind, seed, tmp_path):
    golden = GOLDEN / "witness" / f"{kind}_seed{seed}.json"
    assert witness_bytes(kind, seed, tmp_path) == golden.read_bytes()


@pytest.mark.parametrize("fmt", PLOT_FORMATS)
def test_four_segment_plot_matches_golden(fmt, tmp_path):
    golden = GOLDEN / "plot" / f"four_segment_grid16.{fmt}"
    assert plot_bytes(fmt, tmp_path) == golden.read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for sub in ("witness", "plot"):
            (GOLDEN / sub).mkdir(parents=True, exist_ok=True)
        for kind, seed in WITNESS_CASES:
            (GOLDEN / "witness" / f"{kind}_seed{seed}.json").write_bytes(
                witness_bytes(kind, seed, work))
        for fmt in PLOT_FORMATS:
            (GOLDEN / "plot" / f"four_segment_grid16.{fmt}").write_bytes(plot_bytes(fmt, work))
