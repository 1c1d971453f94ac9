"""Golden witness reports and plot output, pinned byte for byte.

Each file under ``tests/golden/plot/`` was written by the code as it stood
before the refactors that these tests guard.  The reports under
``tests/golden/witness/``, and the digests of the rotated ``plot --oracle``
grids, were last rewritten when ``random_rotation`` came to draw a
quaternion from ``random.Random`` and the scalar path came to compute on
Python floats, so their bytes no longer depend on numpy or the BLAS
kernel; the reports were rewritten once more when the constant
``standardize`` trace step was dropped.  Each report still ends in a
certificate.  ``plot --oracle`` grids are pinned by the SHA-256 digest of
their CSV and SVG bytes in ``tests/golden/plot/oracle_digests.json``;
``plot --figure descent-circle`` curves are pinned there too, as
``csv.writer`` wrote them.  To rewrite them
(only when a change to the output is intended):

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from kswitness.cli import main

from golden_specs import KINDS, SEEDS, oracle_spec

GOLDEN = Path(__file__).parent / "golden"
WITNESS_CASES = [(kind, seed) for kind in KINDS for seed in SEEDS]
PLOT_FORMATS = ("csv", "svg")
# plot --oracle digests: one rotated spec per kind at grid 64, and the
# rotated four-segment spec at grid 256.
PLOT_ROTATION_SEED = 7
ORACLE_PLOT_CASES = [(kind, 64, fmt) for kind in KINDS for fmt in PLOT_FORMATS]
ORACLE_PLOT_CASES += [("four_segment", 256, fmt) for fmt in PLOT_FORMATS]
# Edge grids, pinned in the same file: grid 1 is one row of two columns.
# The four-segment spec is unrotated here.
EDGE_PLOT_CASES = [(kind, rotation_seed, grid, fmt)
                   for kind, rotation_seed in (("four_segment", None),
                                               ("valuation2d_rotated", PLOT_ROTATION_SEED))
                   for grid in (1, 2, 3) for fmt in PLOT_FORMATS]
ORACLE_DIGESTS = GOLDEN / "plot" / "oracle_digests.json"
# plot --figure descent-circle digests, pinned in the same file: the default
# apex and one apex off the prime meridian.
DESCENT_PLOT_CASES = [(apex, grid, fmt) for apex, grid in (((0.7853981633974483, 0.0), 64),
                                                           ((1.2, -2.5), 16))
                      for fmt in PLOT_FORMATS]


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


def oracle_plot_digest(kind: str, grid: int, fmt: str, workdir: Path,
                       rotation_seed=PLOT_ROTATION_SEED) -> str:
    """The digest of ``kind``'s grid, rotated by ``rotation_seed`` unless
    it is None."""
    # The SVG title names the spec path, so it is given relative to workdir.
    spec = {k: v for k, v in oracle_spec(kind, 0).items() if k != "rotation_seed"}
    if rotation_seed is not None:
        spec["rotation_seed"] = rotation_seed
    (workdir / "oracle.json").write_text(json.dumps(spec))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main(["plot", "--oracle", "oracle.json", "--grid", str(grid), "--format", fmt,
                     "--out", f"grid.{fmt}"])
    finally:
        os.chdir(cwd)
    assert code == 0
    return hashlib.sha256((workdir / f"grid.{fmt}").read_bytes()).hexdigest()


def oracle_plot_key(kind: str, grid: int, fmt: str, rotation_seed=PLOT_ROTATION_SEED) -> str:
    rotation = "" if rotation_seed is None else f"_rot{rotation_seed}"
    return f"{kind}{rotation}_grid{grid}.{fmt}"


def descent_plot_digest(apex, grid: int, fmt: str, workdir: Path) -> str:
    out = workdir / f"descent.{fmt}"
    code = main(["plot", "--figure", "descent-circle", "--theta-p", repr(apex[0]),
                 "--phi-p", repr(apex[1]), "--grid", str(grid), "--format", fmt,
                 "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def descent_plot_key(apex, grid: int, fmt: str) -> str:
    return f"descent_circle_{apex[0]:.4f}_{apex[1]:.4f}_grid{grid}.{fmt}"


@pytest.mark.parametrize("kind,seed", WITNESS_CASES)
def test_witness_report_matches_golden(kind, seed, tmp_path):
    golden = GOLDEN / "witness" / f"{kind}_seed{seed}.json"
    assert witness_bytes(kind, seed, tmp_path) == golden.read_bytes()


@pytest.mark.parametrize("fmt", PLOT_FORMATS)
def test_four_segment_plot_matches_golden(fmt, tmp_path):
    golden = GOLDEN / "plot" / f"four_segment_grid16.{fmt}"
    assert plot_bytes(fmt, tmp_path) == golden.read_bytes()


@pytest.mark.parametrize("kind,grid,fmt", ORACLE_PLOT_CASES)
def test_oracle_plot_matches_pinned_digest(kind, grid, fmt, tmp_path):
    pinned = json.loads(ORACLE_DIGESTS.read_text())
    assert oracle_plot_digest(kind, grid, fmt, tmp_path) == pinned[oracle_plot_key(kind, grid, fmt)]


@pytest.mark.parametrize("kind,rotation_seed,grid,fmt", EDGE_PLOT_CASES)
def test_edge_grid_plot_matches_pinned_digest(kind, rotation_seed, grid, fmt, tmp_path):
    pinned = json.loads(ORACLE_DIGESTS.read_text())
    digest = oracle_plot_digest(kind, grid, fmt, tmp_path, rotation_seed)
    assert digest == pinned[oracle_plot_key(kind, grid, fmt, rotation_seed)]


@pytest.mark.parametrize("apex,grid,fmt", DESCENT_PLOT_CASES)
def test_descent_circle_plot_matches_pinned_digest(apex, grid, fmt, tmp_path):
    pinned = json.loads(ORACLE_DIGESTS.read_text())
    assert descent_plot_digest(apex, grid, fmt, tmp_path) == pinned[descent_plot_key(apex, grid, fmt)]


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
        digests = {oracle_plot_key(*case): oracle_plot_digest(*case, work)
                   for case in ORACLE_PLOT_CASES}
        digests.update((oracle_plot_key(kind, grid, fmt, seed),
                        oracle_plot_digest(kind, grid, fmt, work, seed))
                       for kind, seed, grid, fmt in EDGE_PLOT_CASES)
        digests.update((descent_plot_key(*case), descent_plot_digest(*case, work))
                       for case in DESCENT_PLOT_CASES)
        ORACLE_DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
