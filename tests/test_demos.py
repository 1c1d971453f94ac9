"""Every demo script runs to completion against the library, and the
deterministic ones print their pinned text."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_walkthrough_shows_the_pole_basis_bits(tmp_path):
    result = run_demo(ROOT / "demos" / "witness_walkthrough.py", tmp_path)
    line = next(s for s in result.stdout.splitlines() if s.split()[:1] == ["pole_basis"])
    values = ast.literal_eval(line.split(None, 1)[1])["values"]
    assert len(values) == 3 and set(values) <= {0, 1}, line


DIMENSION_REDUCTION_STDOUT = """\
=== d = 4 ===
zero hunt: 4 oracle calls
  zero direction [1. 0. 0. 0.]  v = 0
reduced extraction: violating_basis, triad sum = 2
padded back to a 4-basis: sum = 2 (needs 1)

=== d = 5 ===
zero hunt: 5 oracle calls
  zero direction [1. 0. 0. 0. 0.]  v = 0
  zero direction [0. 1. 0. 0. 0.]  v = 0
reduced extraction: violating_basis, triad sum = 2
padded back to a 5-basis: sum = 2 (needs 1)

"""


def test_dimension_reduction_prints_the_pinned_text(tmp_path):
    result = run_demo(ROOT / "demos" / "dimension_reduction.py", tmp_path)
    assert result.stdout == DIMENSION_REDUCTION_STDOUT


def test_finite_ray_sets_prints_the_golden_text(tmp_path):
    result = run_demo(ROOT / "demos" / "finite_ray_sets.py", tmp_path)
    golden = ROOT / "tests" / "golden" / "demos" / "finite_ray_sets.txt"
    assert result.stdout == golden.read_text(encoding="utf-8")
