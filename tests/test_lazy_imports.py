"""The float stack (numpy, ``sphere_geom``, ``valuation``, ``witness``) loads
on first use only: ``check-set`` and ``import kswitness`` never load it, and
every lazily bound name is the object in its home module.  Nor does
``check-set`` load ``dataclasses`` or ``inspect``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kswitness
from kswitness import cli, sphere_geom, valuation, witness
from kswitness.kssets import bundled_data_dir

ROOT = Path(__file__).resolve().parent.parent
FLOAT_STACK = ("numpy", "kswitness.sphere_geom", "kswitness.valuation", "kswitness.witness")

# The package's exports, by home module, as they were when every one of
# them was imported eagerly.
EXPORTS = {
    "sphere_geom": (
        "EPS_NORM", "EPS_ORTHO", "DescentAwayFromEquator", "DescentCircle",
        "DomainError", "NotOrthogonal", "SphPoint", "Triad", "complete_triad",
        "descent_theta", "equator_crossings", "from_cartesian", "perp_of_apex",
        "rotation_to_pole", "to_cartesian", "two_step_chain", "two_step_delta_phi",
    ),
    "valuation": (
        "FourSegmentValuation", "FunctionValuation", "Generator2D", "NotABasis",
        "OracleSpecError", "PolarCapValuation", "ReducedValuation", "RotatedValuation",
        "StepMeridianValuation", "Valuation", "Valuation2D", "Valuation2DRotated",
        "ZeroSetInvalid", "build_oracle", "check_basis", "find_zero_orthogonal_set",
        "make_valuation_1d", "reduce_dimension",
    ),
    "witness": ("WitnessConfig", "WitnessReport", "extract_witness"),
    "kssets": (
        "ColoringResult", "DuplicateRay", "OrthoGraph", "RaySet", "RaySetFormatError",
        "build_ortho_graph", "enumerate_bases", "find_valuation", "load_bundled",
        "load_ray_set", "verify_assignment",
    ),
}


def run_fresh(code: str) -> str:
    """Runs ``code`` in a fresh interpreter that imports kswitness from src/;
    returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


LOADED = "import json, sys; print(json.dumps([m for m in {stack!r} if m in sys.modules]))"


class TestFloatStackStaysUnloaded:
    def test_check_set_loads_no_float_module(self, tmp_path):
        path = bundled_data_dir() / "peres33.json"
        out = tmp_path / "report.json"
        stdout = run_fresh(
            "from kswitness import cli\n"
            f"assert cli.main(['check-set', {str(path)!r}, '--out', {str(out)!r}]) == 10\n"
            + LOADED.format(stack=FLOAT_STACK)
        )
        assert json.loads(stdout) == []
        assert json.loads(out.read_text())["coloring"]["colorable"] is False

    def test_bare_package_import_loads_no_float_module(self):
        stdout = run_fresh("import kswitness\n" + LOADED.format(stack=FLOAT_STACK))
        assert json.loads(stdout) == []


def test_check_set_loads_neither_dataclasses_nor_inspect():
    # Measured against what was loaded before kswitness, so a site
    # .pth file that preloads either module does not fail the test.
    path = bundled_data_dir() / "peres33.json"
    stdout = run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from kswitness import cli\n"
        f"assert cli.main(['check-set', {str(path)!r}, '--out', {os.devnull!r}]) == 10\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect')\n"
        "                  if m in sys.modules and m not in before]))\n"
    )
    assert json.loads(stdout) == []


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_its_home_object(module, name):
    home = importlib.import_module(f"kswitness.{module}")
    assert getattr(kswitness, name) is getattr(home, name)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        kswitness.no_such_name  # noqa: B018
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018


class TestHarnessContract:
    """``perfbench/layers.py`` reads these names as attributes of ``cli`` and
    swaps them with ``setattr``; each command must call through them."""

    def test_cli_names_are_the_home_objects(self):
        assert cli.build_oracle is valuation.build_oracle
        assert cli.extract_witness is witness.extract_witness
        for name in ("SphPoint", "DescentCircle", "to_cartesian", "equator_crossings",
                     "two_step_chain"):
            assert getattr(cli, name) is getattr(sphere_geom, name)

    def test_swapped_build_oracle_is_called(self, monkeypatch, capsys, tmp_path):
        calls = []

        def spy(spec):
            calls.append(spec)
            return valuation.build_oracle(spec)

        monkeypatch.setattr(cli, "build_oracle", spy)
        spec = tmp_path / "oracle.json"
        spec.write_text(json.dumps({"kind": "four_segment"}))
        assert cli.main(["witness", str(spec)]) == 0
        capsys.readouterr()
        assert calls == [{"kind": "four_segment"}]

    def test_name_set_before_first_bind_stays_set(self, tmp_path):
        spec = tmp_path / "oracle.json"
        spec.write_text(json.dumps({"kind": "four_segment"}))
        stdout = run_fresh(
            "from kswitness import cli\n"
            "calls = []\n"
            "def spy(oracle, config):\n"
            "    calls.append(config.rng_seed)\n"
            "    from kswitness.witness import extract_witness\n"
            "    return extract_witness(oracle, config)\n"
            "cli.extract_witness = spy\n"
            f"code = cli.main(['witness', {str(spec)!r}, '--seed', '3', '--out', {os.devnull!r}])\n"
            "print(code, calls, cli.extract_witness is spy)\n"
        )
        assert stdout.split() == ["0", "[3]", "True"]
