"""The float stack (``sphere_geom``, ``valuation``, ``witness``) loads on
first use only: ``check-set`` and ``import kswitness`` never load it, and
every lazily bound name is the object in its home module.  numpy loads on
the batch path only, so ``witness``, ``geom`` and the scalar API run
without it.  No command but the grid plots loads ``dataclasses`` or
``inspect``."""

import ast
import builtins
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

from golden_specs import oracle_spec
from test_golden_reports import GOLDEN, WITNESS_CASES

ROOT = Path(__file__).resolve().parent.parent
FLOAT_STACK = ("numpy", "kswitness.sphere_geom", "kswitness.valuation", "kswitness.witness")

# The package's exports, by home module, as they were when every one of
# them was imported eagerly.
EXPORTS = {
    "sphere_geom": (
        "EPS_NORM", "EPS_ORTHO", "DescentAwayFromEquator", "DescentCircle",
        "DomainError", "NotOrthogonal", "SphPoint", "Triad", "descent_theta",
        "equator_crossings", "from_cartesian", "perp_of_apex", "rotation_to_pole",
        "to_cartesian", "two_step_chain", "two_step_delta_phi",
    ),
    "valuation": (
        "FourSegmentValuation", "FunctionValuation", "Generator2D", "NotABasis",
        "OracleSpecError", "PolarCapValuation", "ReducedValuation", "RotatedValuation",
        "StepMeridianValuation", "Valuation", "Valuation2D", "Valuation2DRotated",
        "build_oracle", "check_basis", "reduce_dimension",
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


HEAVY = ("numpy", "dataclasses", "inspect")


def newly_loaded(code: str, modules=HEAVY) -> list[str]:
    """The ``modules`` that ``code`` loads in a fresh interpreter, measured
    against what was loaded before it, as above."""
    stdout = run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        + code +
        f"\nprint(json.dumps([m for m in {modules!r} if m in sys.modules and m not in before]))\n"
    )
    return json.loads(stdout.splitlines()[-1])


# The commands that run on the scalar path, with {spec} and {out} for an
# oracle-spec file and an output path.
SCALAR_COMMANDS = [
    ["witness", "{spec}", "--seed", "2", "--out", "{out}"],
    ["geom", "descend", "--theta-p", "0.7", "--phi-p", "0.2", "--phi", "1.1"],
    ["geom", "delta-phi", "--theta-p", "0.7", "--theta-q", "0.3"],
    ["geom", "chain", "--theta-p", "0.7", "--phi-p", "0.2", "--theta-q", "0.3"],
    ["geom", "crossings", "--theta-p", "0.7", "--phi-p", "0.2"],
    ["plot", "--figure", "descent-circle", "--out", "{out}"],
    ["plot", "--figure", "descent-circle", "--format", "svg", "--out", "{out}"],
]


@pytest.mark.parametrize("argv", SCALAR_COMMANDS, ids=" ".join)
def test_scalar_commands_load_no_heavy_module(argv, tmp_path):
    spec = tmp_path / "oracle.json"
    spec.write_text(json.dumps(oracle_spec("valuation2d_rotated", 3)))
    argv = [a.format(spec=spec, out=tmp_path / "out") for a in argv]
    code = f"from kswitness import cli\nassert cli.main({argv!r}) == 0\n"
    assert newly_loaded(code) == []
    assert (tmp_path / "out").exists() == ("--out" in argv)


def test_float_modules_import_no_heavy_module():
    code = "import kswitness.sphere_geom, kswitness.valuation, kswitness.witness\n"
    assert newly_loaded(code) == []


def test_plot_oracle_loads_numpy(tmp_path):
    spec = tmp_path / "oracle.json"
    spec.write_text(json.dumps({"kind": "four_segment"}))
    argv = ["plot", "--oracle", str(spec), "--grid", "2", "--out", str(tmp_path / "grid.csv")]
    assert "numpy" in newly_loaded(f"from kswitness import cli\nassert cli.main({argv!r}) == 0\n")


PARSER_MODULES = ("argparse", "gettext", "locale")


@pytest.mark.parametrize("argv,code,loaded", [
    (["check-set", "{rays}", "--out", "{out}"], 10, []),
    (["witness", "{spec}", "--seed", "2", "--out", "{out}"], 0, []),
    (["check-set", "-h"], 0, list(PARSER_MODULES)),
], ids=["check-set", "witness", "check-set -h"])
def test_only_a_declined_argv_loads_argparse(argv, code, loaded, tmp_path):
    # main reads a plain argv itself, so argparse and the gettext and locale
    # modules it loads stay unloaded; help is the parser's.
    spec = tmp_path / "oracle.json"
    spec.write_text(json.dumps(oracle_spec("valuation2d_rotated", 3)))
    argv = [a.format(rays=bundled_data_dir() / "peres33.json", spec=spec, out=tmp_path / "out")
            for a in argv]
    run = f"from kswitness import cli\nassert cli.main({argv!r}) == {code}\n"
    assert newly_loaded(run, PARSER_MODULES) == loaded


# Refuses every numpy import; the child prints the names it refused.
REFUSE_NUMPY = """
import sys
refused = []
class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            refused.append(name)
            raise ImportError(f"{name} is refused")
        return None
sys.meta_path.insert(0, RefuseNumpy())
"""


def test_golden_witness_reports_without_numpy(tmp_path):
    runs = []
    for kind, seed in WITNESS_CASES:
        spec = tmp_path / f"{kind}_seed{seed}.spec.json"
        spec.write_text(json.dumps(oracle_spec(kind, seed)))
        runs.append(["witness", str(spec), "--seed", str(seed),
                     "--out", str(tmp_path / f"{kind}_seed{seed}.json")])
    stdout = run_fresh(
        REFUSE_NUMPY
        + "import json\n"
        + "from kswitness import cli\n"
        + f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        + "print(json.dumps([codes, refused, 'numpy' in sys.modules]))\n"
    )
    assert json.loads(stdout) == [[0] * len(runs), [], False]
    for kind, seed in WITNESS_CASES:
        report = tmp_path / f"{kind}_seed{seed}.json"
        assert report.read_bytes() == (GOLDEN / "witness" / report.name).read_bytes()


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_its_home_object(module, name):
    home = importlib.import_module(f"kswitness.{module}")
    assert getattr(kswitness, name) is getattr(home, name)


def test_importtime_logs_a_lazily_loaded_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-X", "importtime", "-c",
                             "import kswitness; kswitness.SphPoint"],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    logged = [line.rpartition("|")[2].strip() for line in result.stderr.splitlines()]
    assert "kswitness.sphere_geom" in logged


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
        assert cli.main(["plot", "--oracle", str(spec), "--grid", "2",
                         "--out", str(tmp_path / "grid.csv")]) == 0
        capsys.readouterr()
        assert calls == [{"kind": "four_segment"}] * 2

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


# The batch path: the only code in the float modules that may name numpy.
# Everything else computes on Python floats, so a lazy numpy import can sit
# inside these alone.
BATCH_PATH = {
    "sphere_geom": ("to_cartesian_grid", "as_rows", "require_unit_rows"),
    "valuation": ("Valuation.evaluate_many", "_Many",
                  "_RuleValuation.evaluate_many", "Valuation2D.values_at_angles",
                  "RotatedValuation.evaluate_many"),
}


def _np_scopes(tree: ast.Module) -> list[str]:
    """For each ``np`` in the module, the qualified name of the def, class
    or module-level assignment it sits in (``"<module>"`` for none)."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "np":
                found.append(".".join(scope) or "<module>")
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
            elif isinstance(child, ast.Assign) and node is tree:
                walk(child, (ast.unparse(child.targets[0]),))
            else:
                walk(child, scope)

    walk(tree, ())
    return found


@pytest.mark.parametrize("module", BATCH_PATH)
def test_numpy_is_named_only_on_the_batch_path(module):
    source = Path(importlib.import_module(f"kswitness.{module}").__file__).read_text()
    scopes = _np_scopes(ast.parse(source))
    outside = [s for s in scopes
               if not any(s == b or s.startswith(b + ".") for b in BATCH_PATH[module])]
    assert scopes and outside == []


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds outside its functions and classes, in ``if``
    and ``try`` blocks too: imports, defs, classes and assignment targets."""
    names = set()

    def visit(body):
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
            elif isinstance(node, (ast.If, ast.Try)):
                for block in ("body", "orelse", "finalbody"):
                    visit(getattr(node, block, []))
                for handler in getattr(node, "handlers", []):
                    visit(handler.body)

    visit(tree.body)
    return names


def _annotation_names(tree: ast.Module) -> set[str]:
    """Every bare name in the module's annotations, string ones parsed."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            annotations += [arg.annotation for arg in
                            (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if arg]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    pending = [a for a in annotations if a is not None]
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                pending.append(ast.parse(node.value, mode="eval"))
    return names


def test_cli_annotations_name_only_what_cli_binds():
    # cli postpones its annotations, so an unbound name in one raises
    # nothing until something such as typing.get_type_hints evaluates it.
    tree = ast.parse(Path(cli.__file__).read_text())
    bound = _top_level_names(tree) | set(cli._FLOAT_NAMES) | set(dir(builtins))
    named = _annotation_names(tree)
    assert named and named - bound == set()
