"""CLI contract: subcommands, JSON schemas, exit codes, determinism."""

import argparse
import csv
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from kswitness import cli
from kswitness.cli import build_parser, main
from kswitness.kssets import bundled_data_dir


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def oracle_file(tmp_path):
    def write(spec, name="oracle.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)
    return write


class TestCheckSet:
    def test_uncolorable_set_exits_10(self, capsys):
        path = bundled_data_dir() / "cabello18.json"
        code, out, _ = run_cli(capsys, "check-set", str(path))
        report = json.loads(out)
        assert code == 10
        assert report["coloring"]["colorable"] is False
        assert report["bases"] == {"count": 9, "source": "supplied"}
        assert report["graph"] == {"vertices": 18, "edges": 63}

    def test_colorable_set_exits_0_with_assignment(self, capsys):
        path = bundled_data_dir() / "single_basis3.json"
        code, out, _ = run_cli(capsys, "check-set", str(path))
        report = json.loads(out)
        assert code == 0
        assert report["coloring"]["colorable"] is True
        assert sum(report["coloring"]["assignment"]) == 1

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run_cli(capsys, "check-set", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "check-set", "/does/not/exist.json")
        assert code == 2


class TestWitnessCommand:
    def test_four_segment_certificate(self, capsys, oracle_file):
        path = oracle_file({"kind": "four_segment"})
        code, out, _ = run_cli(capsys, "witness", path, "--seed", "3")
        report = json.loads(out)
        assert code == 0
        assert report["outcome"] == "violating_basis"
        assert report["triad_sum"] != 1
        # re-verify the emitted triad in-process
        from kswitness.valuation import build_oracle
        oracle = build_oracle({"kind": "four_segment"})
        vecs = report["triad"]
        assert sum(oracle.evaluate(v) for v in vecs) == report["triad_sum"]

    def test_step_meridian_certificate(self, capsys, oracle_file):
        path = oracle_file({"kind": "step_meridian", "theta_star": 1.5707963267948966})
        code, out, _ = run_cli(capsys, "witness", path, "--seed", "1")
        assert code == 0
        assert json.loads(out)["outcome"] == "violating_basis"

    def test_step_meridian_at_zero_certificate(self, capsys, oracle_file):
        # theta_star = 0 picks the variant that is well defined there
        path = oracle_file({"kind": "step_meridian", "theta_star": 0.0})
        code, out, _ = run_cli(capsys, "witness", path, "--seed", "1")
        assert code == 0
        assert json.loads(out)["outcome"] == "violating_basis"

    def test_tiny_budget_exits_11(self, capsys, oracle_file):
        path = oracle_file({"kind": "polar_cap", "cap_latitude": 0.9})
        code, out, _ = run_cli(capsys, "witness", path, "--seed", "1", "--budget", "2")
        assert code == 11
        assert json.loads(out)["outcome"] == "not_found"

    def test_bad_spec_exits_2(self, capsys, oracle_file):
        path = oracle_file({"kind": "warp_core"})
        code, _, err = run_cli(capsys, "witness", path)
        assert code == 2 and "oracle" in err

    def test_byte_identical_reports(self, oracle_file):
        path = oracle_file({"kind": "step_meridian", "theta_star": 0.7,
                            "rotation_seed": 5})
        cmd = [sys.executable, "-m", "kswitness", "witness", path, "--seed", "11"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout


class TestGeom:
    def test_delta_phi_quarter_turn(self, capsys):
        theta_p = math.pi / 4
        theta_q = math.atan(0.5 * math.tan(theta_p))
        code, out, _ = run_cli(capsys, "geom", "delta-phi",
                               "--theta-p", repr(theta_p), "--theta-q", repr(theta_q))
        assert code == 0
        assert out.strip() == "0.785398163397"

    def test_descend_hits_equator_at_quarter_turn(self, capsys):
        code, out, _ = run_cli(capsys, "geom", "descend",
                               "--theta-p", repr(math.pi / 4),
                               "--phi", repr(math.pi / 2))
        assert code == 0
        assert out.strip() == "0.000000000000"

    def test_away_from_equator_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "geom", "delta-phi",
                               "--theta-p", "0.5235987756", "--theta-q", "0.7853981634")
        assert code == 2 and "descend" in err

    @pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
    def test_non_finite_query_longitude_exits_2(self, capsys, phi):
        code, out, err = run_cli(capsys, "geom", "descend", "--theta-p", "0.5", f"--phi={phi}")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("theta_p", ["0", "1.5707963267948966"])
    def test_chain_apex_on_equator_or_pole_exits_2(self, capsys, theta_p):
        code, out, err = run_cli(capsys, "geom", "chain", "--theta-p", theta_p, "--theta-q", "0.3")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: descent circle apex ")

    @pytest.mark.parametrize("theta_p", ["0", "1.5707963267948966"])
    def test_descent_figure_apex_on_equator_or_pole_exits_2(self, capsys, tmp_path, theta_p):
        out_path = tmp_path / "curve.csv"
        code, out, err = run_cli(capsys, "plot", "--figure", "descent-circle",
                                 "--theta-p", theta_p, "--out", str(out_path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: descent circle apex ")
        assert not out_path.exists()

    def test_chain_output(self, capsys):
        code, out, _ = run_cli(capsys, "geom", "chain", "--theta-p", repr(math.pi / 4),
                               "--theta-q", repr(math.atan(0.5)))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("r ") and lines[1].startswith("q ")
        r_theta, r_phi = (float(x) for x in lines[0].split()[1:])
        assert r_phi == pytest.approx(math.pi / 4, abs=1e-9)

    def test_crossings_output(self, capsys):
        code, out, _ = run_cli(capsys, "geom", "crossings", "--theta-p", "0.7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[1:] == ["0.000000000000", "1.000000000000", "0.000000000000"]


class TestPlot:
    def test_four_segment_grid_is_half_zeros(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "plot", "--figure", "four-segment",
                             "--out", str(out_path), "--format", "csv", "--grid", "32")
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 32 * 64
        zeros = sum(1 for r in rows if r["value"] == "0")
        assert zeros == len(rows) // 2  # exactly half, by the grid symmetry

    def test_descent_circle_rows_satisfy_identity(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        theta_p = 0.9
        code, _, _ = run_cli(capsys, "plot", "--figure", "descent-circle",
                             "--theta-p", str(theta_p), "--out", str(out_path))
        assert code == 0
        for row in csv.DictReader(out_path.read_text().splitlines()):
            phi, theta = float(row["phi"]), float(row["theta"])
            expected = math.atan(math.tan(theta_p) * math.cos(phi))
            assert abs(theta - expected) < 1e-9

    def test_oracle_grid(self, capsys, tmp_path, oracle_file):
        spec = oracle_file({"kind": "polar_cap", "cap_latitude": 0.8})
        out_path = tmp_path / "cap.csv"
        code, _, _ = run_cli(capsys, "plot", "--oracle", spec, "--out", str(out_path),
                             "--grid", "16")
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        ones = sum(1 for r in rows if r["value"] == "1")
        # cap area fraction = 1 - sin(0.8)
        assert abs(ones / len(rows) - (1 - math.sin(0.8))) < 0.05

    def test_svg_output(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run_cli(capsys, "plot", "--figure", "four-segment",
                             "--out", str(out_path), "--format", "svg", "--grid", "16")
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<svg") and "<rect" in text

    # Directory names XML cannot hold as they are, by how the title shows
    # them: a byte that is not UTF-8, as sys.argv carries it, and a C0
    # control character.
    SHOWN = {"a\udcffb": "a\\xffb", "a\x01b": "a\\x01b"}

    @pytest.mark.parametrize("case", ["four-segment", "descent-circle", "oracle", "a&b<c>d",
                                      *SHOWN])
    def test_every_svg_parses_as_xml(self, capsys, tmp_path, case):
        """Both figures and an oracle grid, and oracle specs in directories
        whose names hold ``&``, ``<`` and ``>``, a byte that is not UTF-8
        or a control character: the title must read back as the spec path,
        with each of the last two written as its escape."""
        out_path = tmp_path / "fig.svg"
        argv = ["plot", "--format", "svg", "--grid", "4", "--out", str(out_path)]
        if case in cli.FIGURES:
            argv += ["--figure", case]
        else:
            spec = tmp_path / case / "s.json"
            spec.parent.mkdir()
            spec.write_text(json.dumps({"kind": "four_segment"}))
            argv += ["--oracle", str(spec)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        svg = ElementTree.parse(out_path).getroot()
        if case not in cli.FIGURES:
            shown = str(spec).replace(case, self.SHOWN.get(case, case))
            assert svg.find("{http://www.w3.org/2000/svg}text").text == f"oracle grid: {shown}"
            assert len(svg.findall(".//{http://www.w3.org/2000/svg}rect")) == 4 * 8 + 1

    def test_grid_out_of_memory_exits_2(self, capsys, monkeypatch, tmp_path):
        # numpy raises MemoryError for a grid it cannot allocate; stand in
        # for it rather than ask for one.
        from kswitness import sphere_geom

        def out_of_memory(thetas, phis):
            raise MemoryError
        monkeypatch.setattr(sphere_geom, "to_cartesian_grid", out_of_memory)
        out_path = tmp_path / "grid.csv"
        code, out, err = run_cli(capsys, "plot", "--figure", "four-segment",
                                 "--grid", "100000", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error: --grid 100000") and len(err.splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("figure", ["--oracle", "--figure"])
    def test_grid_without_numpy_exits_2(self, tmp_path, oracle_file, figure):
        # A fresh interpreter in which numpy cannot be imported.
        source = oracle_file({"kind": "valuation2d_rotated", "intervals": [[0.2, 0.9]]})
        if figure == "--figure":
            source = "four-segment"
        out_path = tmp_path / "grid.csv"
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "from kswitness import cli\n"
                f"sys.exit(cli.main(['plot', {figure!r}, {source!r}, '--out', {str(out_path)!r}]))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == "error: plot grids need numpy, which is not installed\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_cell_pick_out_of_memory_exits_2(self, capsys, monkeypatch, tmp_path, fmt):
        # The cells are picked before the file is opened, so running out of
        # memory there is the input error, not a traceback from the write.
        def out_of_memory(pieces, values):
            raise MemoryError
        monkeypatch.setattr(cli, "_pick_cells", out_of_memory)
        out_path = tmp_path / f"grid.{fmt}"
        code, out, err = run_cli(capsys, "plot", "--figure", "four-segment", "--grid", "3",
                                 "--format", fmt, "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == "error: --grid 3: the grid does not fit in memory\n"
        assert not out_path.exists()

    def test_unwritable_path_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "plot", "--figure", "four-segment",
                             "--out", "/nonexistent-dir/x.csv")
        assert code == 3

    def test_figure_and_oracle_conflict(self, capsys, tmp_path, oracle_file):
        spec = oracle_file({"kind": "four_segment"})
        code, _, _ = run_cli(capsys, "plot", "--figure", "four-segment",
                             "--oracle", spec, "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unknown_figure_exits_2(self, capsys, tmp_path):
        code = main(["plot", "--figure", "pentagram", "--out", str(tmp_path / "x.csv")])
        capsys.readouterr()
        assert code == 2


class TestCountFlags:
    """Count flags take integers of at least 1 and ``--seed`` one of at
    least 0; anything else is a usage error (exit 2, one ``error:`` line)
    before any work starts.  ``witness --meridians`` is no longer a flag, so
    it is rejected whatever its value."""

    CASES = [
        ("witness", "--budget", "0"),
        ("witness", "--budget", "-5"),
        ("witness", "--budget", "many"),
        ("witness", "--meridians", "0"),
        ("witness", "--meridians", "8"),
        ("witness", "--seed", "-1"),
        ("plot-descent", "--grid", "0"),
        ("plot-descent", "--grid", "-1"),
        ("plot-oracle", "--grid", "0"),
        ("plot-oracle", "--grid", "1.5"),
    ]

    @pytest.mark.parametrize("command,flag,value", CASES)
    def test_non_positive_count_exits_2(self, capsys, tmp_path, oracle_file, command, flag, value):
        out = tmp_path / "out.csv"
        spec = oracle_file({"kind": "four_segment"})
        argv = {
            "witness": ["witness", spec, "--out", str(out)],
            "plot-descent": ["plot", "--figure", "descent-circle", "--out", str(out)],
            "plot-oracle": ["plot", "--oracle", spec, "--out", str(out)],
        }[command]
        code, stdout, err = run_cli(capsys, *argv, flag, value)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code == 2 and stdout == ""
        assert len(errors) == 1 and flag in errors[0]
        assert not out.exists()


class TestCheckSetLayers:
    """``perfbench`` times the ray-set layers by swapping these ``kssets``
    functions for wrappers, so check-set must reach each of them through the
    module."""

    LAYERS = ("load_ray_set", "validate_supplied_bases", "build_ortho_graph",
              "enumerate_bases", "find_valuation", "verify_assignment")

    def traced_calls(self, monkeypatch, capsys, name):
        from kswitness import kssets

        calls = dict.fromkeys(self.LAYERS, 0)
        for layer in self.LAYERS:
            def counted(*args, _fn=getattr(kssets, layer), _layer=layer, **kwargs):
                calls[_layer] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(kssets, layer, counted)
        code, out, _ = run_cli(capsys, "check-set", str(bundled_data_dir() / f"{name}.json"))
        return code, json.loads(out), {k for k, v in calls.items() if v}

    def test_enumerated_path_reaches_its_layers(self, monkeypatch, capsys):
        code, report, called = self.traced_calls(monkeypatch, capsys, "disjoint_bases3")
        assert code == 0 and report["bases"]["source"] == "enumerated"
        assert called == {"load_ray_set", "build_ortho_graph", "enumerate_bases",
                          "find_valuation", "verify_assignment"}

    def test_uncolorable_enumerated_path_reaches_its_layers(self, monkeypatch, capsys):
        # An uncolorable answer has no assignment to verify.
        code, report, called = self.traced_calls(monkeypatch, capsys, "peres33")
        assert code == 10 and report["bases"]["source"] == "enumerated"
        assert called == {"load_ray_set", "build_ortho_graph", "enumerate_bases",
                          "find_valuation"}

    def test_supplied_path_reaches_its_layers(self, monkeypatch, capsys):
        code, report, called = self.traced_calls(monkeypatch, capsys, "cabello18")
        assert code == 10 and report["bases"]["source"] == "supplied"
        assert called == {"load_ray_set", "validate_supplied_bases", "build_ortho_graph",
                          "find_valuation"}


def run_module(argv, **streams) -> subprocess.CompletedProcess:
    """``python -m kswitness ARGV`` in a child process with the given
    ``subprocess.run`` stream arguments, its stdout block-buffered as it is
    by default, so what a failed flush leaves buffered must not fail again
    at exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "kswitness", *argv], env=env, text=True,
                          timeout=60, **streams)


def dev_full() -> int:
    """A descriptor open for writing on ``/dev/full``, which the caller
    closes; skips the test where there is none."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    return os.open("/dev/full", os.O_WRONLY)


class TestOutputErrors:
    """A report that cannot be written ends in exit 3 with one ``error:``
    line and no traceback; an ``error:`` line that cannot be written is
    lost, and the exit code kept."""

    @pytest.mark.parametrize("command", ["check-set", "witness"])
    def test_unwritable_out_exits_3(self, capsys, tmp_path, oracle_file, command):
        source = (str(bundled_data_dir() / "peres33.json") if command == "check-set"
                  else oracle_file({"kind": "four_segment"}))
        code, stdout, err = run_cli(capsys, command, source,
                                    "--out", str(tmp_path / "missing" / "x.json"))
        lines = err.splitlines()
        assert code == 3 and stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error: cannot write ")

    @pytest.mark.parametrize("sink", ["/dev/full", "closed-pipe"])
    @pytest.mark.parametrize("command", ["check-set", "witness", "geom", "help", "witness-help"])
    def test_unwritable_stdout_exits_3(self, oracle_file, command, sink):
        argv = {
            "check-set": ["check-set", str(bundled_data_dir() / "peres33.json")],
            "witness": ["witness", oracle_file({"kind": "four_segment"})],
            "geom": ["geom", "descend", "--theta-p", "0.5", "--phi", "1"],
            "help": ["-h"],
            "witness-help": ["witness", "-h"],
        }[command]
        if sink == "/dev/full":
            stdout = dev_full()
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
        try:
            result = run_module(argv, stdout=stdout, stderr=subprocess.PIPE)
        finally:
            os.close(stdout)
        lines = result.stderr.splitlines()
        assert result.returncode == 3, result.stderr
        assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: ")

    @pytest.mark.parametrize("command", ["check-set", "witness", "geom", "plot",
                                         "missing-argument", "unknown-flag"])
    def test_unwritable_stderr_keeps_exit_2(self, tmp_path, oracle_file, command):
        argv = {
            "check-set": ["check-set", str(tmp_path / "missing.json")],
            "witness": ["witness", oracle_file({"kind": "no_such_kind"})],
            "geom": ["geom", "descend", "--theta-p", "0", "--phi", "1"],
            "plot": ["plot", "--out", str(tmp_path / "x.csv")],
            "missing-argument": ["check-set"],  # argparse's own usage error
            "unknown-flag": ["check-set", "--bogus", "x"],
        }[command]
        stderr = dev_full()
        try:
            result = run_module(argv, stdout=subprocess.PIPE, stderr=stderr)
        finally:
            os.close(stderr)
        assert result.returncode == 2 and result.stdout == ""

    def test_unwritable_stdout_and_stderr_keep_exit_3(self):
        sink = dev_full()
        try:
            result = run_module(["check-set", str(bundled_data_dir() / "peres33.json")],
                                stdout=sink, stderr=sink)
        finally:
            os.close(sink)
        assert result.returncode == 3

    def test_stdout_closed_at_start_exits_3(self):
        result = run_module(["check-set", str(bundled_data_dir() / "peres33.json")],
                            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        lines = result.stderr.splitlines()
        assert result.returncode == 3, result.stderr
        assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: ")


# Each command that writes an --out file, with {spec} for an oracle-spec
# file, and the exit code it ends in.
OUT_COMMANDS = {
    "check-set": (["check-set", str(bundled_data_dir() / "peres33.json")], 10),
    "witness": (["witness", "{spec}", "--seed", "3"], 0),
    "oracle-csv": (["plot", "--oracle", "{spec}", "--grid", "8"], 0),
    "oracle-svg": (["plot", "--oracle", "{spec}", "--grid", "8", "--format", "svg"], 0),
    "curve-csv": (["plot", "--figure", "descent-circle", "--grid", "8"], 0),
    "curve-svg": (["plot", "--figure", "descent-circle", "--grid", "8", "--format", "svg"], 0),
}


class TestOutFile:
    """An existing ``--out`` file is written over in place and cut to
    length, in the bytes a fresh write gives; one that cannot be opened, or
    whose write fails, ends in exit 3 and one ``error:`` line, and a failed
    write leaves an empty file, never the old one."""

    @pytest.fixture(params=OUT_COMMANDS)
    def command(self, request, capsys, oracle_file):
        """A function running the command into an out path and returning its
        exit code and stderr, and the exit code it ends in when it works."""
        argv, code = OUT_COMMANDS[request.param]
        spec = oracle_file({"kind": "four_segment"})
        argv = [a.format(spec=spec) for a in argv]

        def write(out):
            status, stdout, err = run_cli(capsys, *argv, "--out", str(out))
            assert stdout == ""
            return status, err
        return write, code

    @staticmethod
    def fresh(command, tmp_path) -> bytes:
        write, code = command
        assert write(tmp_path / "fresh") == (code, "")
        return (tmp_path / "fresh").read_bytes()

    @staticmethod
    def assert_exit_3(result, out):
        code, err = result
        lines = err.splitlines()
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("length", ["64 KiB longer", "shorter"])
    def test_rewrite_gives_the_fresh_bytes(self, command, tmp_path, length):
        write, code = command
        fresh = self.fresh(command, tmp_path)
        out = tmp_path / "old"
        out.write_bytes(os.urandom(len(fresh) + 65536 if length == "64 KiB longer"
                                   else len(fresh) // 2))
        assert write(out) == (code, "")
        assert out.read_bytes() == fresh

    def test_symlink_is_written_through(self, command, tmp_path):
        write, code = command
        fresh = self.fresh(command, tmp_path)
        target = tmp_path / "target"
        target.write_bytes(os.urandom(len(fresh) + 65536))
        link = tmp_path / "link"
        link.symlink_to(target)
        assert write(link) == (code, "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh

    def test_dev_null(self, command):
        write, code = command
        assert write(os.devnull) == (code, "")

    def test_read_only_file_exits_3(self, command, tmp_path, monkeypatch):
        write, _ = command
        out = tmp_path / "old"
        out.write_bytes(b"old")
        out.chmod(0o444)
        if os.access(out, os.W_OK):
            # Root writes a read-only file; stand in for the refusal any
            # other user gets.
            real_open = os.open

            def refuse(path, flags, *args, **kwargs):
                if path == str(out) and flags & (os.O_WRONLY | os.O_RDWR):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return real_open(path, flags, *args, **kwargs)
            monkeypatch.setattr(os, "open", refuse)
        self.assert_exit_3(write(out), out)
        assert out.read_bytes() == b"old"

    def test_failed_write_leaves_an_empty_file(self, command, tmp_path, monkeypatch):
        write, code = command
        out = tmp_path / "report"
        assert write(out) == (code, "")
        write_out = cli._write_out

        def failing(out_path, chunks):
            def first_then_fail():
                yield next(iter(chunks))
                raise OSError(errno.EIO, "forced failure")
            write_out(out_path, first_then_fail())
        monkeypatch.setattr(cli, "_write_out", failing)
        self.assert_exit_3(write(out), out)
        assert out.read_bytes() == b""


def test_grid_write_failing_after_a_flush_leaves_an_empty_file(capsys, tmp_path, monkeypatch):
    # A 160-row grid CSV is about 1.7 MB, so by row 150 its 1 MiB buffer has
    # reached the file once and holds the rows since.
    out = tmp_path / "grid.csv"
    argv = ["plot", "--figure", "four-segment", "--grid", "160", "--out", str(out)]
    assert run_cli(capsys, *argv) == (0, "", "")
    assert out.stat().st_size > 1 << 20
    fmt, calls = cli._fmt, []

    def fmt_failing_at_row_150(x):
        calls.append(x)
        if len(calls) > 320 + 150:  # 320 longitudes, then one latitude per row
            raise OSError(errno.ENOSPC, "forced failure")
        return fmt(x)
    monkeypatch.setattr(cli, "_fmt", fmt_failing_at_row_150)
    code, _, err = run_cli(capsys, *argv)
    assert code == 3 and len(err.splitlines()) == 1
    assert out.read_bytes() == b""


class TestInputErrors:
    """Malformed input files end in exit 2 with one ``error:`` line and no
    traceback."""

    VALID = {"name": "axes", "dimension": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    CASES = [
        pytest.param("check-set", json.dumps({**VALID, "bases": [5]}), id="bases-not-lists"),
        pytest.param("check-set", '{"name": "x", "dimension": 3, '
                     '"vectors": [[1e400, 0, 0], [0, 1, 0], [0, 0, 1]]}', id="huge-coordinate"),
        pytest.param("check-set", b'\xff\xfe{"name": "x"}', id="set-not-utf8"),
        pytest.param("check-set", json.dumps({**VALID, "provenance": 5}), id="provenance-int"),
        pytest.param("check-set", json.dumps({**VALID, "vectors": ["100", "010", "001"]}),
                     id="vectors-as-strings"),
        pytest.param("witness", json.dumps({"kind": "four_segment", "rotation_seed": -1}),
                     id="negative-rotation-seed"),
        pytest.param("witness", b'\xff\xfe{"kind": "four_segment"}', id="spec-not-utf8"),
        pytest.param("witness", json.dumps({"kind": "four_segment", "pole_value": True}),
                     id="pole-value-bool"),
        pytest.param("check-set", json.dumps({**VALID, "schema": "zz"}), id="set-schema-string"),
        pytest.param("witness", json.dumps({"kind": "four_segment", "schema": True}),
                     id="spec-schema-bool"),
        pytest.param("witness", json.dumps({"kind": "polar_cap", "cap_latitude": True}),
                     id="cap-latitude-bool"),
        pytest.param("witness", json.dumps({"kind": "polar_cap", "cap_latitude": "0.5"}),
                     id="cap-latitude-string"),
        pytest.param("witness", '{"kind": "polar_cap", "cap_latitude": 1' + "0" * 400 + "}",
                     id="cap-latitude-huge-int"),
        pytest.param("witness", json.dumps({"kind": "step_meridian", "theta_star": "0.5"}),
                     id="theta-star-string"),
        pytest.param("witness", json.dumps({"kind": "valuation2d_rotated",
                                            "intervals": [["0.1", 1.0]]}),
                     id="interval-endpoint-string"),
        # A JSON integer past int()'s 4 300-digit limit, and nesting past the
        # recursion limit, fail inside json.load itself.
        pytest.param("check-set", '{"name": "x", "dimension": 3, "vectors": [[1' + "0" * 4300
                     + ", 0, 0], [0, 1, 0], [0, 0, 1]]}", id="set-int-past-digit-limit"),
        pytest.param("check-set", "[" * 100_000, id="set-nested-too-deep"),
        pytest.param("witness", '{"kind": "four_segment", "rotation_seed": 1' + "0" * 4300 + "}",
                     id="spec-int-past-digit-limit"),
        pytest.param("witness", "[" * 100_000, id="spec-nested-too-deep"),
        pytest.param("plot", '{"kind": "four_segment", "rotation_seed": 1' + "0" * 4300 + "}",
                     id="plot-spec-int-past-digit-limit"),
        pytest.param("plot", "[" * 100_000, id="plot-spec-nested-too-deep"),
        # Coordinate strings are "p" or "p/q" only: an exponent would make
        # the parser expand it, and decimals are not documented.
        pytest.param("check-set", json.dumps({**VALID, "vectors": [["1e999999999", 0, 0],
                                                                   [0, 1, 0], [0, 0, 1]]}),
                     id="coordinate-huge-exponent"),
        pytest.param("check-set", json.dumps({**VALID, "vectors": [["1e5", 0, 0],
                                                                   [0, 1, 0], [0, 0, 1]]}),
                     id="coordinate-exponent"),
        pytest.param("check-set", json.dumps({**VALID, "vectors": [["1.5", 0, 0],
                                                                   [0, 1, 0], [0, 0, 1]]}),
                     id="coordinate-decimal"),
        # A "p/q" string of more digits than int() converts: json.load takes it.
        pytest.param("check-set", json.dumps({**VALID, "vectors": [["1" + "0" * 4399, 0, 0],
                                                                   [0, 1, 0], [0, 0, 1]]}),
                     id="coordinate-string-past-digit-limit"),
        pytest.param("check-set", "[]", id="set-not-an-object"),
        pytest.param("witness", "[]", id="spec-not-an-object"),
        pytest.param("plot", "[]", id="plot-spec-not-an-object"),
        pytest.param("check-set", json.dumps({"name": "x", "dimension": 1, "vectors": [[1]]}),
                     id="dimension-1"),
        pytest.param("check-set", json.dumps({**VALID, "bases": [[0, 0, 1]]}),
                     id="basis-repeats-a-ray"),
        pytest.param("check-set", json.dumps({**VALID, "vectors": [[1, 0, 0], [0, 1], [0, 0, 1]]}),
                     id="short-vector"),
        pytest.param("check-set", json.dumps({**VALID, "vectors": [[1, 0, 0], [0, 0, 0], [0, 0, 1]]}),
                     id="zero-vector"),
    ]

    @pytest.mark.parametrize("command,payload", CASES)
    def test_input_error_exits_2(self, capsys, tmp_path, command, payload):
        path = tmp_path / "input.json"
        path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
        if command == "plot":
            argv = ["plot", "--oracle", str(path), "--out", str(tmp_path / "grid.csv")]
        else:
            argv = [command, str(path)]
        code, stdout, err = run_cli(capsys, *argv)
        lines = err.splitlines()
        assert code == 2 and stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["witness", "plot"])
    def test_missing_spec_file_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "missing.json"
        if command == "plot":
            argv = ["plot", "--oracle", str(path), "--out", str(tmp_path / "grid.csv")]
        else:
            argv = [command, str(path)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read {path}: ")
        assert not (tmp_path / "grid.csv").exists()


SRC = str(Path(__file__).resolve().parent.parent / "src")
RECURSION_LIMIT = 100


def _too_deep(case: str) -> dict:
    """A valid ray set that needs more than ``RECURSION_LIMIT`` frames."""
    n = RECURSION_LIMIT
    if case == "standard-basis":  # enumerate_bases grows a basis one member per frame
        return {"name": "axes", "dimension": n,
                "vectors": [[int(i == k) for k in range(n)] for i in range(n)]}
    # find_valuation branches once per frame on each pair of a colorable set.
    return {"name": "pairs", "dimension": 2,
            "vectors": [v for k in range(1, n + 1) for v in ([1, k], [-k, 1])]}


class TestRecursionLimit:
    """Valid ray sets that need more Python frames than the recursion limit
    allows end in exit 2 with one ``error:`` line naming the file.  Each
    runs in a fresh interpreter with the limit lowered to
    ``RECURSION_LIMIT``, so the inputs stay small."""

    @pytest.mark.parametrize("case", ["standard-basis", "disjoint-pairs"])
    def test_too_deep_exits_2(self, tmp_path, case):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(_too_deep(case)))
        code = ("import sys\n"
                "from kswitness import cli\n"
                f"sys.setrecursionlimit({RECURSION_LIMIT})\n"
                f"sys.exit(cli.main(['check-set', {str(path)!r}]))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60)
        lines = result.stderr.splitlines()
        assert result.returncode == 2 and result.stdout == ""
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), result.stderr


@pytest.fixture
def fresh_parsers(monkeypatch):
    """``main`` with no parser built yet; the old one is put back after."""
    monkeypatch.setattr(cli, "_parser", None)


class TestParserPerSubcommand:
    """``main`` builds the full parser on its first call and reuses it for
    every later call in the process; every message argparse prints is the
    one a new full parser prints."""

    SUBCOMMANDS = ("check-set", "witness", "geom", "plot")
    GEOM_COMMANDS = ("descend", "delta-phi", "chain", "crossings")
    ARGVS = [
        [], ["-h"], ["--version"], ["bogus"], ["-x", "check-set"],
        *([name, "-h"] for name in SUBCOMMANDS), ["geom", "chain", "-h"],
        ["check-set", "a", "b"], ["witness", "a", "b"], ["witness", "x.json", "--seed", "-1"],
        ["plot", "--grid", "0", "--out", "x"], ["geom"], ["geom", "descend", "--phi", "1"],
        ["geom", "bogus"], ["geom", "crossings", "--theta-p", "0.5", "extra"],
    ]

    @staticmethod
    def full_parser_main(argv):
        """``main`` with the parser holding every subcommand."""
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
    def test_output_matches_the_full_parser(self, capsys, argv):
        expected = (self.full_parser_main(list(argv)), *capsys.readouterr())
        assert (main(list(argv)), *capsys.readouterr()) == expected
        assert expected[1] or expected[2], "each case ends in argparse's own output"

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        expected = run_cli(capsys, "geom", "-h")
        monkeypatch.setattr(sys, "argv", ["kswitness", "geom", "-h"])
        assert (main(), *capsys.readouterr()) == expected

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
    def test_one_parser_per_path(self, monkeypatch, capsys, fresh_parsers, argv):
        added = {"command": [], "geom_command": []}
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            added[self.dest].append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        main(list(argv))
        capsys.readouterr()
        # Whatever the argv, the first call adds every subcommand once.
        every = {"command": list(self.SUBCOMMANDS), "geom_command": list(self.GEOM_COMMANDS)}
        assert added == every
        # Later calls, with any argv, reuse that parser and add none.
        for later in self.ARGVS:
            main(list(later))
        capsys.readouterr()
        assert added == every

    def test_reused_parsers_leak_no_state(self, monkeypatch, capsys, tmp_path, oracle_file,
                                          fresh_parsers):
        built = []

        def counted_build_parser():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted_build_parser)
        spec = oracle_file({"kind": "step_meridian", "theta_star": 0.7, "rotation_seed": 5})
        out = tmp_path / "figure"
        descend = ["geom", "descend", "--theta-p", "0.3", "--phi", "2"]
        steps = [
            ["witness", spec, "--seed", "5"], ["witness", spec], ["-h"],
            ["witness", "x.json", "--seed", "-1"], ["witness", spec], ["witness", "-h"],
            [*descend, "--phi-p", "1"], descend, ["geom", "descend", "-h"],
            ["plot", "--figure", "four-segment", "--grid", "4", "--format", "svg",
             "--out", str(out)],
            ["-h"], ["plot", "--figure", "four-segment", "--grid", "4", "--out", str(out)],
        ]

        def outcome(run, argv):
            out.unlink(missing_ok=True)
            code = run(list(argv))
            return (code, *capsys.readouterr(), out.read_bytes() if out.exists() else None)

        seen = []
        for argv in steps:
            expected = outcome(self.full_parser_main, argv)
            assert outcome(main, argv) == expected, argv
            seen.append(expected)
        # Each second step differs from the first only by a flag it leaves
        # at its default, so a value carried over would show.
        assert [code for code, *_ in seen] == [0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]
        assert seen[0] != seen[1] and seen[6] != seen[7] and seen[9] != seen[11]
        assert len(built) == 1
