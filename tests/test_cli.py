"""CLI contract: subcommands, JSON schemas, exit codes, determinism."""

import argparse
import csv
import json
import math
import subprocess
import sys

import pytest

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
    before any work starts."""

    CASES = [
        ("witness", "--budget", "0"),
        ("witness", "--budget", "-5"),
        ("witness", "--budget", "many"),
        ("witness", "--meridians", "0"),
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

    def test_supplied_path_reaches_its_layers(self, monkeypatch, capsys):
        code, report, called = self.traced_calls(monkeypatch, capsys, "cabello18")
        assert code == 10 and report["bases"]["source"] == "supplied"
        assert called == {"load_ray_set", "validate_supplied_bases", "build_ortho_graph",
                          "find_valuation"}


class TestOutputErrors:
    """A report that cannot be written ends in exit 3 with one ``error:``
    line and no traceback."""

    @pytest.mark.parametrize("command", ["check-set", "witness"])
    def test_unwritable_out_exits_3(self, capsys, tmp_path, oracle_file, command):
        source = (str(bundled_data_dir() / "peres33.json") if command == "check-set"
                  else oracle_file({"kind": "four_segment"}))
        code, stdout, err = run_cli(capsys, command, source,
                                    "--out", str(tmp_path / "missing" / "x.json"))
        lines = err.splitlines()
        assert code == 3 and stdout == ""
        assert len(lines) == 1 and lines[0].startswith("error: cannot write ")


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


class TestParserPerSubcommand:
    """``main`` builds only the invoked subcommand's parser; every message
    argparse prints is the one the full parser prints."""

    SUBCOMMANDS = ("check-set", "witness", "geom", "plot")
    ARGVS = [
        [], ["-h"], ["--version"], ["bogus"], ["-x", "check-set"],
        *([name, "-h"] for name in SUBCOMMANDS), ["geom", "chain", "-h"],
        ["check-set", "a", "b"], ["witness", "a", "b"], ["witness", "x.json", "--seed", "-1"],
        ["plot", "--grid", "0", "--out", "x"], ["geom"], ["geom", "descend", "--phi", "1"],
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
    def test_one_parser_per_call(self, monkeypatch, capsys, argv):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            if self.dest == "command":
                added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        main(list(argv))
        capsys.readouterr()
        named = argv[:1] if argv and argv[0] in self.SUBCOMMANDS else []
        assert added == (named or list(self.SUBCOMMANDS))
