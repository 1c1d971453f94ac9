"""The exit-code contract under seeded fuzzing: mutated ray-set and
oracle-spec documents, run in process through ``check-set``, ``witness``
and ``plot --oracle``, end in a documented exit code, never in an
exception, and every input error prints exactly one ``error:`` line.  A
stderr that cannot be written changes no exit code.  Seeded argv lists
drawn from the command-line vocabulary keep the same contract, and a
second identical call in the same process, on the parser the first one
built, writes the same bytes."""

import copy
import errno
import io
import json
import math
import os
import random
import sys

from kswitness.cli import main
from kswitness.kssets import bundled_data_dir

DOCUMENTS = 300
ARGVS = 200
EXIT_CODES = {0, 2, 3, 10, 11}

SPECS = [
    {"kind": "four_segment", "pole_value": 1},
    {"kind": "four_segment", "pole_value": 0, "rotation_seed": 5},
    {"kind": "step_meridian", "theta_star": 0.8, "boundary_variant": "one_at_step"},
    {"kind": "step_meridian", "theta_star": 0.3, "boundary_variant": "zero_at_step",
     "rotation_seed": 11},
    {"kind": "polar_cap", "cap_latitude": 1.1, "schema": 1},
    {"kind": "valuation2d_rotated", "intervals": [[0.0, 0.6], [1.0, 1.3]], "rotation_seed": 2},
]
AXES = {"schema": 1, "name": "axes", "dimension": 3,
        "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "bases": [[0, 1, 2]]}

# Values swapped in for any node: wrong types, huge, negative and
# non-finite numbers, non-list vectors and bad indices.
REPLACEMENTS = (None, True, False, 0, -1, 3, 99, -(10 ** 30), 10 ** 400, 2 ** 63, 0.5, 1e308,
                -1e308, math.nan, math.inf, -math.inf, "", "x", "1/0", "nan", "-3/4", [], {},
                [1, 2], [[1]], [0, 0, 0], {"kind": "polar_cap"}, "four_segment")


def base_documents() -> list:
    sets = [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(bundled_data_dir().glob("*.json"))]
    return sets + [AXES] + SPECS


def nodes(doc, found=None) -> list:
    """Every (parent, key) place in ``doc``, at any depth."""
    found = [] if found is None else found
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = range(len(doc))
    else:
        return found
    for key in keys:
        found.append((doc, key))
        nodes(doc[key], found)
    return found


def mutate(doc, rng: random.Random):
    """``doc`` with one or two random edits: a key or item dropped, a
    node replaced, a list grown or an index pushed out of range."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        places = nodes(doc)
        if not places:
            return rng.choice(REPLACEMENTS)
        parent, key = rng.choice(places)
        edit = rng.randrange(5)
        if edit == 0:
            del parent[key]
        elif edit == 1:
            parent[key] = rng.choice(REPLACEMENTS)
        elif edit == 2 and isinstance(parent[key], list):
            parent[key].append(copy.deepcopy(rng.choice(parent[key] or [0])))
        elif edit == 3 and isinstance(parent[key], (int, float)):
            parent[key] = rng.choice((-1, 10 ** 6, -parent[key], parent[key] * 10 ** 6))
        else:
            parent[key] = rng.choice((-1, 10 ** 9, 2 ** 64))
    return doc


class BrokenStderr:
    """A stderr whose every write fails, on no descriptor of its own, so
    nothing may point the test process's descriptor 2 elsewhere."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


def test_mutated_documents_keep_the_exit_code_contract(capsys, monkeypatch, tmp_path):
    stderr_file = os.fstat(2)
    rng = random.Random(2101)
    bases = base_documents()
    path = tmp_path / "input.json"
    out = str(tmp_path / "out")
    commands = (["check-set", str(path), "--out", out],
                ["witness", str(path), "--out", out],
                ["plot", "--oracle", str(path), "--grid", "4", "--out", out])
    for k in range(DOCUMENTS):
        doc = mutate(rng.choice(bases), rng)
        text = json.dumps(doc)
        if k % 10 == 0:
            text = text[:rng.randrange(len(text) + 1)]
        path.write_text(text, encoding="utf-8")
        for argv in commands:
            code = main(argv)
            err = capsys.readouterr().err
            assert code in EXIT_CODES, (argv[0], text)
            if code == 2:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv[0], text, err)
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stderr", BrokenStderr())
                assert main(argv) == code, (argv[0], text)
    now = os.fstat(2)
    assert (now.st_dev, now.st_ino) == (stderr_file.st_dev, stderr_file.st_ino)


# The command-line vocabulary: each subcommand's and geom subcommand's
# flags, with good values and bad ones.  --grid takes only small counts,
# so a run stays fast; a value of None stands for a file.
FLAGS = {
    "check-set": ("--out",),
    "witness": ("--seed", "--budget", "--out"),
    "descend": ("--theta-p", "--phi-p", "--phi"),
    "delta-phi": ("--theta-p", "--theta-q"),
    "chain": ("--theta-p", "--phi-p", "--theta-q"),
    "crossings": ("--theta-p", "--phi-p"),
    "plot": ("--figure", "--oracle", "--out", "--format", "--grid", "--theta-p", "--phi-p"),
}
VALUES = {
    "--seed": ("1", "7"), "--budget": ("1", "40"), "--grid": ("1", "2", "3"),
    "--format": ("csv", "svg"), "--figure": ("four-segment", "descent-circle"),
    "--theta-p": ("0.7", "-0.4", "1.5"), "--phi-p": ("0.2", "-3"),
    "--phi": ("1.1", "2"), "--theta-q": ("0.3", "-0.6"), "--oracle": None, "--out": None,
}
BAD_VALUES = ("-1", "0", "nan", "1e400", "x")
WORDS = ("check-set", "witness", "geom", "plot", "bogus", "descend", "-h", *VALUES, *BAD_VALUES)


def random_argv(rng: random.Random, files: dict) -> list:
    """A subcommand (and after ``geom``, a geom subcommand), its file and
    most of its flags, each with a good value or a bad one; now and then
    a file, a flag or a value is left out, or a word of the vocabulary is
    put anywhere.  ``files`` names the inputs and the outputs to draw."""
    def input_file(good):
        return files[good] if rng.random() < 0.7 else rng.choice(files["inputs"])

    command = rng.choice(("check-set", "witness", "geom", "plot"))
    argv = [command]
    if command == "geom":
        command = rng.choice(("descend", "delta-phi", "chain", "crossings"))
        argv.append(command)
    if command in ("check-set", "witness") and rng.random() < 0.9:
        argv.append(input_file("rays" if command == "check-set" else "spec"))
    # plot takes one of --figure and --oracle, so it mostly gets one.
    rare = rng.choice(("--figure", "--oracle")) if command == "plot" else None
    for flag in FLAGS[command]:
        if rng.random() < (0.9 if flag == rare else 0.2):
            continue
        argv.append(flag)
        if rng.random() < 0.03:
            continue
        if flag == "--out":
            argv.append(rng.choice(files["outputs"]))
        elif flag == "--oracle":
            argv.append(input_file("spec"))
        else:
            argv.append(rng.choice(BAD_VALUES if rng.random() < 0.1 else VALUES[flag]))
    if rng.random() < 0.15:
        argv.insert(rng.randint(0, len(argv)), rng.choice(WORDS))
    return argv


def test_random_argvs_keep_the_exit_code_contract(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[2]), encoding="utf-8")
    out = tmp_path / "out"
    # Every output lies in tmp_path: a directory and a path under a missing
    # one cannot be written.
    files = {"spec": str(spec), "rays": str(bundled_data_dir() / "peres24.json")}
    files["inputs"] = (files["spec"], files["rays"], str(tmp_path / "missing.json"),
                       str(tmp_path))
    files["outputs"] = (str(out), str(out), str(out), str(tmp_path),
                        str(tmp_path / "missing" / "out"))
    rng = random.Random(3301)

    def outcome(argv):
        out.unlink(missing_ok=True)
        code = main(list(argv))
        return (code, *capsys.readouterr(), out.read_bytes() if out.exists() else None)

    codes = set()
    for _ in range(ARGVS):
        argv = random_argv(rng, files)
        first = outcome(argv)
        assert first[0] in EXIT_CODES, argv
        assert outcome(argv) == first, argv
        codes.add(first[0])
    assert codes == EXIT_CODES
