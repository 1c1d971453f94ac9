"""The exit-code contract under seeded fuzzing: mutated ray-set and
oracle-spec documents, run in process through ``check-set``, ``witness``
and ``plot --oracle``, end in a documented exit code, never in an
exception, and every input error prints exactly one ``error:`` line.  A
stderr that cannot be written changes no exit code."""

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
