"""The report writer: ``cli._json_text`` writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``, on every report the CLI
writes and on seeded random documents of the types a report holds, and
rejects any other value."""

import json
import math
import random
from pathlib import Path

import pytest

from kswitness import cli
from kswitness.cli import _json_text
from kswitness.kssets import bundled_data_dir
from kswitness.valuation import build_oracle
from kswitness.witness import WitnessConfig, extract_witness

GOLDEN = Path(__file__).parent / "golden"
KINDS = ("four_segment", "step_meridian", "polar_cap", "valuation2d_rotated")


def json_reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("path", sorted(GOLDEN.rglob("*.json")),
                         ids=lambda p: str(p.relative_to(GOLDEN)))
def test_golden_documents(path):
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert _json_text(doc) == json_reference(doc)
    if text.startswith("{\n"):  # a report, written as the CLI writes it
        assert _json_text(doc) + "\n" == text


@pytest.mark.parametrize("path", sorted(bundled_data_dir().glob("*.json")), ids=lambda p: p.stem)
def test_check_set_reports(monkeypatch, capsys, path):
    docs = []
    dump = cli._dump_json

    def capture(doc, out_path):
        docs.append(doc)
        dump(doc, out_path)

    monkeypatch.setattr(cli, "_dump_json", capture)
    assert cli.main(["check-set", str(path)]) in (0, 10)
    (doc,) = docs
    assert capsys.readouterr().out == json_reference(doc) + "\n"


def seeded_spec(kind: str, rng: random.Random) -> dict:
    if kind == "four_segment":
        spec = {"kind": kind, "pole_value": rng.choice((0, 1))}
    elif kind == "step_meridian":
        spec = {"kind": kind, "theta_star": rng.uniform(0.1, 1.45)}
    elif kind == "polar_cap":
        spec = {"kind": kind, "cap_latitude": rng.uniform(0.1, 1.45)}
    else:
        cuts = sorted(rng.uniform(0.05, 1.52) for _ in range(4))
        spec = {"kind": kind, "intervals": [cuts[0:2], cuts[2:4]]}
    spec["rotation_seed"] = rng.randrange(1_000_000)
    return spec


@pytest.mark.parametrize("kind", KINDS)
def test_witness_reports(kind):
    rng = random.Random(f"writer:{kind}")
    outcomes = set()
    for _ in range(12):
        oracle = build_oracle(seeded_spec(kind, rng))
        for budget in (3, 10_000):
            report = extract_witness(oracle, WitnessConfig(max_descent_probes=budget,
                                                           rng_seed=rng.randrange(1000)))
            outcomes.add(report.outcome)
            doc = report.to_json_dict()
            assert _json_text(doc) == json_reference(doc)
    assert {"violating_basis", "not_found"} <= outcomes


# A report holds exact types only; json would write these subclasses by
# int.__repr__ and float.__repr__, not their own.
class IntSub(int):
    def __repr__(self):
        return "IntSub()"


class FloatSub(float):
    def __repr__(self):
        return "FloatSub()"


FLOATS = (0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 0.1, 1 / 3)
CHARS = ('"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "漢",
         "\U0001f600", "a", "Z", " ", "0")


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_scalar(rng: random.Random):
    pick = rng.randrange(8)
    if pick == 0:
        return random_text(rng)
    if pick == 1:
        return rng.choice((None, True, False))
    if pick == 2:
        return rng.choice((0, -1, 7, -(10 ** 30), 2 ** 63, 10 ** 200))
    if pick == 3:
        return rng.choice(FLOATS)
    if pick == 4:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-300, 300)
    if pick == 5:
        return rng.randrange(-(10 ** 6), 10 ** 6)
    return rng.uniform(-1.0, 1.0)


def random_document(rng: random.Random, depth: int = 0):
    pick = rng.random()
    if depth >= 4 or pick < 0.45:
        return random_scalar(rng)
    items = [random_document(rng, depth + 1) for _ in range(rng.randrange(5))]
    if pick < 0.6:
        return items
    if pick < 0.7:
        return tuple(items)
    return {random_text(rng): item for item in items}


def test_random_documents():
    rng = random.Random(2113)
    for _ in range(500):
        doc = random_document(rng)
        assert _json_text(doc) == json_reference(doc), doc


@pytest.mark.parametrize("doc", [{"a": {1, 2}}, [set()], {1: "a"}, {"a": [{2: 0}]},
                                 {"a": IntSub(1)}, [0, FloatSub(0.5)], {"a": [math.nan]},
                                 math.inf, [-math.inf]],
                         ids=["set-value", "set-in-list", "int-key", "nested-int-key",
                              "int-subclass", "float-subclass", "nan", "inf", "minus-inf"])
def test_rejects_what_a_report_cannot_hold(doc):
    with pytest.raises(TypeError):
        _json_text(doc)
