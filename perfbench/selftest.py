"""Self-tests of the benchmark: the generators follow their rules, and every
output check passes a genuine program output and fires on a deliberately
corrupted one.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

The file name keeps it out of the project's own test collection.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402


def fires(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def genuine(op):
    """Runs ``op`` once and returns (exit code, output text)."""
    code = run.run_op(op, None)
    if isinstance(op, run.ChildOp):
        return code, op.stdout
    with open(op.out_path, "r", encoding="utf-8") as fh:
        return code, fh.read()


# --- generators -------------------------------------------------------------------

def test_e8_counts():
    rays = gen.e8_rays()
    adj = gen.adjacency_bits(rays)
    assert len(rays) == checks.E8_RAYS
    assert gen.edge_count(adj) == checks.E8_EDGES
    assert len(gen.cliques(adj, 8)) == checks.E8_BASES


def test_ternary_counts_and_peres24_inside():
    for d in (3, 4, 5):
        assert len(gen.ternary_rays(d)) == checks.ternary_ray_count(d)
    doc = json.loads((run.SRC / "kswitness" / "data" / "peres24.json").read_text())
    canon = set()
    for v in doc["vectors"]:
        lead = next(x for x in v if x)
        canon.add(tuple(x * lead for x in v))
    assert canon <= set(gen.ternary_rays(4))


def test_relabel_keeps_the_graph():
    rays = gen.ternary_rays(4)
    moved = gen.relabel(rays, random.Random(3))
    assert sorted(map(abs, sum(moved, ()))) == sorted(map(abs, sum(rays, ())))
    assert gen.edge_count(gen.adjacency_bits(moved)) == gen.edge_count(gen.adjacency_bits(rays))


def test_planted_is_colored_by_its_chosen_set():
    rays = gen.ternary_rays(4)
    adj = gen.adjacency_bits(rays)
    chosen, kept = gen.planted(rays, adj, gen.cliques(adj, 4), random.Random(5), 10)
    assert len(kept) == 10
    assignment = [(chosen >> i) & 1 for i in range(len(rays))]
    checks.check_assignment(assignment, adj, kept)


def test_same_seed_same_inputs():
    a = [gen.oracle_spec(k, random.Random(9)) for k in gen.ORACLE_KINDS]
    b = [gen.oracle_spec(k, random.Random(9)) for k in gen.ORACLE_KINDS]
    assert a == b


# --- ray-set checks -------------------------------------------------------------------

def test_coloring_checks_fire():
    with tempfile.TemporaryDirectory() as out:
        ops = run.setup_rayset_scale(out, random.Random(1))
        for op in ops:
            if "planted-e8" in op.argv[1]:
                break
        code, text = genuine(op)
        op.check(code, text)
        report = json.loads(text)

        def corrupt(edit, code=code):
            bad = copy.deepcopy(report)
            edit(bad)
            return fires(op.check, code, json.dumps(bad))

        assert corrupt(lambda r: r.update(rays=r["rays"] - 1))
        assert corrupt(lambda r: r["graph"].update(edges=r["graph"]["edges"] + 1))
        assert corrupt(lambda r: r["bases"].update(count=r["bases"]["count"] - 1))
        assert corrupt(lambda r: r["bases"].update(source="enumerated"))
        assert corrupt(lambda r: r["coloring"].update(colorable=False, assignment=None))
        assert corrupt(lambda r: None, code=10)
        assert corrupt(lambda r: r["coloring"]["assignment"].pop())
        assert corrupt(lambda r: r["coloring"].update(assignment=[0] * r["rays"]))
        ones = [i for i, v in enumerate(report["coloring"]["assignment"]) if v]
        assert corrupt(lambda r: r["coloring"]["assignment"].__setitem__(ones[0], 2))

        adj = gen.adjacency_bits(gen.e8_rays())  # planted instances keep E8's order

        def add_orthogonal_one(r):
            j = next(j for j in range(r["rays"]) if (adj[ones[0]] >> j) & 1)
            r["coloring"]["assignment"][j] = 1
        assert corrupt(add_orthogonal_one)


def test_uncolorable_verdict_checks_fire():
    with tempfile.TemporaryDirectory() as out:
        ops = run.setup_cli_cold(out, random.Random(1))
        op = next(o for o in ops if o.argv[1].endswith("peres24.json"))
        code, text = genuine(op)
        op.check(code, text)
        report = json.loads(text)
        assert code == checks.EXIT_UNCOLORABLE
        assert fires(op.check, 0, text)
        flipped = copy.deepcopy(report)
        flipped["coloring"].update(colorable=True, assignment=[0] * 24)
        assert fires(op.check, 0, json.dumps(flipped))


# --- witness checks -----------------------------------------------------------------

def test_witness_checks_fire():
    with tempfile.TemporaryDirectory() as out:
        seen = set()
        for op in run.setup_witness_batch(out, random.Random(2)):
            code, text = genuine(op)
            op.check(code, text)
            report = json.loads(text)
            outcome = report["outcome"]
            if outcome in seen:
                continue
            seen.add(outcome)
            assert fires(op.check, 11, text)
            lost = dict(report, outcome="not_found")
            assert fires(op.check, code, json.dumps(lost))
            if outcome == "violating_basis":
                tilted = copy.deepcopy(report)
                tilted["triad"][0][0] += 1e-6
                assert fires(op.check, code, json.dumps(tilted))
                wrong_sum = dict(report, triad_sum=1)
                assert fires(op.check, code, json.dumps(wrong_sum))
            else:
                same = copy.deepcopy(report)
                same["antipodal_values"] = list(reversed(same["antipodal_values"]))
                assert fires(op.check, code, json.dumps(same))
            if seen == {"violating_basis", "antipodal_violation"}:
                break
        assert "violating_basis" in seen


def test_witness_sum_check_fires_on_a_consistent_triad():
    from kswitness.valuation import build_oracle

    spec = {"kind": "polar_cap", "cap_latitude": 1.0}
    oracle = build_oracle(spec)
    axes = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    report = {"outcome": "violating_basis", "triad": axes, "triad_sum": 1}
    assert sum(oracle.evaluate(v) for v in axes) == 1
    assert fires(checks.check_witness_report, report, 0, oracle)


# --- grid checks ------------------------------------------------------------------------

def test_grid_checks_fire():
    with tempfile.TemporaryDirectory() as out:
        ops = run.setup_oracle_grid(out, random.Random(4))
        # a polar cap, whose area is not 1/2, so flipping every value shows
        k = next(k for k in range(0, len(ops), 2) if "polar_cap" in ops[k].argv[2])
        csv_op, svg_op = ops[k], ops[k + 1]
        spec = json.loads(Path(csv_op.argv[2]).read_text())
        code, text = genuine(csv_op)
        csv_op.check(code, text)
        lines = text.splitlines()

        def joined(rows):
            return "\n".join(rows) + "\n"

        def flip(line):
            head, value = line.rsplit(",", 1)
            return f"{head},{1 - int(value)}"

        assert fires(csv_op.check, code, joined(lines[:-1]))
        assert fires(csv_op.check, code, joined(lines[:1] + [lines[1][:-1] + "2"] + lines[2:]))
        theta = lines[1].split(",")[0]
        assert fires(csv_op.check, code, text.replace(theta, f"{float(theta) + 1e-6:.12f}", 1))
        assert fires(csv_op.check, code, joined(lines[:1] + [flip(ln) for ln in lines[1:]]))

        code, svg = genuine(svg_op)
        svg_op.check(code, svg)
        dark = checks.SVG_DARK
        assert fires(svg_op.check, code, svg.replace(dark, 'fill="#e8e4da"', 1))
        first_rect = svg.index("<rect ")
        end = svg.index("/>", first_rect) + 2
        assert fires(svg_op.check, code, svg[:first_rect] + svg[end:])


def test_area_check_fires():
    spec = {"kind": "polar_cap", "cap_latitude": 1.2}
    n = 64
    want = round(checks.analytic_area(spec) * 2 * n * n)
    checks.check_area(want, n, spec)
    assert fires(checks.check_area, 2 * n * n - want, n, spec)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
