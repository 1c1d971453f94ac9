"""kswitness benchmark: four workloads, independent output checks, and a
per-layer traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports kswitness from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
perfbench/README.md for the workloads, the checks and the timing method.
"""

from __future__ import annotations

import os
import time

# The ops, their child interpreters and the reference work share one CPU,
# so the reference sees the CPU phase the op saw.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Reference:
    """Fixed work timed beside the ops.  On the 2-vCPU VM the bounds were
    set on, the CPU switches between a fast and a slower phase every 0.3-3 s;
    an op's time divided by the reference's time beside it, times
    ``nominal_ms`` (the reference's time in the fast phase there), cancels
    the phase."""

    def __init__(self, work, nominal_ms):
        self.work = work
        self.nominal_ms = nominal_ms

    def ms(self) -> float:
        """The faster of two back-to-back runs, so one preemption is ignored."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3


def _loop_work() -> None:
    acc = 0
    table = {}
    for i in range(6_000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i


LOOP = Reference(_loop_work, 0.7)


class SetupClock:
    """Set-up time in laps, each normalized like an op by LOOP runs at its
    two ends; the LOOP runs themselves are not counted."""

    def __init__(self):
        self.ref = LOOP.ms()
        self.t = time.perf_counter()
        self.seconds = 0.0

    def lap(self) -> None:
        now = time.perf_counter()
        ref = LOOP.ms()
        self.seconds += (now - self.t) * LOOP.nominal_ms / ((self.ref + ref) / 2.0)
        self.ref = ref
        self.t = time.perf_counter()


SETUP_CLOCK = SetupClock()

import argparse  # noqa: E402  (the set-up clock starts before the imports)
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
from checks import CheckFailed, require  # noqa: E402

WORKLOADS = ("cli-cold", "rayset-scale", "witness-batch", "oracle-grid")
SETUP_SAMPLES = 3       # set-ups per run: this process plus two probe children
IMPORT_PROBES = 3       # fresh interpreters timing `import kswitness.cli`
BLOCK_S = 0.03          # ops between two reference readings run at least this long
ONE_OP_BLOCKS = ("cli-cold", "rayset-scale", "oracle-grid")  # ops of 50 ms or more
STEADY_RATIO = 1.12     # reference readings around a block further apart: drop it
MAX_RETRIES = 3
REUSE_S = 0.005         # a reference reading this recent also opens the next block
GRID_N = 64             # oracle-grid: latitude rows (2 N^2 points)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# --- ops ------------------------------------------------------------------------

class Op:
    """One kswitness subcommand with the check of its output.

    ``check(code, text)`` raises CheckFailed or returns a dict of exact facts
    read from the output, which the traced run turns into layer counts.
    """

    def __init__(self, argv, out_path, check):
        self.argv = argv
        self.out_path = out_path
        self.check = check

    def run(self, tracer):
        from kswitness import cli

        if tracer is None:
            return cli.main(self.argv)
        return tracer.main(cli.main, self.argv)

    def verify(self, code):
        with open(self.out_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        facts = self.check(code, text) or {}
        facts["cli.output_bytes"] = len(text.encode())
        return facts


class ChildOp(Op):
    """``python -m kswitness ARGV`` in a fresh interpreter; the traced form
    runs ``layers.py`` instead, which wraps the same ``cli.main``."""

    def __init__(self, argv, out_dir, check):
        super().__init__(argv, None, check)
        self.max_rss_kib = 0
        self.trace_path = os.path.join(out_dir, "child_trace.json")
        self.err_path = os.path.join(out_dir, "child_stderr.txt")
        self.env = child_env()

    def run(self, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "kswitness", *self.argv]
        else:
            cmd = [sys.executable, str(HERE / "layers.py"), self.trace_path, *self.argv]
        with open(self.err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        self.stdout = out.decode()
        if tracer is not None:
            with open(self.trace_path, "r", encoding="utf-8") as fh:
                tracer.load(json.load(fh))
        return proc.returncode

    def verify(self, code):
        facts = self.check(code, self.stdout) or {}
        facts["cli.output_bytes"] = len(self.stdout.encode())
        return facts


class OpFailed(Exception):
    """An op ended outside the exit-code contract or raised."""


def run_op(op, tracer):
    try:
        code = op.run(tracer)
    except Exception as exc:  # the program under test may raise anything
        raise OpFailed(f"{op.argv}: {type(exc).__name__}: {exc}") from exc
    if code not in (0, 10, 11):
        raise OpFailed(f"{op.argv}: exit code {code}")
    return code


# --- workloads --------------------------------------------------------------------

def ray_set_check(expect):
    def check(code, text):
        report = json.loads(text)
        checks.check_coloring_report(report, code, expect)
        return {"kssets.edges": report["graph"]["edges"],
                "kssets.bases": report["bases"]["count"]}
    return check


def bundled_expectations() -> dict:
    """Own edge and basis counts for the bundled sets, from their files."""
    data = SRC / "kswitness" / "data"
    out = {}
    for name, (rays_n, bases_n, source, colorable) in checks.BUNDLED_VERDICTS.items():
        doc = json.loads((data / f"{name}.json").read_text(encoding="utf-8"))
        vecs = doc["vectors"]
        require(len(vecs) == rays_n, f"{name}: {len(vecs)} rays in the file")
        adj = [0] * len(vecs)
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if checks.sqrt2_dot(vecs[i], vecs[j]) == (0, 0):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        bases = doc.get("bases") or gen.cliques(adj, doc["dimension"])
        require(len(bases) == bases_n, f"{name}: {len(bases)} bases")
        out[name] = {"path": str(data / f"{name}.json"), "rays": rays_n,
                     "edges": gen.edge_count(adj), "bases": bases, "source": source,
                     "colorable": colorable, "adj": adj}
    return out


def setup_cli_cold(out_dir, rng):
    expect = bundled_expectations()
    names = sorted(expect)
    rng.shuffle(names)
    return [ChildOp(["check-set", expect[n]["path"]], out_dir, ray_set_check(expect[n]))
            for n in names]


def rayset_family(rays, known_rays, known_edges=None):
    adj = gen.adjacency_bits(rays)
    bases = gen.cliques(adj, len(rays[0]))
    require(len(rays) == known_rays, f"generator made {len(rays)} rays")
    if known_edges is not None:
        require(gen.edge_count(adj) == known_edges, "generator edge count")
    return adj, bases


# Supplied bases per planted instance: about the 5th percentile of what a
# planted E8 holds and the 30th of a planted {0,+-1}^6.
PLANTED_BASES = {"e8": 900, "t6": 360}

# One round of rayset-scale, cheapest kind first: (kind, ops per round).
# The shares put the median inside the E8 block (20-60%) and the 90th
# percentile inside the planted {0,+-1}^6 block (80-100%).
RAYSET_ROUND = (("planted-e8", 2), ("relabel-e8", 4), ("relabel-t6", 2), ("planted-t6", 2))


def setup_rayset_scale(out_dir, rng):
    e8 = gen.e8_rays()
    e8_adj, e8_bases = rayset_family(e8, checks.E8_RAYS, checks.E8_EDGES)
    require(len(e8_bases) == checks.E8_BASES, f"E8 has {len(e8_bases)} bases")
    t6 = gen.ternary_rays(6)
    t6_adj, t6_bases = rayset_family(t6, checks.ternary_ray_count(6))
    families = {"e8": (e8, e8_adj, e8_bases), "t6": (t6, t6_adj, t6_bases)}
    ops = []
    for kind, count in RAYSET_ROUND:
        style, fam = kind.split("-")
        rays, adj, bases = families[fam]
        for k in range(count):
            name = f"{kind}-{k}"
            if style == "relabel":
                # An isometry: edge and basis counts are those of the family.
                doc = gen.ray_set_doc(name, gen.relabel(rays, rng))
                expect = {"rays": len(rays), "edges": gen.edge_count(adj), "bases": bases,
                          "source": "enumerated", "colorable": False, "adj": None}
            else:
                _, kept = gen.planted(rays, adj, bases, rng, PLANTED_BASES[fam])
                doc = gen.ray_set_doc(name, rays, kept)
                expect = {"rays": len(rays), "edges": gen.edge_count(adj), "bases": kept,
                          "source": "supplied", "colorable": True, "adj": adj}
            path = os.path.join(out_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = os.path.join(out_dir, f"{name}.report.json")
            ops.append(Op(["check-set", path, "--out", out], out, ray_set_check(expect)))
    rng.shuffle(ops)
    return ops


def witness_check(spec):
    from kswitness.valuation import build_oracle

    oracle = build_oracle(spec)

    def check(code, text):
        report = json.loads(text)
        checks.check_witness_report(report, code, oracle)
        return witness_facts(report)
    return check


def witness_facts(report) -> dict:
    """Oracle calls per extractor phase, read from the report's trace.

    The pole search asks each sample and, for the first 16, its antipode,
    plus a completed triad when every sample was 0; the equator probe asks
    one point per longitude; the bisection lists its evaluations; the
    competing-meridian web takes the rest of ``stats.oracle_calls``.
    """
    calls = report["stats"]["oracle_calls"]
    phases = {"pole_search": 0, "equator_probe": 0, "bisection": 0}
    for step in report["trace"]:
        if step["step"] == "pole_search":
            n = step["samples"]
            phases["pole_search"] = n + min(n, 16) + (3 if "completion_values" in step else 0)
        elif step["step"] == "equator_probe":
            phases["equator_probe"] = step["longitudes"]
        elif step["step"] == "meridian_classification":
            phases["bisection"] = len(step["evaluations"])
    phases["web"] = calls - sum(phases.values())
    facts = {f"witness.calls.{k}": v for k, v in phases.items()}
    facts["witness.oracle_calls"] = calls
    return facts


WITNESS_SPECS_PER_KIND = 16
WITNESS_SEEDS = 6


def setup_witness_batch(out_dir, rng):
    ops = []
    out = os.path.join(out_dir, "witness.report.json")
    for kind in gen.ORACLE_KINDS:
        for k in range(WITNESS_SPECS_PER_KIND):
            spec = gen.oracle_spec(kind, rng)
            path = os.path.join(out_dir, f"{kind}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            check = witness_check(spec)
            for _ in range(WITNESS_SEEDS):
                seed = str(rng.randrange(1_000_000))
                ops.append(Op(["witness", path, "--seed", seed, "--out", out], out, check))
    rng.shuffle(ops)
    return ops


# oracle-grid specs per round: (kind, specs); each spec is plotted as CSV
# and then as SVG.
GRID_ROUND = (("four_segment", 2), ("step_meridian", 2), ("polar_cap", 2),
              ("valuation2d_rotated", 2))


def setup_oracle_grid(out_dir, rng):
    lattice_pts = checks.lattice(GRID_N)
    pairs = []
    for kind, count in GRID_ROUND:
        for k in range(count):
            spec = gen.oracle_spec(kind, rng)
            path = os.path.join(out_dir, f"{kind}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            ones = {}

            def check_csv(code, text, spec=spec, ones=ones):
                require(code == 0, f"plot exit code {code}")
                ones["csv"] = checks.check_grid_csv(text, GRID_N, spec, lattice_pts)

            def check_svg(code, text, spec=spec, ones=ones):
                require(code == 0, f"plot exit code {code}")
                dark = checks.check_grid_svg(text, GRID_N, spec)
                require(dark == ones["csv"], f"{dark} dark SVG cells, {ones['csv']} ones in CSV")

            pair = []
            for fmt, check in (("csv", check_csv), ("svg", check_svg)):
                out = os.path.join(out_dir, f"grid.{fmt}")
                pair.append(Op(["plot", "--oracle", path, "--grid", str(GRID_N),
                                "--format", fmt, "--out", out], out, check))
            pairs.append(pair)
    rng.shuffle(pairs)
    return [op for pair in pairs for op in pair]


SETUPS = {
    "cli-cold": setup_cli_cold,
    "rayset-scale": setup_rayset_scale,
    "witness-batch": setup_witness_batch,
    "oracle-grid": setup_oracle_grid,
}


def set_up(workload, seed, out_dir):
    """Inputs, files and one warm-up op; returns the round of ops."""
    SETUP_CLOCK.lap()
    if workload != "cli-cold":
        import kswitness.cli  # noqa: F401  (in-process workloads pay the import here)
        SETUP_CLOCK.lap()
    ops = SETUPS[workload](out_dir, random.Random(f"{workload}:{seed}"))
    SETUP_CLOCK.lap()
    # The first op by argv is of the same kind for every seed, so the
    # warm-up costs about the same in every run.
    op = min(ops, key=lambda o: o.argv)
    op.verify(run_op(op, None))
    SETUP_CLOCK.lap()
    return ops


# --- timing ---------------------------------------------------------------------

def _format_work() -> None:
    import math

    import numpy as np

    text = [f"{math.asin(i * 1e-3):.12f},{math.cos(i * 1e-3):.12f}" for i in range(300)]
    m = np.eye(3)
    for i in range(150):
        v = np.array([i * 1.0, 2.0, 3.0])
        float(np.dot(m @ v, v))
    ",".join(text)


def _spawn_work() -> None:
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


def _io_work(path: str) -> None:
    import numpy as np

    _loop_work()
    doc = {"values": [0.1 * i for i in range(200)]}
    for _ in range(3):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2))
        with open(path, "r", encoding="utf-8") as fh:
            json.loads(fh.read())
    m = np.eye(3)
    for i in range(100):
        v = np.array([i * 1.0, 2.0, 3.0])
        float(np.dot(m @ v, v))


def reference_for(workload: str, out_dir: str) -> Reference:
    """Different code slows by different factors in the slow phase; each
    workload is timed against the reference whose slowdown tracked its ops
    best (perfbench/README.md, "Timing method")."""
    if workload == "cli-cold":
        return Reference(_spawn_work, 10.0)          # a bare interpreter start
    if workload == "witness-batch":                   # loop, small files, small arrays
        return Reference(functools.partial(_io_work, os.path.join(out_dir, "ref.json")), 1.9)
    if workload == "oracle-grid":
        return Reference(_format_work, 0.6)           # float formatting, small arrays
    return LOOP


RETRY = "retry"


class Sampler:
    """Times ops in blocks of at least ``block_s`` seconds, each bracketed by
    runs of ``reference``, and keeps every op's time divided by the mean of
    the two reference times around its block (times its nominal time).

    When the two reference times differ by more than STEADY_RATIO, the CPU
    changed phase inside the block and the mean misjudges it.  A one-op block
    is then dropped so the op can be timed again; a longer block is dropped.
    A reference run that ended just before a block also opens it.
    """

    def __init__(self, block_s, reference):
        self.block_s = block_s
        self.reference = reference
        self.samples: list[float] = []   # normalized op seconds
        self._pending: list[float] = []
        self._ref = 0.0
        self._ref_end = float("-inf")

    def time(self, fn):
        if not self._pending and time.perf_counter() - self._ref_end > REUSE_S:
            self._ref = self.reference.ms()
        t0 = time.perf_counter()
        result = fn()
        self._pending.append(time.perf_counter() - t0)
        return result

    def flush(self, force=False, retry=False):
        """Closes the block once it is long enough and returns its factor;
        None while it is open or when it was dropped, RETRY when a one-op
        block was dropped and ``retry`` is set."""
        if not self._pending or (not force and sum(self._pending) < self.block_s):
            return None
        before, after = self._ref, self.reference.ms()
        self._ref, self._ref_end = after, time.perf_counter()
        one_op = len(self._pending) == 1
        if max(before, after) > STEADY_RATIO * min(before, after) and (retry or not one_op):
            self._pending.clear()
            return RETRY if one_op else None
        factor = self.reference.nominal_ms / ((before + after) / 2.0)
        self.samples.extend(d * factor for d in self._pending)
        self._pending.clear()
        return factor


class LayerTotals:
    """Per-op sums of layer times (scaled like op times) and counts."""

    def __init__(self):
        self.sums: dict[str, float] = {}
        self.ops = 0

    def add(self, snap, facts, factor):
        total, self_t, calls, counts = (snap["total"], snap["self"], snap["calls"],
                                        snap["counts"])

        def ms(seconds):
            return seconds * 1e3 * factor

        geom = [k for k in total if k.startswith("sphere_geom.")]
        calls_made = calls.get("valuation.evaluate", 0)
        row = {
            "cli.self_ms": ms(self_t.get("cli.main", 0.0)),
            "cli.output_bytes": facts.get("cli.output_bytes", 0),
            "kssets.load_ms": ms(total.get("kssets.load", 0.0)),
            "kssets.validate_ms": ms(total.get("kssets.validate", 0.0)),
            "kssets.graph_ms": ms(total.get("kssets.graph", 0.0)),
            "kssets.enumerate_ms": ms(total.get("kssets.enumerate", 0.0)),
            "kssets.solve_ms": ms(total.get("kssets.solve", 0.0)),
            "kssets.verify_ms": ms(total.get("kssets.verify", 0.0)),
            "kssets.solve_nodes": counts.get("kssets.solve_nodes", 0),
            "kssets.solve_backtracks": counts.get("kssets.solve_backtracks", 0),
            "kssets.edges": facts.get("kssets.edges", 0),
            "kssets.bases": facts.get("kssets.bases", 0),
            "valuation.build_oracle_ms": ms(total.get("valuation.build_oracle", 0.0)),
            "valuation.evaluate_calls": calls_made,
            "valuation.evaluate_ms": ms(total.get("valuation.evaluate", 0.0)),
            "sphere_geom.to_cartesian_calls": calls.get("sphere_geom.to_cartesian", 0),
            "sphere_geom.ms": ms(sum(total[k] for k in geom)),
            "witness.extract_ms": ms(total.get("witness.extract", 0.0)),
            "witness.oracle_calls": facts.get("witness.oracle_calls", 0),
            "witness.recheck_calls": (calls_made - facts["witness.oracle_calls"]
                                      if "witness.oracle_calls" in facts else 0),
        }
        for phase in ("pole_search", "equator_probe", "bisection", "web"):
            key = f"witness.calls.{phase}"
            row[key] = facts.get(key, 0)
        for key, value in row.items():
            self.sums[key] = self.sums.get(key, 0) + value
        self.ops += 1

    def means(self) -> dict:
        out = {k: v / self.ops for k, v in self.sums.items()}
        calls = self.sums["valuation.evaluate_calls"]
        out["valuation.evaluate_us"] = (self.sums["valuation.evaluate_ms"] * 1e3 / calls
                                        if calls else 0.0)
        return out


def import_probe_ms() -> tuple[float, float]:
    """(kswitness.cli import, numpy's part of it) in ms, from -X importtime
    in fresh interpreters, median of IMPORT_PROBES, each normalized like a
    cli-cold op."""
    reference = reference_for("cli-cold", "")
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_PROBES):
        before = reference.ms()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kswitness.cli"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              check=True)
        factor = reference.nominal_ms / ((before + reference.ms()) / 2.0)
        top = numpy = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.startswith(" kswitness"):
                top += int(cumulative)
            if name.strip() == "numpy" and not numpy:
                numpy = int(cumulative)
        cli_ms.append(top / 1e3 * factor)
        numpy_ms.append(numpy / 1e3 * factor)
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def measure(workload, ops, seconds, trace, reference):
    """Closed loop over whole rounds of ``ops`` for about ``seconds``.

    With ``trace``, rounds alternate between traced and untraced, starting
    traced; each traced op is its own timing block so its spans get its own
    factor.
    """
    sampler = Sampler(0.0 if trace or workload in ONE_OP_BLOCKS else BLOCK_S, reference)
    layer = LayerTotals()
    traced_ms, plain_ms = [], []
    tracer = layers.Tracer() if trace else None
    attempted = failed = 0
    bad: list[str] = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        active = tracer if trace and rounds % 2 == 0 else None
        if active is not None and workload != "cli-cold":
            active.install()
        try:
            for op in ops:
                attempted += 1
                for attempt in range(MAX_RETRIES + 1):
                    if active is not None:
                        active.reset()
                    try:
                        code = sampler.time(lambda: run_op(op, active))
                    except OpFailed as exc:
                        code = None
                        print(f"op failed: {exc}", file=sys.stderr)
                        break
                    factor = sampler.flush(retry=attempt < MAX_RETRIES)
                    if factor is not RETRY:
                        break
                if code is None:
                    failed += 1
                    continue
                snap = active.snapshot() if active is not None else None
                try:
                    facts = op.verify(code)
                except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                    bad.append(f"{op.argv}: {type(exc).__name__}: {exc}")
                    facts = {}
                if trace:
                    (traced_ms if active is not None else plain_ms).append(
                        sampler.samples[-1] * 1e3)
                    if active is not None:
                        layer.add(snap, facts, factor)
                if factor is not None and sampler.block_s == 0.0:
                    # Garbage of earlier ops is collected between timings, as
                    # it would be by the exit of a CLI process.
                    gc.collect()
        finally:
            if active is not None and workload != "cli-cold":
                active.uninstall()
        sampler.flush(force=True)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if trace and rounds < 2:
            continue
        if elapsed + elapsed / rounds / 2.0 >= seconds:
            break
    for message in bad[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    return {"samples": sampler.samples, "attempted": attempted, "failed": failed,
            "correct": not bad, "layer": layer, "traced_ms": traced_ms, "plain_ms": plain_ms}


def end_to_end(ops, result, setup_s):
    ms = [s * 1e3 for s in result["samples"]]
    if isinstance(ops[0], ChildOp):
        rss_kib = max(op.max_rss_kib for op in ops)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(ms) / (sum(ms) / 1e3), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms_p90": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "peak_rss_mib": {"value": rss_kib / 1024.0, "unit": "MiB"},
    }


PER_LAYER_UNITS = {
    "cli.import_ms": "ms", "cli.numpy_import_ms": "ms", "cli.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "kssets.load_ms": "ms", "kssets.validate_ms": "ms", "kssets.graph_ms": "ms",
    "kssets.enumerate_ms": "ms", "kssets.solve_ms": "ms", "kssets.verify_ms": "ms",
    "kssets.solve_nodes": "count", "kssets.solve_backtracks": "count",
    "kssets.edges": "count", "kssets.bases": "count",
    "valuation.build_oracle_ms": "ms", "valuation.evaluate_calls": "count",
    "valuation.evaluate_ms": "ms", "valuation.evaluate_us": "us",
    "sphere_geom.to_cartesian_calls": "count", "sphere_geom.ms": "ms",
    "witness.extract_ms": "ms", "witness.oracle_calls": "count",
    "witness.recheck_calls": "count", "witness.calls.pole_search": "count",
    "witness.calls.equator_probe": "count", "witness.calls.bisection": "count",
    "witness.calls.web": "count",
    "trace.overhead_ms": "ms", "trace.overhead_pct": "%",
}


def per_layer(result):
    values = result["layer"].means()
    values["cli.import_ms"], values["cli.numpy_import_ms"] = import_probe_ms()
    traced = statistics.fmean(result["traced_ms"])
    plain = statistics.fmean(result["plain_ms"])
    values["trace.overhead_ms"] = traced - plain
    values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def setup_seconds(workload, seed) -> float:
    """Median set-up time: this process's own (measured from its first
    line), and that of SETUP_SAMPLES - 1 probe children doing the same."""
    samples = [SETUP_CLOCK.seconds]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed), "--setup-only"],
                              capture_output=True, text=True, cwd=ROOT, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the normalized set-up seconds, exit")
    args = parser.parse_args(argv)
    if not (SRC / "kswitness" / "cli.py").is_file():
        print(f"error: no kswitness sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        ops = set_up(args.workload, args.seed, out_dir)
        if args.setup_only:
            print(SETUP_CLOCK.seconds)
            return 0
        setup_s = setup_seconds(args.workload, args.seed)
        gc.collect()
        result = measure(args.workload, ops, args.seconds, bool(args.trace),
                         reference_for(args.workload, out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(ops, result, setup_s)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
