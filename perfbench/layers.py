"""Per-layer tracing from outside the program.

``Tracer.install`` swaps the public functions of ``kssets``, ``valuation``,
``sphere_geom`` and ``witness`` for timing wrappers, at the module attribute
each caller looks them up through, and ``uninstall`` puts the originals
back.  Every wrapped call is a span; a span's time also counts as child time
of the span around it, so ``cli.main``'s self time is its duration minus its
direct children.  Built oracles are wrapped in a counting proxy.

Run as a script, this module is the traced child of the ``cli-cold``
workload: ``python layers.py TRACE_JSON <kswitness argv...>`` runs
``kswitness.cli.main`` under a tracer and writes the tracer's totals to
TRACE_JSON.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module attribute, span name) pairs wrapped in kssets.  cli calls these
# through ``kssets.<name>``, and kssets calls the nested ones through its own
# globals, so one swap covers both.
KSSETS_SPANS = (
    ("load_ray_set", "kssets.load"),
    ("validate_supplied_bases", "kssets.validate"),
    ("build_ortho_graph", "kssets.graph"),
    ("enumerate_bases", "kssets.enumerate"),
    ("find_valuation", "kssets.solve"),
    ("verify_assignment", "kssets.verify"),
)

# Public sphere_geom callables, wrapped where cli and witness look them up.
SPHERE_GEOM_NAMES = (
    "SphPoint", "to_cartesian", "from_cartesian", "normalized", "perp_of_apex",
    "DescentCircle", "equator_crossings", "two_step_chain", "rotation_to_pole",
    "complete_triad",
)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)   # span name -> seconds, inclusive
        self.self_time = defaultdict(float)  # span name -> seconds minus children
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)    # named counters read from results
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, on_result=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
                self.calls[name] += 1
            return on_result(result) if on_result else result

        return traced

    def _swap(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from kswitness import cli, kssets, sphere_geom, witness

        def solved(result):
            self.counts["kssets.solve_nodes"] += result.nodes_explored
            self.counts["kssets.solve_backtracks"] += result.backtracks
            return result

        for attr, span in KSSETS_SPANS:
            hook = solved if attr == "find_valuation" else None
            self._swap(kssets, attr, self.wrap(span, getattr(kssets, attr), hook))
        self._swap(cli, "build_oracle",
                   self.wrap("valuation.build_oracle", cli.build_oracle, self.proxy))
        self._swap(cli, "extract_witness", self.wrap("witness.extract", cli.extract_witness))
        for module in (cli, witness):
            for attr in SPHERE_GEOM_NAMES:
                fn = getattr(module, attr, None)
                if fn is not None and fn is getattr(sphere_geom, attr):
                    self._swap(module, attr, self.wrap(f"sphere_geom.{attr}", fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def proxy(self, oracle):
        """The built oracle behind a counting, timing ``evaluate``."""
        from kswitness.valuation import Valuation

        evaluate = self.wrap("valuation.evaluate", oracle.evaluate)

        class CountingOracle(Valuation):
            dimension = oracle.dimension

            def evaluate(self, n):
                return evaluate(n)

        return CountingOracle()

    def main(self, cli_main, argv) -> int:
        return self.wrap("cli.main", cli_main)(argv)

    def load(self, snap: dict) -> None:
        """Adds a snapshot taken in another process."""
        for key, into in (("total", self.total), ("self", self.self_time),
                          ("calls", self.calls), ("counts", self.counts)):
            for name, value in snap[key].items():
                into[name] += value

    def snapshot(self) -> dict:
        """Totals as plain dicts: seconds per span, calls per span, counters."""
        return {"total": dict(self.total), "self": dict(self.self_time),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def _child(argv) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    from kswitness import cli

    tracer = Tracer()
    tracer.install()
    code = tracer.main(cli.main, cli_argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
