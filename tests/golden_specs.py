"""The oracle specs behind the golden witness reports in
``tests/golden/witness/``: report ``{kind}_seed{seed}.json`` is what
``witness`` writes for ``oracle_spec(kind, seed)`` at ``--seed seed``.

This module imports nothing outside the standard library, so a run with
no third-party package installed can write the same specs:

    python tests/golden_specs.py DIR

writes ``DIR/{kind}_seed{seed}.spec.json`` for every golden report.
"""

import json
import os
import sys

KINDS = ("four_segment", "step_meridian", "polar_cap", "valuation2d_rotated")
SEEDS = range(5)


def oracle_spec(kind: str, seed: int) -> dict:
    """The four built-in kinds; every kind but four_segment is rotated by
    a seed-derived rotation."""
    spec = {
        "four_segment": {"kind": "four_segment"},
        "step_meridian": {"kind": "step_meridian", "theta_star": 0.7},
        "polar_cap": {"kind": "polar_cap", "cap_latitude": 0.9},
        "valuation2d_rotated": {"kind": "valuation2d_rotated",
                                "intervals": [[0.2, 0.9], [1.1, 1.4]]},
    }[kind]
    if kind != "four_segment":
        spec = {**spec, "rotation_seed": seed}
    return spec


def write_specs(directory: str) -> None:
    for kind in KINDS:
        for seed in SEEDS:
            path = os.path.join(directory, f"{kind}_seed{seed}.spec.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(oracle_spec(kind, seed), fh)


if __name__ == "__main__":
    write_specs(sys.argv[1])
