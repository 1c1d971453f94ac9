"""Extracting a concrete contradiction from a candidate 3D valuation.

No assignment of bits to the sphere's directions can be antipodally
symmetric and sum to 1 over every orthonormal triad.  The extractor makes
that failure tangible: point it at any candidate oracle and it returns a
specific triad whose values add up wrong, checkable by three fresh oracle
calls and a dot product.

The four-segment construction is the classic near-miss: poles 1, equator 0,
meridians split 50/50, antipodally symmetric, and correct on every triad
that respects its segment boundaries.  Watch it fail anyway.
"""

import numpy as np

from kswitness import (
    FourSegmentValuation,
    PolarCapValuation,
    StepMeridianValuation,
    WitnessConfig,
    check_basis,
    extract_witness,
)

oracle = FourSegmentValuation()
report = extract_witness(oracle, WitnessConfig(rng_seed=1))

print("=== four-segment valuation ===")
print(f"outcome: {report.outcome}")
print("proof steps taken:")
for entry in report.trace:
    keys = {k: v for k, v in entry.items()
            if k in ("values", "longitudes", "ones", "theta_one", "theta_zero", "sum")}
    print(f"  {entry['step']:24s} {keys}")

triad = report.triad.vectors
print("the violating triad:")
for vec in triad:
    print(f"  {np.round(vec, 6)}   v = {oracle.evaluate(vec)}")
print(f"sum over the triad: {check_basis(oracle, triad)}  (a valuation needs 1)")

print("\n=== a few more candidates ===")
candidates = [
    ("step meridian, transition at 0.8 rad", StepMeridianValuation(0.8)),
    ("polar caps of radius 0.47 rad", PolarCapValuation(1.1)),
]
for name, cand in candidates:
    rep = extract_witness(cand, WitnessConfig(rng_seed=1))
    print(f"  {name}: {rep.outcome}, triad sum = {rep.triad_sum}, "
          f"oracle calls = {rep.stats['oracle_calls']}")
