"""From d dimensions down to three, and back up with a certificate.

For d >= 4 the non-existence of valuations reduces to the 3D case: read
the standard basis in d oracle calls, restrict to the span of three of
its axes, extract a violating triad there, and pad it with the other d-3
axes, where the candidate vanishes, to get a violating d-basis.  A basis
that does not sum to 1 is itself the certificate; one that does holds d-1
zeros, and ``reduce_dimension`` keeps the first d-3 as the zero set.
"""

import math

import numpy as np

from kswitness import (
    FourSegmentValuation,
    FunctionValuation,
    WitnessConfig,
    check_basis,
    extract_witness,
    reduce_dimension,
)

for dimension in (4, 5):
    print(f"=== d = {dimension} ===")
    base = FourSegmentValuation()

    def candidate(n, d=dimension):
        tail = n[d - 3:]
        norm = math.hypot(*tail)
        return 0 if norm < 1e-9 else base.evaluate([c / norm for c in tail])

    oracle = FunctionValuation(dimension, candidate)

    reduced = reduce_dimension(oracle).reduced
    print(f"zero hunt: {dimension} oracle calls")
    for z in reduced.zeros:
        print(f"  zero direction {np.round(z, 4)}  v = {oracle.evaluate(z)}")

    report = extract_witness(reduced, WitnessConfig(rng_seed=2))
    print(f"reduced extraction: {report.outcome}, triad sum = {report.triad_sum}")

    ambient = reduced.embed_basis(report.triad.vectors)
    total = check_basis(oracle, ambient)
    print(f"padded back to a {dimension}-basis: sum = {total} (needs 1)\n")
