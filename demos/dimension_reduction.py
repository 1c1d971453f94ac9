"""From d dimensions down to three, and back up with a certificate.

For d >= 4 the non-existence of valuations reduces to the 3D case: find
d-3 mutually orthogonal directions where the candidate vanishes, restrict
to the 2-sphere orthogonal to them, extract a violating triad there, and
pad it with the zero set to get a violating d-basis.  The zeros come from
the standard basis, in d oracle calls: a basis that does not sum to 1 is
itself the certificate, and one that does holds d-1 zeros.
"""

import numpy as np

from kswitness import (
    FourSegmentValuation,
    FunctionValuation,
    WitnessConfig,
    check_basis,
    extract_witness,
    find_zero_orthogonal_set,
    reduce_dimension,
)

for dimension in (4, 5):
    print(f"=== d = {dimension} ===")
    base = FourSegmentValuation()

    def candidate(n, d=dimension):
        tail = n[d - 3:]
        norm = float(np.linalg.norm(tail))
        return 0 if norm < 1e-9 else base.evaluate(tail / norm)

    oracle = FunctionValuation(dimension, candidate)

    search = find_zero_orthogonal_set(oracle)
    print(f"zero hunt: {dimension} oracle calls")
    zeros = search.zeros
    for z in zeros:
        print(f"  zero direction {np.round(z, 4)}  v = {oracle.evaluate(z)}")

    reduced = reduce_dimension(oracle, zeros)
    report = extract_witness(reduced, WitnessConfig(rng_seed=2))
    print(f"reduced extraction: {report.outcome}, triad sum = {report.triad_sum}")

    ambient = reduced.embed_basis(report.triad.vectors)
    total = check_basis(oracle, ambient)
    print(f"padded back to a {dimension}-basis: sum = {total} (needs 1)\n")
