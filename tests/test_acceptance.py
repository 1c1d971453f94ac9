"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).

Tolerances and budgets are pinned here and nowhere else:

1. two-dimensional existence: exact identities on 100 generators x 1e4
   angles, image 50% +- 2%, under 5 s;
2. descent-circle identities: 1e3 apexes/longitudes, orthogonality 1e-9,
   equator crossings 1e-12, under 1 s;
3. two-step descent: 1e3 chains within 1e-9, the away-from-equator case
   always errors, under 1 s;
4. finite ray sets: Cabello-18 and Peres-33 uncolorable (independent 2^18
   enumeration under 10 s, parity cross-check), controls colorable;
5. witness extraction: every family instance certifies with orthogonality
   1e-9 and sum != 1, zero false certificates, >= 95% success on default
   budgets, under 30 s total;
6. dimension reduction: d = 4 and 5 oracles reduce, certify, and pad back
   to a violating d-basis, under 10 s;
7. determinism: byte-identical CLI reports for fixed seeds.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import numpy as np

from kswitness.kssets import (
    build_ortho_graph,
    enumerate_bases,
    find_valuation,
    load_bundled,
    verify_assignment,
)
from kswitness.sphere_geom import (
    DescentAwayFromEquator,
    DescentCircle,
    SphPoint,
    descent_theta,
    equator_crossings,
    perp_of_apex,
    to_cartesian,
    two_step_chain,
    two_step_delta_phi,
)
from kswitness.valuation import (
    FourSegmentValuation,
    FunctionValuation,
    Generator2D,
    PolarCapValuation,
    RotatedValuation,
    StepMeridianValuation,
    Valuation2D,
    Valuation2DRotated,
    check_basis,
    random_rotation,
    reduce_dimension,
)
from kswitness.witness import WitnessConfig, extract_witness

HALF_PI = math.pi / 2


class _Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        label = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.title}): {label} "
              f"[{self.elapsed:.2f} s]")
        return False


def test_criterion_1_two_dimensional_existence():
    with _Criterion(1, "two-dimensional existence") as crit:
        rng, generators = np.random.default_rng(101), random.Random(101)
        for _ in range(100):
            v = Valuation2D(Generator2D.random(generators))
            thetas = rng.uniform(0.0, 2 * math.pi, 10_000)
            base = v.values_at_angles(thetas)
            assert np.array_equal(base, v.values_at_angles(thetas + math.pi))
            assert np.all(base + v.values_at_angles(thetas + HALF_PI) == 1)
            assert abs(base.mean() - 0.5) < 0.02
        assert crit.elapsed < 5.0


def test_criterion_2_descent_circle_identities():
    with _Criterion(2, "descent-circle identities") as crit:
        rng = np.random.default_rng(202)
        for _ in range(1000):
            theta_p = rng.uniform(0.01, HALF_PI - 0.01) * rng.choice([-1, 1])
            apex = SphPoint(theta_p, rng.uniform(-math.pi, math.pi))
            circle = DescentCircle(apex)
            normal = perp_of_apex(apex)
            phi = rng.uniform(-math.pi, math.pi)
            point = to_cartesian(SphPoint(descent_theta(circle, phi), phi))
            assert abs(float(np.dot(point, normal))) < 1e-9
            for crossing_phi in (apex.phi + HALF_PI, apex.phi - HALF_PI):
                assert abs(descent_theta(circle, crossing_phi)) < 1e-12
            for s in equator_crossings(circle):
                assert s[2] == 0.0
                assert abs(float(np.dot(s, normal))) < 1e-12
        assert crit.elapsed < 1.0


def test_criterion_3_two_step_descent():
    with _Criterion(3, "two-step descent lemma") as crit:
        rng = np.random.default_rng(303)
        for _ in range(1000):
            sign = rng.choice([-1, 1])
            theta_p = sign * rng.uniform(0.02, HALF_PI - 0.02)
            theta_q = sign * rng.uniform(0.01, abs(theta_p))
            p = SphPoint(theta_p, rng.uniform(-math.pi, math.pi))
            r, q = two_step_chain(p, theta_q)
            assert q.phi == p.phi and q.theta == theta_q
            assert abs(float(np.dot(to_cartesian(r), perp_of_apex(p)))) < 1e-9
            assert abs(float(np.dot(to_cartesian(q), perp_of_apex(r)))) < 1e-9
        for _ in range(200):
            theta_p = rng.uniform(0.02, HALF_PI - 0.05)
            theta_q = rng.uniform(theta_p + 1e-6, HALF_PI - 0.01)
            try:
                two_step_delta_phi(theta_p, theta_q)
                raised = False
            except DescentAwayFromEquator:
                raised = True
            assert raised
        assert crit.elapsed < 1.0


def _exhaustive_cabello_check(graph, bases):
    """Vectorized enumeration of all 2^18 assignments."""
    n = graph.vertex_count
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)
    feasible = np.ones(len(masks), dtype=bool)
    for basis in bases:
        feasible &= bits[:, list(basis)].sum(axis=1) == 1
    for i, j in itertools.combinations(range(n), 2):
        if graph.adjacency[i] >> j & 1:
            feasible &= ~((bits[:, i] == 1) & (bits[:, j] == 1))
    return int(feasible.sum())


def test_criterion_4_finite_ks_sets():
    with _Criterion(4, "finite KS sets") as crit:
        cabello = load_bundled("cabello18")
        graph = build_ortho_graph(cabello)
        bases = cabello.bases
        assert len(bases) == 9
        assert not find_valuation(graph, bases).colorable
        # independent exhaustive oracle over all 2^18 assignments
        t0 = time.perf_counter()
        assert _exhaustive_cabello_check(graph, bases) == 0
        assert time.perf_counter() - t0 < 10.0
        # parity cross-check: each ray occurs in exactly 2 of the 9 bases
        counts = {}
        for basis in bases:
            for i in basis:
                counts[i] = counts.get(i, 0) + 1
        assert sorted(counts.values()) == [2] * 18

        peres = load_bundled("peres33")
        graph33 = build_ortho_graph(peres)
        assert not find_valuation(graph33, enumerate_bases(graph33, 3)).colorable

        for control in ("single_basis3", "disjoint_bases3"):
            rs = load_bundled(control)
            g = build_ortho_graph(rs)
            b = enumerate_bases(g, rs.dimension)
            result = find_valuation(g, b)
            assert result.colorable
            assert verify_assignment(g, b, result.assignment)


def test_criterion_5_witness_extraction():
    with _Criterion(5, "witness extraction") as crit:
        oracles = [
            FourSegmentValuation(),
            StepMeridianValuation(HALF_PI, "one_at_step"),
            StepMeridianValuation(0.6),
            PolarCapValuation(1.1),
            Valuation2DRotated(Generator2D(((0.0, 0.6), (1.0, 1.3)))),
        ]
        for seed in range(20):
            base = [
                FourSegmentValuation(),
                StepMeridianValuation(0.25 + 0.06 * seed),
                PolarCapValuation(0.3 + 0.05 * seed),
                Valuation2DRotated(Generator2D(((0.05 * seed, 0.05 * seed + 0.4),))),
            ][seed % 4]
            oracles.append(RotatedValuation(base, random_rotation(seed), seed=seed))
        successes = 0
        for oracle in oracles:
            report = extract_witness(oracle, WitnessConfig(rng_seed=5))
            if not report.found:
                continue
            successes += 1
            # zero false certificates: every emitted certificate re-verifies
            assert report.outcome == "violating_basis"
            vecs = report.triad.vectors
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(float(np.dot(vecs[i], vecs[j]))) < 1e-9
            fresh = sum(oracle.evaluate(v) for v in vecs)
            assert fresh != 1
            assert fresh == report.triad_sum
        assert successes / len(oracles) >= 0.95
        assert crit.elapsed < 30.0


def _projection_oracle(dimension, calls):
    """Synthetic d-dim oracle: four-segment values of the (normalized) last
    three coordinates; zero when the projection vanishes.  Appends each
    point it is asked about to ``calls``."""
    base = FourSegmentValuation()

    def fn(n):
        calls.append(n)
        tail = n[dimension - 3:]
        norm = math.hypot(*tail)
        if norm < 1e-9:
            return 0
        return base.evaluate([c / norm for c in tail])

    return FunctionValuation(dimension, fn)


def test_criterion_6_dimension_reduction():
    with _Criterion(6, "dimension reduction") as crit:
        for dimension in range(4, 9):
            calls = []
            oracle = _projection_oracle(dimension, calls)
            reduced = reduce_dimension(oracle).reduced
            assert len(calls) == dimension  # one read of the standard basis
            assert reduced is not None
            report = extract_witness(reduced, WitnessConfig(rng_seed=6))
            assert report.outcome == "violating_basis"
            ambient = reduced.embed_basis(report.triad.vectors)
            assert len(ambient) == dimension
            total = check_basis(oracle, ambient)
            assert total == report.triad_sum  # the zero padding adds nothing
            assert total != 1
        assert crit.elapsed < 10.0


def test_criterion_7_cli_determinism(tmp_path):
    with _Criterion(7, "CLI determinism"):
        spec = tmp_path / "oracle.json"
        spec.write_text(json.dumps({"kind": "step_meridian", "theta_star": 0.8,
                                    "rotation_seed": 4}))
        witness_cmd = [sys.executable, "-m", "kswitness", "witness", str(spec),
                       "--seed", "17"]
        runs = [subprocess.run(witness_cmd, capture_output=True) for _ in range(2)]
        assert runs[0].returncode == 0
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout

        from kswitness.kssets import bundled_data_dir
        check_cmd = [sys.executable, "-m", "kswitness", "check-set",
                     str(bundled_data_dir() / "cabello18.json")]
        runs = [subprocess.run(check_cmd, capture_output=True) for _ in range(2)]
        assert runs[0].returncode == 10
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout
