"""Valuation constructions: 2D existence, the 3D near-miss families,
the basis sum rule, and dimension reduction."""

import math
import random

import numpy as np
import pytest

from kswitness.sphere_geom import (
    EPS_ORTHO, DomainError, NotOrthogonal, SphPoint, Triad, cross, dot, normalized,
    to_cartesian,
)
from kswitness.valuation import (
    FourSegmentValuation,
    FunctionValuation,
    Generator2D,
    NotABasis,
    OracleSpecError,
    PolarCapValuation,
    ReducedValuation,
    RotatedValuation,
    StepMeridianValuation,
    Valuation2D,
    Valuation2DRotated,
    build_oracle,
    check_basis,
    random_rotation,
    reduce_dimension,
    step_profile,
)
from kswitness.witness import WitnessConfig, extract_witness

HALF_PI = math.pi / 2


class TestGenerator2D:
    def test_validation(self):
        with pytest.raises(ValueError):
            Generator2D(((0.2, 0.1),))
        with pytest.raises(ValueError):
            Generator2D(((0.0, 1.0), (0.5, 1.2)))
        with pytest.raises(ValueError):
            Generator2D(((0.0, HALF_PI + 0.1),))

    def test_membership(self):
        # On [0, pi/2) the valuation is its generator.
        v = Valuation2D(Generator2D(((0.1, 0.3), (0.5, 0.7))))
        assert v.value_at_angle(0.2) == 1
        assert v.value_at_angle(0.3) == 0  # half-open on the right
        assert v.value_at_angle(0.1) == 1
        assert v.value_at_angle(0.0) == 0

    def test_random_is_seeded_and_draws_one_to_four_intervals(self):
        counts = set()
        for seed in range(200):
            g = Generator2D.random(random.Random(seed))
            assert g == Generator2D.random(random.Random(seed))
            counts.add(len(g.intervals))
        assert counts == {1, 2, 3, 4}

    def test_round_trip(self):
        g = Generator2D(((0.0, 0.25), (1.0, 1.5)))
        assert Generator2D.from_dict(g.to_dict()) == g


class TestValuation2D:
    def test_trivial_generator_values(self):
        v = Valuation2D(Generator2D(()))
        assert v.value_at_angle(0.0) == 0
        assert v.value_at_angle(HALF_PI) == 1
        assert v.value_at_angle(0.0) + v.value_at_angle(HALF_PI) == 1

    def test_period_pi(self):
        v = Valuation2D(Generator2D(()))
        assert v.value_at_angle(0.3) == v.value_at_angle(0.3 + math.pi)

    def test_image_is_half_ones(self):
        # g = indicator of [0, pi/4): one-count over uniform angles is half.
        v = Valuation2D(Generator2D(((0.0, math.pi / 4),)))
        rng = np.random.default_rng(5)
        thetas = rng.uniform(0.0, 2 * math.pi, 10_000)
        ones = int(v.values_at_angles(thetas).sum())
        assert abs(ones / 10_000 - 0.5) < 0.02

    def test_defining_identities_hold_exactly(self):
        rng, generators = np.random.default_rng(8), random.Random(8)
        for _ in range(20):
            v = Valuation2D(Generator2D.random(generators))
            for theta in rng.uniform(0.0, 2 * math.pi, 500):
                assert v.value_at_angle(theta) == v.value_at_angle(theta + math.pi)
                assert v.value_at_angle(theta) + v.value_at_angle(theta + HALF_PI) == 1

    def test_evaluate_on_unit_vectors(self):
        v = Valuation2D(Generator2D(((0.2, 0.9),)))
        theta = 0.4
        assert v.evaluate(np.array([math.cos(theta), math.sin(theta)])) == v.value_at_angle(theta)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(21)
        v = Valuation2D(Generator2D.random(random.Random(21)))
        thetas = rng.uniform(-10, 10, 1000)
        assert list(v.values_at_angles(thetas)) == [v.value_at_angle(t) for t in thetas]

    def test_vectorized_reduction_matches_scalar_at_quarter_turns(self):
        # The generator is 1 only on the last float below pi/2, so a
        # reduction that lands one ulp off a quarter turn flips the value.
        v = Valuation2D(Generator2D(((math.nextafter(HALF_PI, 0.0), HALF_PI),)))
        assert v.value_at_angle(-5e-324) == v.values_at_angles(np.array([-5e-324]))[0]
        quarter_turns = [k * HALF_PI for k in range(-9, 10)] + [2 * math.pi, -2 * math.pi]
        thetas = [x for t in quarter_turns + [0.0, -0.0, 5e-324, -5e-324]
                  for x in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))]
        assert list(v.values_at_angles(np.array(thetas))) == [v.value_at_angle(t)
                                                              for t in thetas]


def _sph(theta, phi):
    return to_cartesian(SphPoint(theta, phi))


class TestStepMeridian:
    def test_profile_matches_displayed_form(self):
        for theta, bit in ((0.6, 1), (1.2, 1), (0.59, 0), (0.6 - HALF_PI, 0),
                           (0.6 - HALF_PI - 1e-9, 1)):
            assert step_profile(theta, 0.6, "one_at_step") == bit

    def test_zero_at_step_variant(self):
        for theta, bit in ((0.6, 0), (0.6 + 1e-9, 1), (0.6 - HALF_PI, 1)):
            assert step_profile(theta, 0.6, "zero_at_step") == bit

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StepMeridianValuation(-0.1)
        with pytest.raises(ValueError):
            StepMeridianValuation(0.0, "one_at_step")
        with pytest.raises(ValueError):
            StepMeridianValuation(HALF_PI, "zero_at_step")
        with pytest.raises(ValueError):
            StepMeridianValuation(0.3, "sideways")

    def test_one_transition_per_quarter_turn(self):
        thetas = np.linspace(-HALF_PI, HALF_PI, 20001)
        vals = [step_profile(t, 0.8, "one_at_step") for t in thetas]
        flips = sum(1 for a, b in zip(vals, vals[1:]) if a != b)
        assert flips == 2  # two transitions across the full latitude range

    def test_meridian_dyads_sum_to_one(self):
        # Orthogonal pairs within one meridian circle: same longitude with
        # |delta theta| = pi/2, or opposite longitudes with theta1 + theta2
        # = +-pi/2.  All must sum to 1 for every step position and variant.
        rng = np.random.default_rng(12)
        for variant in ("one_at_step", "zero_at_step"):
            for theta_star in (0.2, 0.7, 1.3):
                v = StepMeridianValuation(theta_star, variant)
                phi = rng.uniform(-math.pi, math.pi)
                for theta in rng.uniform(-HALF_PI, 0.0, 400):
                    same = v.evaluate(_sph(theta, phi)) + v.evaluate(_sph(theta + HALF_PI, phi))
                    assert same == 1
                for theta in rng.uniform(0.0, HALF_PI, 400):
                    partner = HALF_PI - theta
                    straddle = (v.evaluate(_sph(theta, phi))
                                + v.evaluate(_sph(partner, phi + math.pi)))
                    assert straddle == 1

    def test_antipodal_symmetry(self):
        rng = np.random.default_rng(14)
        v = StepMeridianValuation(0.9)
        for _ in range(2000):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            assert v.evaluate(n) == v.evaluate(-n)

    def test_oracle_round_trip(self):
        v = StepMeridianValuation(0.4, "zero_at_step")
        again = build_oracle(v.to_oracle_dict())
        assert isinstance(again, StepMeridianValuation)
        assert again.theta_star == 0.4 and again.boundary_variant == "zero_at_step"


class TestFourSegment:
    def test_segment_values(self):
        v = FourSegmentValuation()
        assert v.evaluate(_sph(0.4, 0.3)) == 0      # north, |phi| < pi/2
        assert v.evaluate(_sph(-0.4, 0.3)) == 1     # south, |phi| < pi/2
        assert v.evaluate(_sph(0.4, 2.5)) == 1      # north, |phi| > pi/2
        assert v.evaluate(_sph(-0.4, 2.5)) == 0     # south, |phi| > pi/2

    def test_poles_and_equator(self):
        v = FourSegmentValuation()
        assert v.evaluate(np.array([0.0, 0.0, 1.0])) == 1
        assert v.evaluate(np.array([0.0, 0.0, -1.0])) == 1
        for phi in np.linspace(-math.pi, math.pi, 37):
            assert v.evaluate(_sph(0.0, phi)) == 0

    def test_antipodal_symmetry_everywhere(self):
        rng = np.random.default_rng(17)
        v = FourSegmentValuation()
        for _ in range(3000):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            assert v.evaluate(n) == v.evaluate(-n)
        # including the boundary meridians
        for theta in (0.5, -0.5):
            for phi in (HALF_PI, -HALF_PI):
                n = np.array(_sph(theta, phi))
                assert v.evaluate(n) == v.evaluate(-n)

    def test_image_is_half_ones_by_area(self):
        v = FourSegmentValuation()
        rng = np.random.default_rng(18)
        z = rng.uniform(-1, 1, 10_000)
        phi = rng.uniform(-math.pi, math.pi, 10_000)
        ones = sum(v.evaluate(_sph(math.asin(zz), pp)) for zz, pp in zip(z, phi))
        assert abs(ones / 10_000 - 0.5) < 0.02

    def test_optional_pole_value(self):
        v = FourSegmentValuation(pole_value=0)
        assert v.evaluate(np.array([0.0, 0.0, 1.0])) == 0


class TestOtherFamilies:
    def test_polar_cap(self):
        v = PolarCapValuation(1.0)
        assert v.evaluate(np.array([0.0, 0.0, 1.0])) == 1
        assert v.evaluate(_sph(1.1, 0.4)) == 1
        assert v.evaluate(_sph(-1.1, 0.4)) == 1
        assert v.evaluate(_sph(0.5, 0.4)) == 0

    def test_valuation2d_rotated_is_longitude_only(self):
        v = Valuation2DRotated(Generator2D(((0.0, 0.7),)))
        assert v.evaluate(_sph(0.3, 0.5)) == v.evaluate(_sph(-1.2, 0.5)) == 1
        assert v.evaluate(_sph(0.3, 1.0)) == 0
        rng = np.random.default_rng(20)
        for _ in range(1000):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            assert v.evaluate(n) == v.evaluate(-n)

    def test_rotated_wrapper(self):
        base = FourSegmentValuation()
        rot = random_rotation(42)
        v = RotatedValuation(base, rot, seed=42)
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            assert v.evaluate(n) == base.evaluate(rot @ n)
        with pytest.raises(ValueError, match="rotation shape"):
            RotatedValuation(base, rot[:2])
        with pytest.raises(ValueError):
            RotatedValuation(base, [row[:2] for row in rot])

    def test_rotated_wrapper_rejects_rows_that_are_not_orthonormal(self):
        # A stretched row would make the base blame a point the caller
        # never passed; a sheared pair would map the sphere off itself.
        base = FourSegmentValuation()
        with pytest.raises(DomainError):
            RotatedValuation(base, [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DomainError):
            RotatedValuation(base, [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        s = math.sqrt(0.5)
        with pytest.raises(NotOrthogonal):
            RotatedValuation(base, [[1.0, 0.0, 0.0], [s, s, 0.0], [0.0, 0.0, 1.0]])

    def test_random_rotation_is_a_seeded_uniform_rotation(self):
        # Seed 0's rows, as exact floats: they rest on random.Random's
        # documented stream and Python float arithmetic, not on numpy.
        assert random_rotation(0) == (
            (-0.6888437030500962, -0.6183659880696694, -0.37830920893741476),
            (0.6530314095461728, -0.3027716200476849, -0.6941752835126294),
            (0.3147130930138907, -0.7252260688173875, 0.6123747367366719),
        )
        rotations = [random_rotation(seed) for seed in range(2000)]
        assert rotations[:20] == [random_rotation(seed) for seed in range(20)]
        for rows in rotations[:1000]:
            for i in range(3):
                for j in range(3):
                    assert abs(dot(rows[i], rows[j]) - (i == j)) <= 1e-15
            assert abs(dot(rows[0], cross(rows[1], rows[2])) - 1.0) <= 1e-15
        # A formula that collapsed onto a few rotations, or one axis, would
        # leave some entry's mean far from the Haar mean 0.
        assert np.abs(np.mean(rotations, axis=0)).max() <= 0.05

    def test_build_oracle_validation(self):
        with pytest.raises(OracleSpecError):
            build_oracle({"kind": "mystery"})
        with pytest.raises(OracleSpecError):
            build_oracle({"kind": "step_meridian"})
        with pytest.raises(OracleSpecError):
            build_oracle({"kind": "polar_cap", "cap_latitude": 3.0})
        with pytest.raises(OracleSpecError):
            build_oracle({"kind": "four_segment", "rotation_seed": "abc"})
        v = build_oracle({"kind": "four_segment", "rotation_seed": 9})
        assert isinstance(v, RotatedValuation)

    def test_unseeded_rotation_does_not_serialize(self):
        v = RotatedValuation(FourSegmentValuation(), random_rotation(3))
        with pytest.raises(OracleSpecError, match="only seed-derived rotations serialize"):
            v.to_oracle_dict()


# Squared norms 1 + 1.99996e-12, just inside the unit tolerance when summed
# left to right, and 1 - 2.00007e-12, just outside it (np.dot can put the
# latter at 1 - 1.99996e-12, inside).
POLAR_CAP_EDGE = (0.42377988440877196, 0.16181524643149575, -0.8911938260528975)
DOT_EDGE = (0.8481095574533203, -0.5011784478104265, 0.17184394666285085)


def _completed(a):
    """``a`` and two unit vectors that complete it to an orthonormal basis."""
    b = normalized(cross(a, (0.0, 0.0, 1.0)))
    return [a, b, normalized(cross(a, b))]


class TestCheckBasis:
    def test_nan_basis_is_not_a_basis(self):
        # A non-finite "basis" must not read as one that violates the sum rule.
        with pytest.raises(NotABasis):
            check_basis(PolarCapValuation(0.5), [[float("nan")] * 3] * 3)

    def test_four_segment_pole_triad(self):
        # Independently derived: pole carries 1, both equator points carry 0.
        v = FourSegmentValuation()
        basis = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                 np.array([0.0, 1.0, 0.0])]
        assert [v.evaluate(n) for n in basis] == [1, 0, 0]
        assert check_basis(v, basis) == 1

    def test_trivial_valuation_exposes_sum_zero(self):
        v = FunctionValuation(3, lambda n: 0)
        for basis in ([np.eye(3)[i] for i in range(3)], _completed(POLAR_CAP_EDGE)):
            assert check_basis(v, basis) == 0

    def test_dyads_always_sum_to_one(self):
        rng = np.random.default_rng(25)
        v = Valuation2D(Generator2D.random(random.Random(25)))
        for theta in rng.uniform(0, 2 * math.pi, 300):
            dyad = [np.array([math.cos(theta), math.sin(theta)]),
                    np.array([-math.sin(theta), math.cos(theta)])]
            assert check_basis(v, dyad) == 1

    def test_non_bit_answer_raises(self):
        # Summing a 7 would read as a violation; reading it as "not 0"
        # would misreport a zero vector as a 1.
        seven = FunctionValuation(4, lambda n: 7)
        with pytest.raises(ValueError, match="expected 0 or 1"):
            check_basis(seven, list(np.eye(4)))
        with pytest.raises(ValueError, match="expected 0 or 1"):
            reduce_dimension(seven)

    def test_fractional_answer_raises(self):
        # int() would read 0.9 as 0, and the basis as one that sums to 0.
        with pytest.raises(ValueError, match="expected 0 or 1"):
            check_basis(FunctionValuation(3, lambda n: 0.9), list(np.eye(3)))

    def test_not_a_basis_errors(self):
        v = FourSegmentValuation()
        with pytest.raises(NotABasis):
            check_basis(v, [np.eye(3)[0], np.eye(3)[1]])
        with pytest.raises(NotABasis):
            check_basis(v, [np.eye(3)[0], np.eye(3)[0], np.eye(3)[2]])
        with pytest.raises(NotABasis):
            check_basis(v, [2.0 * np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]])
        # Not unit by the oracles' own check, whatever np.dot says.
        with pytest.raises(NotABasis):
            check_basis(v, _completed(DOT_EDGE))


def _tilted(s):
    """The standard basis with its second vector tilted to dot product s
    with the first; unit to the last bit."""
    return [(1.0, 0.0, 0.0), (s, math.sqrt(1.0 - s * s), 0.0), (0.0, 0.0, 1.0)]


@pytest.mark.parametrize("basis, accepted", [
    (_completed(POLAR_CAP_EDGE), True),
    (_completed(DOT_EDGE), False),
    (_tilted(EPS_ORTHO), True),
    (_tilted(math.nextafter(EPS_ORTHO, 1.0)), False),
], ids=["unit_within", "unit_beyond", "orthogonal_within", "orthogonal_beyond"])
def test_one_orthonormality_check(basis, accepted):
    """Triad and check_basis accept and reject the same vectors at the
    edges of the unit and orthogonality tolerances."""
    checks = [(lambda: Triad(*basis), (DomainError, NotOrthogonal)),
              (lambda: check_basis(FunctionValuation(3, lambda n: 0), basis), NotABasis)]
    for check, rejection in checks:
        if accepted:
            check()
        else:
            with pytest.raises(rejection):
                check()


def _coordinate_indicator(dim, coord, threshold):
    """v(n) = 1 iff n[coord]^2 > threshold; antipodal by construction."""
    return FunctionValuation(dim, lambda n: 1 if n[coord] ** 2 > threshold else 0)


# One spec per built-in oracle kind.
KIND_SPECS = {
    "four_segment": {"kind": "four_segment"},
    "step_meridian": {"kind": "step_meridian", "theta_star": 0.7},
    "polar_cap": {"kind": "polar_cap", "cap_latitude": 0.9},
    "valuation2d_rotated": {"kind": "valuation2d_rotated", "intervals": [[0.2, 0.9], [1.1, 1.4]]},
}


class TestDimensionReduction:
    def test_reduced_matches_direct_evaluation(self):
        v = _coordinate_indicator(4, 3, 0.5)
        reduced = reduce_dimension(v).reduced
        assert reduced.axes == (1, 2, 3) and reduced.zeros == ((1.0, 0.0, 0.0, 0.0),)
        rng = np.random.default_rng(31)
        for _ in range(500):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            embedded = reduced.embed(u)
            assert embedded == (0.0, *u.tolist())
            assert reduced.evaluate(u) == v.evaluate(embedded)

    def test_embed_places_the_coordinates_at_the_axes(self):
        # The 1 at e_1 leaves e_2, e_3 as the zero set of d = 5, so the
        # axes are not contiguous.
        reduced = reduce_dimension(_coordinate_indicator(5, 0, 0.5)).reduced
        assert reduced.axes == (0, 3, 4)
        # Signed zeros too: the coordinates are copied, not computed.
        assert repr(reduced.embed((0.6, -0.0, 0.8))) == repr((0.6, 0.0, 0.0, -0.0, 0.8))
        with pytest.raises(ValueError, match="ascending"):
            ReducedValuation(reduced.base, (0, 4, 3))
        with pytest.raises(ValueError, match="ascending"):
            ReducedValuation(reduced.base, (2, 3, 5))

    def test_reduced_rejects_points_of_the_wrong_shape(self):
        reduced = reduce_dimension(_coordinate_indicator(4, 3, 0.5)).reduced
        with pytest.raises(DomainError):
            reduced.evaluate(np.zeros(4))
        # Off the sphere too, as every built-in family: the base would
        # answer these, 1 at [0, 0, 5] and 0 at NaN.
        for point in ([math.nan] * 3, [0.0] * 3, [0.0, 0.0, 5.0]):
            with pytest.raises(DomainError):
                reduced.evaluate(point)
            with pytest.raises(DomainError):
                reduced.evaluate_many(np.array([[0.0, 0.0, 1.0], point]))
        assert reduced.evaluate_many(np.array([[0.0, 0.0, 1.0]])).tolist() == [1]

    @pytest.mark.parametrize("kind", sorted(KIND_SPECS))
    def test_tail_oracle_reduces_to_its_base(self, kind):
        """An oracle that reads the last three coordinates reduces to its
        3-D base: embed copies coordinates, so the extractor's reports on
        the reduced valuation are the base's own, and a standard basis that
        breaks the sum rule carries the base's bits on the axes."""
        for rotation_seed in (None, 3, 11):
            spec = dict(KIND_SPECS[kind])
            if rotation_seed is not None:
                spec["rotation_seed"] = rotation_seed
            base = build_oracle(spec)
            axis_sum = sum(base.evaluate(e) for e in np.eye(3))
            for d in (4, 6):
                oracle = FunctionValuation(
                    d, lambda n, d=d: base.evaluate(n[d - 3:]) if any(n[d - 3:]) else 0)
                result = reduce_dimension(oracle)
                assert result.basis_sum == axis_sum
                if axis_sum != 1:
                    assert result.reduced is None
                    continue
                assert result.reduced.axes == (d - 3, d - 2, d - 1)
                for rng_seed in range(2):
                    config = WitnessConfig(rng_seed=rng_seed)
                    assert (extract_witness(result.reduced, config).to_json_dict()
                            == extract_witness(base, config).to_json_dict())

    def test_embedding_preserves_orthogonality(self):
        v = _coordinate_indicator(5, 4, 0.5)
        reduced = reduce_dimension(v).reduced
        triad = [np.eye(3)[i] for i in range(3)]
        ambient = reduced.embed_basis(triad)
        assert len(ambient) == 5
        for i in range(5):
            for j in range(i + 1, 5):
                assert abs(np.dot(ambient[i], ambient[j])) < 1e-12


class TestZeroSearch:
    def test_sparse_ones_found_immediately(self):
        # 1 only in a tiny cap around e_1: e_2 ... e_4 are zeros.
        v = _coordinate_indicator(4, 0, 0.999999)
        result = reduce_dimension(v)
        assert result.basis_sum == 1
        assert result.reduced.zeros == ((0.0, 1.0, 0.0, 0.0),)
        assert result.reduced.axes == (0, 2, 3)

    def test_everywhere_one_reports_violating_basis(self):
        v = FunctionValuation(4, lambda n: 1)
        result = reduce_dimension(v)
        assert result.reduced is None
        np.testing.assert_array_equal(result.basis, np.eye(4))
        assert result.basis_sum == 4

    def test_everywhere_zero_reports_violating_basis(self):
        result = reduce_dimension(FunctionValuation(4, lambda n: 0))
        assert result.reduced is None
        np.testing.assert_array_equal(result.basis, np.eye(4))
        assert result.basis_sum == 0

    def test_d5_search(self):
        v = _coordinate_indicator(5, 4, 0.25)
        reduced = reduce_dimension(v).reduced
        assert len(reduced.zeros) == 2
        for i in range(2):
            assert v.evaluate(reduced.zeros[i]) == 0
        assert abs(np.dot(reduced.zeros[0], reduced.zeros[1])) < 1e-9

    @pytest.mark.parametrize("dimension", range(4, 11))
    def test_exactly_d_calls_on_the_projection_oracle(self, dimension):
        # Four-segment bits of the last three coordinates: the standard
        # basis sums to 1 (only e_d, the pole, is 1), so e_1 ... e_(d-3)
        # are the zeros.
        base = FourSegmentValuation()
        calls = []

        def fn(n):
            calls.append(n)
            tail = n[dimension - 3:]
            norm = math.hypot(*tail)
            return 0 if norm < 1e-9 else base.evaluate([c / norm for c in tail])

        oracle = FunctionValuation(dimension, fn)
        result = reduce_dimension(oracle)
        assert len(calls) == dimension
        assert result.basis_sum == 1
        np.testing.assert_array_equal(result.reduced.zeros, np.eye(dimension)[:dimension - 3])
        assert result.reduced.axes == tuple(range(dimension - 3, dimension))

    def test_dimension_below_four_raises(self):
        with pytest.raises(ValueError, match="dimension >= 4"):
            reduce_dimension(FunctionValuation(3, lambda n: 0))

    def test_non_bit_answer_raises(self):
        with pytest.raises(ValueError, match="expected 0 or 1"):
            reduce_dimension(FunctionValuation(4, lambda n: 7))
