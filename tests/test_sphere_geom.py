"""Geometry invariants: coordinates, descent circles, two-step descent,
rotations, and triads.

Derived expectations are checked against independent formulas (direct dot
products, explicit trigonometry) rather than against the code under test.
"""

import math

import numpy as np
import pytest

from kswitness.sphere_geom import (
    DescentAwayFromEquator,
    DescentCircle,
    DomainError,
    NotOrthogonal,
    SphPoint,
    Triad,
    cross,
    descent_theta,
    equator_crossings,
    from_cartesian,
    normalized,
    perp_of_apex,
    require_unit,
    require_unit_rows,
    rotation_to_pole,
    to_cartesian,
    to_cartesian_grid,
    two_step_chain,
    two_step_delta_phi,
    wrap_longitude,
)

HALF_PI = math.pi / 2
NAN = float("nan")


def random_sph_points(count, rng, theta_margin=0.0):
    lo = -HALF_PI + theta_margin
    hi = HALF_PI - theta_margin
    thetas = rng.uniform(lo, hi, count)
    phis = rng.uniform(-math.pi, math.pi, count)
    return [SphPoint(t, p) for t, p in zip(thetas, phis)]


class TestSphPoint:
    def test_longitude_normalized(self):
        p = SphPoint(0.3, 3 * math.pi + 0.1)
        assert -math.pi <= p.phi < math.pi
        assert p.phi == pytest.approx(wrap_longitude(3 * math.pi + 0.1))

    def test_pole_phi_canonicalized(self):
        assert SphPoint(HALF_PI, 2.1).phi == 0.0
        assert SphPoint(-HALF_PI, -0.4).phi == 0.0

    def test_latitude_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            SphPoint(2.0, 0.0)

    def test_nan_coordinates_rejected(self):
        for theta, phi in ((NAN, 0.0), (0.3, NAN), (0.3, math.inf)):
            with pytest.raises(DomainError):
                SphPoint(theta, phi)


class TestCartesian:
    def test_nan_vector_is_not_unit(self):
        with pytest.raises(DomainError):
            require_unit([NAN] * 3)

    def test_north_pole(self):
        assert np.allclose(to_cartesian(SphPoint(HALF_PI, 0.0)), [0, 0, 1], atol=1e-15)

    def test_equator_prime_meridian(self):
        assert np.allclose(to_cartesian(SphPoint(0.0, 0.0)), [1, 0, 0], atol=1e-15)

    def test_quarter_latitude(self):
        # (pi/4, pi/2) -> (0, sqrt2/2, sqrt2/2), and the result is unit.
        v = to_cartesian(SphPoint(math.pi / 4, HALF_PI))
        assert np.allclose(v, [0.0, math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-12)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for p in random_sph_points(200, rng):
            q = from_cartesian(to_cartesian(p))
            assert q.theta == pytest.approx(p.theta, abs=1e-12)
            assert q.phi == pytest.approx(p.phi, abs=1e-12)

    def test_grid_has_the_bits_of_to_cartesian(self):
        # Poles (reached exactly and by clamping) reset the longitude, and
        # longitudes outside [-pi, pi) are wrapped, as SphPoint does.
        rng = np.random.default_rng(3)
        thetas = [-HALF_PI, HALF_PI, HALF_PI + 5e-13, 0.0, -0.0, *rng.uniform(-1.5, 1.5, 20)]
        phis = [-math.pi, math.pi, 3 * math.pi + 0.1, -7.0, 0.0, *rng.uniform(-4, 4, 20)]
        grid = to_cartesian_grid(thetas, phis)
        want = np.array([to_cartesian(SphPoint(t, p)) for t in thetas for p in phis])
        assert grid.shape == want.shape
        assert grid.tobytes() == want.tobytes()

    @pytest.mark.parametrize("theta, phi", [
        (HALF_PI + 2e-12, 0.0), (-HALF_PI - 2e-12, 0.0), (NAN, 0.0),
        (0.3, NAN), (0.3, math.inf), (0.3, -math.inf), (HALF_PI, math.inf),
    ])
    def test_grid_rejects_what_sphpoint_rejects(self, theta, phi):
        with pytest.raises(DomainError) as want:
            SphPoint(theta, phi)
        with pytest.raises(DomainError) as got:
            to_cartesian_grid([0.1, theta], [phi, 0.2])
        assert str(got.value) == str(want.value)

    def test_grid_columns_are_contiguous(self):
        for rows, cols in ((1, 1), (1, 2), (3, 6), (64, 128)):
            thetas = np.linspace(-1.5, 1.5, rows)
            grid = to_cartesian_grid(thetas, np.linspace(-3.0, 3.0, cols))
            assert grid.shape == (rows * cols, 3)
            for k in range(3):
                assert grid[:, k].flags.c_contiguous

    def test_unit_rows_check_names_the_bad_row(self):
        good = to_cartesian(SphPoint(0.3, 1.0))
        assert require_unit_rows([good, good]).shape == (2, 3)
        for bad in ([1.0, 1.0, 0.0], [NAN] * 3):
            with pytest.raises(DomainError, match="not unit"):
                require_unit_rows([good, bad])
        with pytest.raises(DomainError):
            require_unit_rows(good)


class TestPerpOfApex:
    def test_pole_apex(self):
        assert np.allclose(perp_of_apex(SphPoint(HALF_PI, 0.0)), [1, 0, 0], atol=1e-15)

    def test_equator_apex(self):
        assert np.allclose(perp_of_apex(SphPoint(0.0, 0.0)), [0, 0, -1], atol=1e-15)

    def test_always_orthogonal_to_apex(self):
        rng = np.random.default_rng(11)
        for p in random_sph_points(1000, rng):
            assert abs(np.dot(perp_of_apex(p), to_cartesian(p))) < 1e-12


class TestDescentCircle:
    def test_equatorial_apex_rejected(self):
        with pytest.raises(DomainError):
            DescentCircle(SphPoint(0.0, 0.3))

    def test_polar_apex_rejected(self):
        with pytest.raises(DomainError):
            DescentCircle(SphPoint(HALF_PI, 0.0))

    def test_touches_apex(self):
        c = DescentCircle(SphPoint(math.pi / 4, 0.0))
        assert descent_theta(c, 0.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_crosses_equator_at_quarter_turn(self):
        c = DescentCircle(SphPoint(math.pi / 4, 0.0))
        assert abs(descent_theta(c, HALF_PI)) < 1e-12

    def test_named_value_and_orthogonality(self):
        # apex (pi/3, 0) at phi = pi/3 gives arctan(sqrt(3)/2); the point is
        # on the circle iff it is orthogonal to the apex normal.
        c = DescentCircle(SphPoint(math.pi / 3, 0.0))
        theta = descent_theta(c, math.pi / 3)
        assert theta == pytest.approx(math.atan(math.sqrt(3) / 2), abs=1e-12)
        point = to_cartesian(SphPoint(theta, math.pi / 3))
        assert abs(np.dot(point, perp_of_apex(c.apex))) < 1e-9

    def test_circle_points_orthogonal_to_normal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            theta_p = rng.uniform(0.05, HALF_PI - 0.05) * rng.choice([-1, 1])
            apex = SphPoint(theta_p, rng.uniform(-math.pi, math.pi))
            c = DescentCircle(apex)
            normal = perp_of_apex(apex)
            for phi in rng.uniform(-math.pi, math.pi, 5):
                point = to_cartesian(SphPoint(descent_theta(c, phi), phi))
                assert abs(np.dot(point, normal)) < 1e-9

    def test_even_about_apex_longitude(self):
        c = DescentCircle(SphPoint(0.9, 0.4))
        rng = np.random.default_rng(5)
        for delta in rng.uniform(0, math.pi, 100):
            assert descent_theta(c, 0.4 + delta) == pytest.approx(
                descent_theta(c, 0.4 - delta), abs=1e-12)

    def test_monotone_descent_in_northern_hemisphere(self):
        c = DescentCircle(SphPoint(1.1, 0.0))
        deltas = np.linspace(1e-3, HALF_PI - 1e-3, 200)
        thetas = [descent_theta(c, d) for d in deltas]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))


class TestEquatorCrossings:
    def test_prime_meridian_apex(self):
        s1, s2 = equator_crossings(DescentCircle(SphPoint(0.7, 0.0)))
        assert np.allclose(s1, [0, 1, 0], atol=1e-15)
        assert np.allclose(s2, [0, -1, 0], atol=1e-15)

    def test_quarter_apex(self):
        s1, s2 = equator_crossings(DescentCircle(SphPoint(0.7, HALF_PI)))
        assert np.allclose(s1, [-1, 0, 0], atol=1e-12)
        assert np.allclose(s2, [1, 0, 0], atol=1e-12)

    def test_crossings_lie_on_circle(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            apex = SphPoint(rng.uniform(0.05, 1.5) * rng.choice([-1, 1]),
                            rng.uniform(-math.pi, math.pi))
            c = DescentCircle(apex)
            normal = perp_of_apex(apex)
            for s in equator_crossings(c):
                assert s[2] == 0.0
                assert abs(np.dot(s, normal)) < 1e-12

    def test_crossing_longitudes(self):
        c = DescentCircle(SphPoint(1.2, 0.3))
        for phi in (0.3 + HALF_PI, 0.3 - HALF_PI):
            assert abs(descent_theta(c, phi)) < 1e-12


class TestTwoStepDeltaPhi:
    def test_equal_latitudes_give_zero(self):
        assert two_step_delta_phi(0.8, 0.8) == 0.0

    def test_half_tangent_gives_quarter_turn(self):
        theta_p = math.pi / 4
        theta_q = math.atan(0.5 * math.tan(theta_p))
        assert two_step_delta_phi(theta_p, theta_q) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_away_from_equator_rejected(self):
        with pytest.raises(DescentAwayFromEquator):
            two_step_delta_phi(math.pi / 6, math.pi / 4)

    @pytest.mark.parametrize("theta_p,theta_q", [
        (0.0, 0.3), (HALF_PI, 0.3), (0.5, 0.0), (0.5, HALF_PI), (-0.3, 0.2),
    ])
    def test_domain_errors(self, theta_p, theta_q):
        with pytest.raises(DomainError):
            two_step_delta_phi(theta_p, theta_q)


class TestTwoStepChain:
    def test_nan_target_rejected(self):
        with pytest.raises(DomainError):
            two_step_chain(SphPoint(0.6, 0.0), NAN)

    def test_worked_example(self):
        # From p = (pi/4, 0) to the latitude with half the tangent: r sits a
        # quarter turn east at arctan(cos(pi/4)).
        p = SphPoint(math.pi / 4, 0.0)
        theta_q = math.atan(0.5 * math.tan(p.theta))
        r, q = two_step_chain(p, theta_q)
        assert r.phi == pytest.approx(math.pi / 4, abs=1e-12)
        assert r.theta == pytest.approx(math.atan(math.cos(math.pi / 4)), abs=1e-12)
        assert q.theta == theta_q and q.phi == p.phi
        # Independent membership oracle: plain dot products.
        assert abs(np.dot(to_cartesian(r), perp_of_apex(p))) < 1e-9
        assert abs(np.dot(to_cartesian(q), perp_of_apex(r))) < 1e-9

    def test_degenerate_chain(self):
        p = SphPoint(math.pi / 3, HALF_PI)
        r, q = two_step_chain(p, math.pi / 3)
        assert r.theta == pytest.approx(p.theta, abs=1e-12)
        assert r.phi == pytest.approx(p.phi, abs=1e-12)
        assert q.theta == p.theta and q.phi == p.phi

    def test_longitude_preserved_and_memberships(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            sign = rng.choice([-1, 1])
            theta_p = sign * rng.uniform(0.05, HALF_PI - 0.05)
            theta_q = sign * rng.uniform(0.01, abs(theta_p))
            p = SphPoint(theta_p, rng.uniform(-math.pi, math.pi))
            r, q = two_step_chain(p, theta_q)
            assert q.phi == p.phi
            assert q.theta == theta_q
            assert abs(np.dot(to_cartesian(r), perp_of_apex(p))) < 1e-9
            assert abs(np.dot(to_cartesian(q), perp_of_apex(r))) < 1e-9

    def test_southern_mirror(self):
        p = SphPoint(-0.9, 0.2)
        r, q = two_step_chain(p, -0.4)
        assert r.theta < 0 and q.theta == -0.4

    def test_wrong_hemisphere_rejected(self):
        with pytest.raises(DomainError):
            two_step_chain(SphPoint(0.8, 0.0), -0.3)

    @pytest.mark.parametrize("theta_p,message", [(0.0, "on the equator"), (HALF_PI, "at a pole")])
    def test_apex_checked_as_a_descent_circle(self, theta_p, message):
        with pytest.raises(DomainError, match=f"descent circle apex {message}"):
            two_step_chain(SphPoint(theta_p, 0.0), 0.3)


class TestRotations:
    def test_pole_to_pole_is_identity(self):
        assert np.allclose(rotation_to_pole([0, 0, 1]), np.eye(3), atol=1e-15)

    def test_x_axis_to_pole(self):
        rot = np.array(rotation_to_pole([1, 0, 0]))
        assert np.allclose(rot @ [1, 0, 0], [0, 0, 1], atol=1e-12)

    def test_south_pole_handled(self):
        rot = np.array(rotation_to_pole([0, 0, -1]))
        assert np.allclose(rot @ [0, 0, -1], [0, 0, 1], atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)

    def test_random_points_reach_pole(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            rot = np.array(rotation_to_pole(v))
            assert np.dot(rot @ v, [0, 0, 1]) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-12, rtol=0.0)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-11)

    def test_rotations_preserve_dot_products(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            rot = np.array(rotation_to_pole(a))
            assert np.dot(rot @ a, rot @ b) == pytest.approx(np.dot(a, b), abs=1e-12)


class TestCross:
    def test_bits_match_np_cross(self):
        # Normal vectors, then vectors whose entries are drawn from signed
        # zeros, subnormals, units and wide magnitudes, so that products
        # round, underflow to either zero and cancel to either zero.
        rng = np.random.default_rng(41)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e-160, -1e150, 3.0, 0.5])
        pairs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(500)]
        pairs += [(rng.choice(special, 3), rng.choice(special, 3)) for _ in range(2000)]
        pairs += [(a, a) for a, _ in pairs[:50]] + [(a, -a) for a, _ in pairs[:50]]
        for a, b in pairs:
            assert np.array(cross(a, b)).tobytes() == np.cross(a, b).tobytes(), (a, b)
        assert any(np.signbit(c) and c == 0.0 for a, b in pairs for c in cross(a, b))

    def test_accepts_sequences(self):
        c = cross([1, 0, 0], np.array([0, 1, 0]))
        assert c == (0.0, 0.0, 1.0) and all(type(x) is float for x in c)


def test_normalized_rejects_the_zero_vector():
    with pytest.raises(DomainError, match="cannot normalize the zero vector"):
        normalized((0.0, 0.0, 0.0))


class TestTriadCompletion:
    def test_triad_validates(self):
        with pytest.raises(NotOrthogonal):
            Triad(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), np.array([0.0, 0, 1]))

    def test_nan_triad_rejected(self):
        with pytest.raises(DomainError):
            Triad(np.array([NAN] * 3), np.array([0.0, 1, 0]), np.array([0.0, 0, 1]))
