"""``evaluate_many`` against ``evaluate``: the vector path of every built-in
oracle family must give the scalar path's bits, point for point, on the
plot lattices, on random unit vectors and on the boundary arcs where a
last-bit difference would flip a value."""

import json
import math

import numpy as np
import pytest

from kswitness.sphere_geom import DomainError, SphPoint, to_cartesian
from kswitness.valuation import (
    BOUNDARY_VARIANTS, ConstantValuation, FunctionValuation, Generator2D, Valuation2D, _bit,
    build_oracle, random_rotation, reduce_dimension,
)

HALF_PI = math.pi / 2
THETA_STAR = 0.7
CAP_LATITUDE = 0.9
EDGES = (0.2, 0.9, 1.1, 1.4)


def _disputed_z() -> float:
    """A sine at which numpy's arcsin and math.asin differ in the last bit,
    when there is one: a step placed at its latitude tells them apart."""
    for z in np.linspace(0.1, 0.9, 1001):
        if np.arcsin(z) != math.asin(z):
            return float(z)
    return math.sin(THETA_STAR)


DISPUTED_Z = _disputed_z()

# Every kind, both boundary variants and both pole values.
SPECS = {
    "four_segment-pole1": {"kind": "four_segment"},
    "four_segment-pole0": {"kind": "four_segment", "pole_value": 0},
    "step_meridian-one_at_step": {"kind": "step_meridian", "theta_star": THETA_STAR,
                                  "boundary_variant": "one_at_step"},
    "step_meridian-zero_at_step": {"kind": "step_meridian", "theta_star": THETA_STAR,
                                   "boundary_variant": "zero_at_step"},
    "step_meridian-equator": {"kind": "step_meridian", "theta_star": 0.0},
    "step_meridian-disputed": {"kind": "step_meridian", "theta_star": math.asin(DISPUTED_Z)},
    "polar_cap": {"kind": "polar_cap", "cap_latitude": CAP_LATITUDE},
    "valuation2d_rotated": {"kind": "valuation2d_rotated",
                            "intervals": [[EDGES[0], EDGES[1]], [EDGES[2], EDGES[3]]]},
}
ROTATION_SEEDS = (None, 0, 1, 2)
# The large point sets meet a boundary arc only by chance, where variants
# and pole values do not differ, so they run on one spec per kind.
LARGE_SET_SPECS = ("four_segment-pole1", "step_meridian-one_at_step", "polar_cap",
                   "valuation2d_rotated")


def lattice(grid: int) -> np.ndarray:
    """The ``plot --grid`` lattice, one scalar ``to_cartesian`` per cell."""
    thetas = [math.asin(-1.0 + (2 * i + 1) / grid) for i in range(grid)]
    phis = [-math.pi + 2.0 * math.pi * (j + 0.5) / (2 * grid) for j in range(2 * grid)]
    return np.array([to_cartesian(SphPoint(t, p)) for t in thetas for p in phis])


def random_units(count: int, seed: int) -> np.ndarray:
    p = np.random.default_rng(seed).normal(size=(count, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


def _around(x: float) -> list[float]:
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


def boundary_points() -> np.ndarray:
    """Poles, the equator with x = +-0 and y of either sign, the phi = +-pi/2
    meridians, and circles of latitude at z = +-sin(theta_star), at the
    lower edge of the step's zero band, at z = +-sin(cap_latitude) and at
    the disputed sine, each with its neighbouring floats (z = +-1 with
    theirs, just off the sphere, which the asin clamp absorbs); longitudes
    at the spun generator's edges in all four quarter turns."""
    pts = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, -1.0)]
    for x in (0.0, -0.0):
        for y in (1.0, -1.0):
            pts += [(x, y, 0.0), (x, y, -0.0), (y, x, 0.0), (y, x, -0.0)]
    lats = [0.0, HALF_PI]
    for a in (THETA_STAR, CAP_LATITUDE):
        lats += [a, a - HALF_PI]
    sines = [math.sin(t) for t in lats] + [DISPUTED_Z]
    zs = sorted({z for sine in sines for s in (1.0, -1.0) for z in _around(s * sine)})
    lons = [k * HALF_PI + e for k in range(-2, 2) for e in (0.0,) + EDGES]
    lons = [phi for lon in lons for phi in _around(lon)]
    for z in zs:
        r = math.sqrt(max(0.0, 1.0 - z * z))
        for x in (0.0, -0.0, 5e-324, -5e-324):
            pts += [(x, r, z), (x, -r, z)]
        pts += [(r * math.cos(phi), r * math.sin(phi), z) for phi in lons]
    return np.array(pts, dtype=float)


def assert_same_bits(oracle, points: np.ndarray) -> None:
    vector = oracle.evaluate_many(points)
    assert vector.dtype == np.int8 and vector.shape == (len(points),)
    scalar = np.fromiter(map(oracle.evaluate, points), np.int8, len(points))
    mismatch = np.flatnonzero(vector != scalar)
    assert mismatch.size == 0, f"{mismatch.size} points differ, first {points[mismatch[0]]!r}"


def oracle_for(name: str, seed):
    spec = SPECS[name] if seed is None else {**SPECS[name], "rotation_seed": seed}
    return build_oracle(spec)


@pytest.fixture(scope="module")
def small_points():
    """grid-64, the boundary arcs and a few random points."""
    return np.concatenate([lattice(64), boundary_points(), random_units(2_000, 1)])


@pytest.mark.parametrize("seed", ROTATION_SEEDS)
@pytest.mark.parametrize("name", SPECS)
def test_small_sets_and_boundaries(name, seed, small_points):
    oracle = oracle_for(name, seed)
    points = small_points
    if seed is not None:
        # Preimages of the boundary points, so the rotated points reach the
        # base oracle's boundary arcs.
        points = np.concatenate([points, boundary_points() @ random_rotation(seed)])
    assert_same_bits(oracle, points)


@pytest.fixture(scope="module")
def grid_256():
    return lattice(256)


@pytest.fixture(scope="module")
def many_random_units():
    return random_units(100_000, 2)


@pytest.mark.parametrize("name", LARGE_SET_SPECS)
def test_grid_256_unrotated(name, grid_256):
    assert_same_bits(oracle_for(name, None), grid_256)


@pytest.mark.parametrize("name", LARGE_SET_SPECS)
def test_random_units_rotated(name, many_random_units):
    assert_same_bits(oracle_for(name, 3), many_random_units)


def test_base_class_fallback_loops_over_evaluate():
    oracle = FunctionValuation(3, lambda n: n[0] * n[1] > n[2])
    points = np.concatenate([boundary_points(), random_units(500, 4)])
    assert_same_bits(oracle, points)


@pytest.mark.parametrize("answer", [0.9, 7])
def test_base_class_fallback_rejects_non_bit_answers(answer):
    oracle = FunctionValuation(3, lambda n: answer)
    with pytest.raises(ValueError, match="expected 0 or 1"):
        _bit(oracle, np.eye(3)[0])
    with pytest.raises(ValueError, match="expected 0 or 1"):
        oracle.evaluate_many(np.eye(3))


def test_base_class_fallback_keeps_constant_and_reduced_bits():
    points = random_units(200, 5)
    for value in (0, 1):
        bits = ConstantValuation(3, value).evaluate_many(points)
        assert bits.dtype == np.int8 and bits.tolist() == [value] * len(points)
    base = FunctionValuation(4, lambda n: 1 if abs(n[3]) > 0.5 else 0)
    reduced = reduce_dimension(base, [np.eye(4)[0]])
    bits = reduced.evaluate_many(points)
    assert bits.dtype == np.int8
    assert bits.tolist() == [reduced.evaluate(p) for p in points]
    assert 0 < bits.sum() < len(points)


@pytest.mark.parametrize("name", ["four_segment-pole1", "polar_cap", "valuation2d_rotated"])
def test_rejects_points_of_the_wrong_shape(name):
    for oracle in (oracle_for(name, None), oracle_for(name, 3)):
        with pytest.raises(DomainError):
            oracle.evaluate_many(np.zeros((4, 2)))
        for n in ([1.0, 0.0], [0.0, 0.0, 1.0, 0.0]):
            with pytest.raises(DomainError):
                oracle.evaluate(np.array(n))


def test_valuation_2d_rows_at_quarter_turns_and_signed_zeros():
    # The one-ulp generator of the quarter-turn reduction test in
    # test_valuation.py, and a random one.
    generators = [Generator2D(((math.nextafter(HALF_PI, 0.0), HALF_PI),)),
                  Generator2D.random(np.random.default_rng(6))]
    quarter_turns = [k * HALF_PI for k in range(-9, 10)] + [2 * math.pi, -2 * math.pi]
    thetas = [x for t in quarter_turns + [0.0, -0.0, 5e-324, -5e-324]
              for x in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))]
    thetas += list(np.random.default_rng(7).uniform(-10.0, 10.0, 2_000))
    points = [(math.cos(t), math.sin(t)) for t in thetas]
    points += [(a, b) for s in (0.0, -0.0, 5e-324, -5e-324) for u in (1.0, -1.0)
               for a, b in ((u, s), (s, u))]
    for generator in generators:
        oracle = Valuation2D(generator)
        assert_same_bits(oracle, np.array(points))
        with pytest.raises(DomainError):
            oracle.evaluate(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            oracle.evaluate_many(np.zeros((4, 3)))


def test_step_meridian_rejects_non_unit_rows_as_evaluate_does():
    points = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.6]])
    oracle = oracle_for("step_meridian-one_at_step", None)
    with pytest.raises(DomainError):
        oracle.evaluate(points[1])
    with pytest.raises(DomainError):
        oracle.evaluate_many(points)


@pytest.mark.parametrize("seed", (None, 0))
@pytest.mark.parametrize("name", SPECS)
def test_non_finite_rows_fail_or_agree_as_evaluate_does(name, seed):
    oracle = oracle_for(name, seed)
    for row in ([math.nan, 0.0, 0.0], [0.0, 0.0, math.nan], [math.inf, 0.0, 0.0]):
        outcomes = []
        for call in (lambda: oracle.evaluate(np.array(row)),
                     lambda: int(oracle.evaluate_many(np.array([row]))[0])):
            try:
                outcomes.append(call())
            except ValueError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], row


def seeded_specs(seed: int) -> list[dict]:
    """One spec per kind with parameters drawn from ``seed``, and the edge
    values pole_value 0 and theta_star 0."""
    rng = np.random.default_rng(seed)
    return [
        {"kind": "four_segment", "pole_value": int(rng.integers(2))},
        {"kind": "four_segment", "pole_value": 0},
        {"kind": "step_meridian", "theta_star": float(rng.uniform(0.01, HALF_PI)),
         "boundary_variant": str(rng.choice(BOUNDARY_VARIANTS))},
        {"kind": "step_meridian", "theta_star": 0.0},
        {"kind": "polar_cap", "cap_latitude": float(rng.uniform(0.01, HALF_PI - 0.01))},
        {"kind": "valuation2d_rotated", **Generator2D.random(rng).to_dict()},
    ]


@pytest.mark.parametrize("rotation_seed", [None, 11])
@pytest.mark.parametrize("seed", [0, 1])
def test_to_oracle_dict_round_trips_through_json(seed, rotation_seed):
    points = np.concatenate([lattice(32), boundary_points()])
    for spec in seeded_specs(seed):
        if rotation_seed is not None:
            spec = {**spec, "rotation_seed": rotation_seed}
        oracle = build_oracle(spec)
        doc = oracle.to_oracle_dict()
        rebuilt = build_oracle(json.loads(json.dumps(doc)))
        assert rebuilt.to_oracle_dict() == doc
        assert np.array_equal(rebuilt.evaluate_many(points), oracle.evaluate_many(points))
