"""``evaluate_many`` against ``evaluate``: the vector path of every built-in
oracle family must give the scalar path's bits, point for point, on the
plot lattices, on random unit vectors and on the boundary arcs where a
last-bit difference would flip a value."""

import bisect
import json
import math
import random

import numpy as np
import pytest

from kswitness.sphere_geom import DomainError, SphPoint, require_unit, rotate, to_cartesian
from kswitness.valuation import (
    _WINDOW, BOUNDARY_VARIANTS, FunctionValuation, Generator2D, Valuation2D, _bit, _Many, _One,
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


# np.dot put this point's squared norm at 1 + 1.99996e-12, inside the unit
# tolerance, and einsum at 1 + 2.00018e-12, outside it.
POLAR_CAP_EDGE = [0.42377988440877196, 0.16181524643149575, -0.8911938260528975]


def unit_edge_points(count: int = 500, seed: int = 8) -> np.ndarray:
    """POLAR_CAP_EDGE, and seeded points whose squared norm is 1 +- 2e-12
    give or take a few ulps, where the unit check's verdict turns on how
    the squares are summed."""
    rng = np.random.default_rng(seed)
    delta = rng.choice([-2e-12, 2e-12], count) + rng.integers(-4, 5, count) * 2.0 ** -52
    return np.concatenate([[POLAR_CAP_EDGE],
                           random_units(count, seed) * np.sqrt(1.0 + delta)[:, None]])


def assert_same_bits(oracle, points: np.ndarray, may_reject: bool = False) -> None:
    """``evaluate_many`` gives ``evaluate``'s bit on every row.  With
    ``may_reject``, ``evaluate`` may reject rows, and ``evaluate_many`` must
    then raise ``DomainError`` on each of them; without it, a rejected row
    fails the test."""
    scalar = []
    for point in points:
        try:
            scalar.append(oracle.evaluate(point))
        except DomainError:
            if not may_reject:
                raise
            scalar.append(None)
    accepted = np.array([bit is not None for bit in scalar], dtype=bool)
    vector = oracle.evaluate_many(points[accepted])
    assert vector.dtype == np.int8 and vector.shape == (accepted.sum(),)
    mismatch = np.flatnonzero(vector != np.array([b for b in scalar if b is not None], np.int8))
    assert mismatch.size == 0, \
        f"{mismatch.size} points differ, first {points[accepted][mismatch[0]]!r}"
    for point in points[~accepted]:
        with pytest.raises(DomainError):
            oracle.evaluate_many(point[None])


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
    # Only the unit tolerance's edge may be rejected, by both paths alike.
    assert_same_bits(oracle, unit_edge_points(), may_reject=True)


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


# --- numpy's angles, re-read with math near the breakpoints ----------------

def _ulps(x: float, count: int = 3) -> list[float]:
    """``x`` and the ``count`` floats on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def step_breaks(theta_star: float) -> list[float]:
    """The latitudes a step-meridian rule compares asin's result against."""
    return [s * b for s in (1.0, -1.0) for b in (theta_star, theta_star - HALF_PI, HALF_PI)]


def generator_breaks(intervals) -> list[float]:
    """The longitudes a spun-2D rule compares atan2's result against."""
    edges = [e for iv in intervals for e in iv]
    return [k * HALF_PI + e for k in range(-2, 3) for e in [0.0] + edges]


def latitude_points(lats) -> np.ndarray:
    """At each latitude's +-3-ulp neighbours, and at the +-3-ulp neighbours
    of each one's sine, points on six meridians, phi = +-pi/2 among them."""
    zs = {z for lat in lats for t in _ulps(lat) for z in _ulps(math.sin(t))}
    lons = (0.0, HALF_PI, -HALF_PI, 1.0, -2.5, math.pi)
    return np.array([(r * math.cos(phi), r * math.sin(phi), z) for z in sorted(zs)
                     for r in [math.sqrt(max(0.0, 1.0 - z * z))] for phi in lons])


def longitude_points(lons) -> np.ndarray:
    """At each longitude's +-3-ulp neighbours, points on five circles of
    latitude, the equator with either sign of zero among them, each also
    with its y moved by up to 3 ulps."""
    pts = []
    for phi in {p for lon in lons for p in _ulps(lon)}:
        for z in (0.0, -0.0, 0.3, -0.8, 0.999):
            r = math.sqrt(1.0 - z * z)
            pts += [(r * math.cos(phi), y, z) for y in _ulps(r * math.sin(phi))]
    return np.array(pts)


def _disputed_lower_step() -> float:
    """A step whose lower edge, theta_star - pi/2, is an angle math.asin
    gives and numpy's arcsin puts one float below, when there is one: the
    one_at_step profile then tells them apart at that edge."""
    for z in np.linspace(-0.9, -0.1, 1001):
        edge = math.asin(z)
        if np.arcsin(z) < edge and (edge + HALF_PI) - HALF_PI == edge:
            return edge + HALF_PI
    return THETA_STAR


NARROW = [[0.5, 0.5 + 1e-12]]
AT_QUARTER_TURNS = [[0.0, 1e-12], [HALF_PI - 1e-12, HALF_PI]]
# Every step-meridian, four-segment and spun-2D spec, a step whose lower
# edge is disputed, and breakpoints closer together than the window: a step
# 1e-12 above the equator, generator intervals 1e-12 wide, and edges 1e-12
# from a quarter turn.
BREAKPOINT_SPECS = {
    **{name: spec for name, spec in SPECS.items() if spec["kind"] != "polar_cap"},
    "step_meridian-disputed_lower": {"kind": "step_meridian",
                                     "theta_star": _disputed_lower_step()},
    "step_meridian-close-one_at_step": {"kind": "step_meridian", "theta_star": 1e-12,
                                        "boundary_variant": "one_at_step"},
    "step_meridian-close-zero_at_step": {"kind": "step_meridian", "theta_star": 1e-12,
                                         "boundary_variant": "zero_at_step"},
    "valuation2d_rotated-narrow": {"kind": "valuation2d_rotated", "intervals": NARROW},
    "valuation2d_rotated-quarter_turns": {"kind": "valuation2d_rotated",
                                          "intervals": AT_QUARTER_TURNS},
}


def breakpoint_points(spec: dict) -> np.ndarray:
    if spec["kind"] == "valuation2d_rotated":
        return longitude_points(generator_breaks(spec["intervals"]))
    return latitude_points(step_breaks(spec.get("theta_star", HALF_PI)))


@pytest.mark.parametrize("seed", (None, 0, 1))
@pytest.mark.parametrize("name", BREAKPOINT_SPECS)
def test_breakpoints_and_their_neighbours(name, seed):
    """Where numpy's angle may be re-read with math, the bits are the
    scalar path's; rotated, at the breakpoints' preimages."""
    spec, points = BREAKPOINT_SPECS[name], breakpoint_points(BREAKPOINT_SPECS[name])
    if seed is not None:
        spec, points = {**spec, "rotation_seed": seed}, points @ random_rotation(seed)
    assert_same_bits(build_oracle(spec), points)


@pytest.mark.parametrize("intervals", ([[EDGES[0], EDGES[1]]], NARROW, AT_QUARTER_TURNS),
                         ids=("plain", "narrow", "quarter_turns"))
def test_valuation_2d_at_breakpoints_and_the_atan2_branch_cut(intervals):
    """On the circle at each breakpoint's neighbours, and at y = +-0.0 with
    x < 0, where atan2 jumps from pi to -pi; spun about the pole, on that
    half-plane at several heights."""
    circle = [(math.cos(t), math.sin(t)) for b in generator_breaks(intervals) for t in _ulps(b)]
    circle += [(x, y) for x in _ulps(-1.0) for y in (0.0, -0.0)]
    assert_same_bits(Valuation2D(Generator2D(intervals)), np.array(circle))
    cut = [(x, y, z) for z in (0.0, -0.0, 0.5, -0.5, 1.0, -1.0)
           for x in _ulps(-math.sqrt(1.0 - z * z) or -5e-324) for y in (0.0, -0.0)]
    assert_same_bits(build_oracle({"kind": "valuation2d_rotated", "intervals": intervals}),
                     np.array(cut))


def test_numpy_angles_stay_within_the_window_of_math():
    """The window's premise: numpy's arcsin and arctan2 are within 1e-12 of
    math's, far inside ``_WINDOW``; a last-bit difference is at most
    4.4e-16 rad, next to pi.  A numpy kernel that broke the premise would
    fail this test rather than flip a bit unseen."""
    rng = np.random.default_rng(12)
    sign = rng.choice([-1.0, 1.0], 20_000)
    z = np.concatenate([rng.uniform(-1.0, 1.0, 80_000),
                        sign[:10_000] * (1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 10_000)),
                        sign[10_000:] * 10.0 ** rng.uniform(-300.0, -1.0, 10_000)])
    y, x = rng.normal(size=(2, 100_000)) * 10.0 ** rng.integers(-3, 4, (2, 100_000))
    assert 1e-12 < _WINDOW
    assert np.abs(np.arcsin(z) - [math.asin(c) for c in z.tolist()]).max() <= 1e-12
    assert np.abs(np.arctan2(y, x) - list(map(math.atan2, y.tolist(), x.tolist()))).max() <= 1e-12


def float32_units(count: int, seed: int) -> np.ndarray:
    """Points that float32 holds exactly and whose squared norm, summed in
    float64, is within the unit tolerance: (a, b, c) / 2**24 with signs and
    the axes shuffled, for integers below 2**24 whose squares sum to within
    400 of 2**48.  A random a is tried against a run of b."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        a = int(rng.integers(2 ** 24))
        b = np.arange(2 ** 16, dtype=np.int64) + int(rng.integers(2 ** 24 - 2 ** 16))
        t = 2 ** 48 - a * a - b * b
        b, t = b[t >= 0], t[t >= 0]
        c = np.rint(np.sqrt(t.astype(float))).astype(np.int64)
        near = np.abs(c * c - t) <= 400
        found += [(a, int(y), int(z)) for y, z in zip(b[near], c[near])]
    points = np.array(found[:count], dtype=float) / 2.0 ** 24
    points *= rng.choice([-1.0, 1.0], size=points.shape)
    points = np.array([rng.permutation(row) for row in points])
    assert np.array_equal(points.astype(np.float32), points)
    return points


def _read_only(points: np.ndarray) -> np.ndarray:
    points = points.copy()
    points.flags.writeable = False
    return points


# The memory layouts a batch may arrive in, each built from C-ordered
# float64 points.  The batch rules take numpy's angles of its columns and
# re-read with math the rows near a breakpoint.
LAYOUTS = {
    "fortran": np.asfortranarray,
    "strided": lambda p: np.repeat(p, 2, axis=0)[::2],  # every other row
    "read_only": _read_only,
    "float32": lambda p: p.astype(np.float32),
    "big_endian": lambda p: p.astype(">f8"),
}


@pytest.fixture(scope="module")
def layout_points():
    """Float32-exact points for the float32 layout; grid-16 and the
    boundary arcs for the others."""
    return {"float32": float32_units(200, 9),
            "other": np.concatenate([lattice(16), boundary_points()])}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed", (None, 0))
@pytest.mark.parametrize("name", SPECS)
def test_batch_layouts_give_evaluate_bits(name, seed, layout, layout_points):
    oracle = oracle_for(name, seed)
    points = layout_points["float32" if layout == "float32" else "other"]
    batch = LAYOUTS[layout](points)
    expected = np.array([oracle.evaluate(p) for p in batch], np.int8)
    bits = oracle.evaluate_many(batch)
    assert bits.dtype == np.int8 and np.array_equal(bits, expected)


@pytest.mark.parametrize("seed", (None, 0))
@pytest.mark.parametrize("name", SPECS)
def test_empty_batch_gives_empty_int8(name, seed):
    bits = oracle_for(name, seed).evaluate_many(np.empty((0, 3)))
    assert bits.dtype == np.int8 and bits.shape == (0,)


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
        bits = FunctionValuation(3, lambda n: value).evaluate_many(points)
        assert bits.dtype == np.int8 and bits.tolist() == [value] * len(points)
    base = FunctionValuation(4, lambda n: 1 if abs(n[3]) > 0.5 else 0)
    reduced = reduce_dimension(base).reduced
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
                  Generator2D.random(random.Random(6))]
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


# --- the quarter-turn arithmetic of the 2-D rule ---------------------------

def divmod_rule(generator: Generator2D, theta: float) -> int:
    """The 2-D rule as it read with ``divmod``: branch and remainder from
    float ``divmod``, the branch clamped to 3 and the remainder below pi/2,
    parities by ``% 2``."""
    t = math.fmod(theta, 2.0 * math.pi)
    t = t + 2.0 * math.pi if t < 0.0 else t
    branch, rem = divmod(t, HALF_PI)
    branch, rem = min(branch, 3.0), min(rem, math.nextafter(HALF_PI, 0.0))
    if not 0.0 <= rem < HALF_PI:
        raise ValueError("generator argument outside [0, pi/2)")
    g = bisect.bisect_right(generator._edges, rem) % 2
    return g if branch % 2.0 == 0.0 else 1 - g


def divmod_rule_many(generator: Generator2D, theta: np.ndarray) -> np.ndarray:
    """``divmod_rule`` on numpy columns, with numpy's float divmod."""
    t = np.fmod(theta, 2.0 * math.pi)
    t = np.where(t < 0.0, t + 2.0 * math.pi, t)
    branch, rem = np.divmod(t, HALF_PI)
    branch, rem = np.minimum(branch, 3.0), np.minimum(rem, math.nextafter(HALF_PI, 0.0))
    assert np.all((rem >= 0.0) & (rem < HALF_PI))
    g = np.searchsorted(generator._edges, rem, side="right") % 2
    return np.where(branch % 2.0 == 0.0, g, 1 - g)


QUARTER_TURN_GENERATORS = [
    Generator2D(((EDGES[0], EDGES[1]), (EDGES[2], EDGES[3]))),
    Generator2D(tuple(map(tuple, NARROW))),
    Generator2D(tuple(map(tuple, AT_QUARTER_TURNS))),
    Generator2D(((math.nextafter(HALF_PI, 0.0), HALF_PI),)),
    Generator2D(((0.0, HALF_PI),)),
    Generator2D(),
] + [Generator2D.random(random.Random(seed)) for seed in range(4)]


def quarter_turn_angles(generator: Generator2D) -> list[float]:
    """Every k*pi/2 + edge for k = -6..6 and the 4 floats on either side;
    signed zeros and the tiny negatives for which t + 2 pi rounds to 2 pi;
    exact multiples of pi/2; random angles, with |theta| up to 1e6."""
    rng = np.random.default_rng(13)
    thetas = [t for k in range(-6, 7) for e in (0.0,) + generator._edges
              for t in _ulps(k * HALF_PI + e, 4)]
    thetas += [0.0, -0.0, 5e-324, -5e-324, -1e-300, 1e-300, 2.0 * math.pi, -2.0 * math.pi]
    thetas += [k * HALF_PI for k in range(-40, 41)]
    thetas += rng.uniform(-20.0, 20.0, 5_000).tolist() + rng.uniform(-1e6, 1e6, 1_000).tolist()
    return thetas + [1e6, -1e6, math.pi, -math.pi]


@pytest.mark.parametrize("index", range(len(QUARTER_TURN_GENERATORS)))
def test_quarter_turn_parity_keeps_the_divmod_bits(index):
    """``fmod`` and comparisons give the bits ``divmod`` and ``%`` gave, on
    the scalar and the batch path."""
    generator = QUARTER_TURN_GENERATORS[index]
    v, thetas = Valuation2D(generator), quarter_turn_angles(generator)
    expected = [divmod_rule(generator, t) for t in thetas]
    assert divmod_rule_many(generator, np.array(thetas)).tolist() == expected
    assert [v.value_at_angle(t) for t in thetas] == expected
    assert v.values_at_angles(np.array(thetas)).tolist() == expected
    # The remainder needs no clamp below pi/2: fmod's is already below it.
    t = np.fmod(thetas, 2.0 * math.pi)
    t = np.where(t < 0.0, t + 2.0 * math.pi, t)
    assert np.all(np.abs(np.fmod(t, HALF_PI)) < HALF_PI)
    for call in (lambda: divmod_rule(generator, math.nan), lambda: v.value_at_angle(math.nan),
                 lambda: v.values_at_angles(np.array([0.3, math.nan]))):
        with pytest.raises(ValueError, match=r"^generator argument outside \[0, pi/2\)$"):
            call()


@pytest.mark.parametrize("index", range(len(QUARTER_TURN_GENERATORS)))
def test_lookup_reads_negative_zero_as_zero(index):
    """``fmod`` leaves -0.0 where ``divmod`` gave 0.0; the lookup reads both
    alike, as one float and as a column."""
    generator = QUARTER_TURN_GENERATORS[index]
    assert generator._lookup(_One, -0.0) == generator._lookup(_One, 0.0)
    assert generator._lookup(_Many(), np.array([-0.0, 0.0])).tolist() == \
        [generator._lookup(_One, 0.0)] * 2


@pytest.mark.parametrize("index", range(len(QUARTER_TURN_GENERATORS)))
def test_breakpoints_are_those_atan2_can_reach(index):
    """Of k*pi/2 + edge for k = -2..2, the rule keeps those in [-pi, pi],
    +-pi among them, and drops only the ones past it."""
    generator = QUARTER_TURN_GENERATORS[index]
    every = set(generator_breaks(generator.intervals))
    kept = Valuation2D(generator)._breaks
    assert kept <= every and {math.pi, -math.pi} <= kept
    assert all(-math.pi <= b <= math.pi for b in kept)
    assert all(abs(b) > math.pi for b in every - kept)
    if index == 0:  # four distinct edges inside (0, pi/2)
        assert (len(every), len(kept)) == (25, 21)


def test_step_meridian_rejects_non_unit_rows_as_evaluate_does():
    points = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.6]])
    oracle = oracle_for("step_meridian-one_at_step", None)
    with pytest.raises(DomainError):
        oracle.evaluate(points[1])
    with pytest.raises(DomainError):
        oracle.evaluate_many(points)


@pytest.mark.parametrize("point", ([math.nan] * 3, [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]),
                         ids=("nan", "zero", "off_sphere"))
@pytest.mark.parametrize("seed", (None, 0))
@pytest.mark.parametrize("name", LARGE_SET_SPECS)
def test_every_3d_family_rejects_points_off_the_sphere(name, seed, point):
    oracle = oracle_for(name, seed)
    with pytest.raises(DomainError):
        oracle.evaluate(np.array(point))
    with pytest.raises(DomainError):
        oracle.evaluate_many(np.array([[0.0, 0.0, 1.0], point]))


def _unit_only(dimension: int, bit=None) -> FunctionValuation:
    """A user oracle whose callable fails the test unless it is handed a
    tuple of ``dimension`` Python floats on the sphere.  It answers ``bit``,
    or without one whether the last coordinate is positive."""
    def fn(n):
        assert type(n) is tuple and len(n) == dimension, n
        assert all(type(c) is float for c in n) and abs(sum(c * c for c in n) - 1.0) <= 1e-9, n
        return int(n[-1] > 0.0) if bit is None else bit

    return FunctionValuation(dimension, fn)


# The circle's valuation, and user oracles on S^0, S^2 and S^3, the
# constant ones included, whose callables must see only unit float tuples.
OTHER_FAMILIES = {
    "valuation2d": lambda: Valuation2D(Generator2D(((EDGES[0], EDGES[1]),))),
    "constant1d-1": lambda: _unit_only(1, 1),
    "constant1d-0": lambda: _unit_only(1, 0),
    "constant3d": lambda: _unit_only(3, 1),
    "function3d": lambda: _unit_only(3),
    "function4d": lambda: _unit_only(4),
}


@pytest.mark.parametrize("point", ("nan", "zero", "off_sphere"))
@pytest.mark.parametrize("name", OTHER_FAMILIES)
def test_every_other_family_rejects_points_off_the_sphere(name, point):
    oracle = OTHER_FAMILIES[name]()
    d = oracle.dimension
    unit = [0.0] * (d - 1) + [1.0]
    point = {"nan": [math.nan] * d, "zero": [0.0] * d, "off_sphere": [0.0] * (d - 1) + [5.0]}[point]
    with pytest.raises(DomainError):
        oracle.evaluate(np.array(point))
    with pytest.raises(DomainError):
        oracle.evaluate_many(np.array([unit, point]))
    assert oracle.evaluate_many(np.array([unit])).tolist() == [oracle.evaluate(np.array(unit))]


@pytest.mark.parametrize("name", OTHER_FAMILIES)
def test_every_other_family_rejects_points_of_the_wrong_shape(name):
    oracle = OTHER_FAMILIES[name]()
    d = oracle.dimension
    for point in ([5.0] * (d + 2), [[1.0] + [0.0] * (d - 1)]):
        with pytest.raises(DomainError):
            oracle.evaluate(np.array(point))
    for points in (np.zeros((2, d + 1)), np.eye(d)[0]):
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
        {"kind": "valuation2d_rotated", **Generator2D.random(random.Random(seed)).to_dict()},
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


# --- one domain contract for every valuation -------------------------------

def contract_oracles() -> dict[int, list]:
    """Every built-in kind, plain and rotated, ``OTHER_FAMILIES``, and
    reductions from d = 4 and d = 5, by dimension."""
    oracles = {d: [] for d in (1, 2, 3, 4)}
    for seed in ROTATION_SEEDS[:2]:
        oracles[3] += [oracle_for(name, seed) for name in SPECS]
    # 1 near e_d at d = 4 (axes 1, 2, 3) and near e_1 at d = 5 (axes 0, 3, 4).
    for d, axis in ((4, 3), (5, 0)):
        base = FunctionValuation(d, lambda n, a=axis: int(abs(n[a]) > 0.5))
        oracles[3].append(reduce_dimension(base).reduced)
    for make in OTHER_FAMILIES.values():
        oracle = make()
        oracles[oracle.dimension].append(oracle)
    return oracles


def test_one_domain_contract_for_every_valuation():
    """``evaluate`` raises ``DomainError`` exactly where ``require_unit``
    rejects the point, or for a rotated oracle the rotated point, and a
    one-row ``evaluate_many`` answers as ``evaluate`` does, on non-finite
    coordinates, signed zeros, subnormals and the unit tolerance's edge."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    oracles = contract_oracles()
    special = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                               -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e308])

    @st.composite
    def points(draw, d):
        """A tuple of any floats, or a direction scaled so that its squared
        norm lands a few ulps either side of 1 or of 1 +- 2 * EPS_NORM,
        maybe with one coordinate replaced by a special value."""
        if draw(st.booleans()):
            return draw(st.tuples(*[st.one_of(special, st.floats())] * d))
        v = draw(st.tuples(*[st.floats(-1.0, 1.0)] * d).filter(lambda v: max(map(abs, v)) > 1e-6))
        delta = draw(st.sampled_from([0.0, -2e-12, 2e-12])) + draw(st.integers(-4, 4)) * 2.0 ** -52
        scale = math.sqrt((1.0 + delta) / sum(c * c for c in v))
        v = [c * scale for c in v]
        if draw(st.booleans()):
            v[draw(st.integers(0, d - 1))] = draw(special)
        return tuple(v)

    def outcome(call):
        try:
            return call()
        except DomainError:
            return DomainError

    def rejects(p) -> bool:
        return outcome(lambda: require_unit(p, len(p))) is DomainError

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @hypothesis.given(st.data())
    def check(data):
        for d, members in oracles.items():
            p = data.draw(points(d))
            for oracle in members:
                rotation = getattr(oracle, "rotation", None)
                expected = rejects(p if rotation is None else rotate(rotation, p))
                one = outcome(lambda: oracle.evaluate(p))
                assert (one is DomainError) == expected, (oracle, p)
                assert outcome(lambda: int(oracle.evaluate_many(np.array([p]))[0])) == one, \
                    (oracle, p)

    with np.errstate(all="ignore"):  # 1e308 squared, inf - inf: numpy warns on columns
        check()
