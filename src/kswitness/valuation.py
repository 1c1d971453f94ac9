"""Valuations: {0,1}-valued oracles on unit spheres, and the explicit
constructions.

A valuation assigns each unit vector a bit, is antipodally symmetric
(v(-n) = v(n)), and sums to 1 over every orthonormal basis.  In one
dimension it is a constant, 1 for a standalone system; in two it exists
and is built here from a generator on a quarter turn.  In three dimensions
none can exist, and the concrete families below (four-segment,
step-meridian, polar-cap, spun-2D) are the natural near-misses the
witness extractor is pointed at.  Dimension d >= 4 reduces to d = 3 from
one basis: if a valuation's bits on the standard basis do not sum to 1,
that basis is the certificate; if they do, d-1 of its vectors are zeros,
and restricting to the span of the three basis vectors left after the
first d-3 zeros leaves a 3D valuation (``reduce_dimension``).

Antipodal symmetry is a contract on implementations; it is spot-checked by
the test harness on sampled points, since it cannot be proven for black-box
oracles.  Oracles must tolerate concurrent evaluation or document that they
are single-threaded; everything constructed here is immutable and pure.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from types import SimpleNamespace

from .sphere_geom import (
    HALF_PI, DomainError, NotOrthogonal, _Frozen, as_rows, as_vector, require_orthonormal,
    require_unit, require_unit_rows, rotate,
)

PI = math.pi


class NotABasis(ValueError):
    """A claimed basis fails the orthonormality check."""


class OracleSpecError(ValueError):
    """An oracle-spec document is malformed."""


class Valuation:
    """Base oracle interface: ``evaluate`` maps a unit d-vector to 0 or 1,
    and ``evaluate_many`` maps an (N, d) array of them to an int8[N] array
    of the same bits.  Unit d-vectors are the whole domain: both paths
    take their points through ``require_unit`` or ``require_unit_rows``,
    which raise ``DomainError`` on anything else, NaN and the zero vector
    included.  Only the batch path imports numpy."""

    dimension: int = 3

    def evaluate(self, n) -> int:
        raise NotImplementedError

    def evaluate_many(self, points):
        """``evaluate`` on each row, through the same bit check as every
        scalar answer.  The built-in families run their one rule on whole
        columns instead (see ``_RuleValuation``)."""
        import numpy as np

        points = require_unit_rows(points, self.dimension)
        return np.fromiter((_bit(self, n) for n in points), np.int8, len(points))


def _bit(valuation: Valuation, n) -> int:
    """The oracle's answer at ``n``, which must be 0 or 1.  Every answer the
    library reasons from goes through here, so a stray value is an error
    rather than a term in a sum; so is 0.9, which ``int`` would read as 0."""
    val = valuation.evaluate(n)
    if val not in (0, 1):
        raise ValueError(f"oracle returned {val!r}, expected 0 or 1")
    return int(val)


# What a family's rule may call besides arithmetic, comparisons, ``& | ^``
# and ``abs``: ``_One`` on one point's Python floats, ``_Many()`` on numpy
# columns.  ``map(fn, breaks, *args)`` takes ``math.asin`` or ``math.atan2``
# and the set of angles the rule compares the result against.  ``_One``
# calls ``fn`` and ignores ``breaks``.  ``_Many()`` takes numpy's arcsin or
# arctan2 of the whole columns, which may differ from ``math``'s in the
# last bit, and re-reads with ``fn``, on the same Python floats, the rows
# whose angle lies within ``_WINDOW`` of a breakpoint.  The two differ by
# far less than ``_WINDOW`` (a test pins 1e-12), so an angle kept from
# numpy is on the same side of every breakpoint as ``math``'s, and the rule
# gives the scalar path's bit.  A rule passes only the breakpoints ``fn``
# can reach: a row within ``_WINDOW`` of one past atan2's range [-pi, pi]
# is also within it of +-pi.  No rule takes a float ``%`` or ``divmod``,
# costly on numpy columns: the 2-D rule reads its quarter turn's parity
# from comparisons on ``t - fmod(t, pi/2)``.
_WINDOW = 1e-9

_One = SimpleNamespace(
    map=lambda fn, breaks, *args: fn(*args),
    where=lambda cond, a, b: a if cond else b,
    clip=lambda z: -1.0 if z < -1.0 else 1.0 if z > 1.0 else z,
    fmod=math.fmod,
    searchsorted=bisect.bisect_right,
    all=bool,
)


@functools.cache
def _Many() -> SimpleNamespace:
    """The batch rules' namespace, built on the first batch call, which
    imports numpy, and kept for the process."""
    import numpy as np

    numpy_of = {math.asin: np.arcsin, math.atan2: np.arctan2}

    def map_near(fn, breaks, *columns):
        out = numpy_of[fn](*columns)
        near = np.zeros(out.shape, bool)
        for b in breaks:
            near |= abs(out - b) <= _WINDOW
        near = np.flatnonzero(near)
        out[near] = list(map(fn, *(c[near].tolist() for c in columns)))
        return out

    return SimpleNamespace(
        map=map_near,
        where=np.where,
        clip=lambda z: np.clip(z, -1.0, 1.0),
        fmod=np.fmod,
        searchsorted=lambda edges, t: np.searchsorted(edges, t, side="right"),
        all=np.all,
    )


class _RuleValuation(Valuation):
    """A family written once, as ``_bits(ops, *coordinates)``.  ``evaluate``
    runs the rule on one point's Python floats and ``evaluate_many`` on the
    columns of a batch.  Every angle the rule takes is numpy's in the batch,
    except within ``_WINDOW`` of a breakpoint the rule compares it against,
    where it is ``math``'s as in ``evaluate``; both are on the same side of
    every breakpoint, so the two paths give the same bits.  Either raises
    ``DomainError`` on a point off the unit sphere."""

    def _bits(self, ops, *coordinates):
        raise NotImplementedError

    def evaluate(self, n) -> int:
        return int(self._bits(_One, *require_unit(n, self.dimension)))

    def evaluate_many(self, points):
        import numpy as np

        return self._bits(_Many(), *require_unit_rows(points, self.dimension).T).astype(np.int8)


class FunctionValuation(Valuation):
    """Adapter wrapping an arbitrary callable oracle.  The callable sees
    only unit ``dimension``-vectors, as tuples of Python floats: every
    other point raises ``DomainError`` before it is called."""

    def __init__(self, dimension: int, fn):
        self.dimension = dimension
        self._fn = fn

    def evaluate(self, n) -> int:
        return self._fn(require_unit(n, self.dimension))


class Generator2D(_Frozen):
    """A {0,1} function on [0, pi/2), stored as the sorted disjoint half-open
    intervals carrying the value 1.

    Interval lists keep 2D valuations serializable and exactly evaluable;
    arbitrary user oracles go through the generic Valuation interface
    instead.
    """

    _fields = ("intervals",)

    def __init__(self, intervals=()):
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        last = 0.0
        for a, b in ivs:
            if not (0.0 <= a < b <= HALF_PI):
                raise ValueError(f"interval [{a}, {b}) must lie inside [0, pi/2)")
            if a < last:
                raise ValueError("intervals must be sorted and disjoint")
            last = b
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "_edges", tuple(e for iv in ivs for e in iv))

    def _lookup(self, ops, t):
        """Membership parity against the flattened endpoints."""
        if not ops.all((t >= 0.0) & (t < HALF_PI)):
            raise ValueError("generator argument outside [0, pi/2)")
        return ops.searchsorted(self._edges, t) & 1

    def to_dict(self) -> dict:
        return {"intervals": [list(iv) for iv in self.intervals]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Generator2D":
        return cls(tuple((_real(a, "interval endpoint"), _real(b, "interval endpoint"))
                         for a, b in doc.get("intervals", [])))

    @classmethod
    def random(cls, rng: random.Random) -> "Generator2D":
        """One to four intervals with uniform endpoints."""
        cuts = sorted(rng.uniform(0.0, HALF_PI) for _ in range(2 * rng.randint(1, 4)))
        return cls(tuple(zip(cuts[0::2], cuts[1::2])))


class Valuation2D(_RuleValuation):
    """The general S^1 valuation generated by g on [0, pi/2):

        v = g on [0, pi/2),  1 - g(. - pi/2) on [pi/2, pi),
        and the same pattern repeated on [pi, 2 pi).

    This satisfies v(t) = v(t + pi) and v(t) + v(t + pi/2) = 1 exactly, and
    makes the image automatically half zeros and half ones.

    The rule reduces t to [0, 2 pi], takes its remainder on the quarter
    turn with ``fmod`` and the quarter turn's parity from comparisons on
    t minus that remainder.  Its breakpoints are the quarter turns and the
    generator's edges shifted by them that atan2 can reach, in [-pi, pi].
    """

    dimension = 2

    def __init__(self, generator: Generator2D):
        self.generator = generator
        breaks = (k * HALF_PI + e for k in range(-2, 3) for e in (0.0,) + generator._edges)
        self._breaks = frozenset(b for b in breaks if -PI <= b <= PI)

    def _at(self, ops, theta):
        t = ops.fmod(theta, 2.0 * PI)
        t = ops.where(t < 0.0, t + 2.0 * PI, t)
        # rem is in [0, pi/2), or -0.0 at t = -0.0, which the lookup reads
        # as 0.0.  t - rem is a whole number n of quarter turns up to one
        # rounding, and n is even for n = 0 and n = 2 only.  t = 2 pi, where
        # a tiny negative theta lands, is n = 4: odd, as the quarter turn
        # [-pi/2, 0) that theta lies in.
        rem = ops.fmod(t, HALF_PI)
        whole = t - rem
        even = (whole < PI / 4) | ((whole > 3 * PI / 4) & (whole < 5 * PI / 4))
        g = self.generator._lookup(ops, rem)
        return ops.where(even, g, 1 - g)

    def value_at_angle(self, theta: float) -> int:
        return self._at(_One, theta)

    def values_at_angles(self, theta):
        import numpy as np

        return self._at(_Many(), np.asarray(theta, dtype=float))

    def _bits(self, ops, x, y):
        return self._at(ops, ops.map(math.atan2, self._breaks, y, x))


# --- three-dimensional near-miss constructions ----------------------------

BOUNDARY_VARIANTS = ("one_at_step", "zero_at_step")


def step_profile(theta, theta_star: float, variant: str):
    """The standardized meridian profile with transition latitude theta_star,
    as a bool, or elementwise on an array of latitudes.

    one_at_step:  1 on [theta_star, pi/2], 0 on [theta_star - pi/2,
    theta_star), 1 below.  zero_at_step shifts the interval closures so the
    transition latitude itself carries 0.
    """
    if variant == "one_at_step":
        return (theta >= theta_star) | (theta < theta_star - HALF_PI)
    if variant == "zero_at_step":
        return (theta > theta_star) | (theta <= theta_star - HALF_PI)
    raise ValueError(f"unknown boundary variant {variant!r}")


def _validate_step_params(theta_star: float, variant: str) -> None:
    if variant not in BOUNDARY_VARIANTS:
        raise ValueError(f"boundary_variant must be one of {BOUNDARY_VARIANTS}")
    if not 0.0 <= theta_star <= HALF_PI:
        raise ValueError(f"theta_star={theta_star} outside [0, pi/2]")
    # The closed-top variant double-assigns the (pole, equator) pair when the
    # step sits exactly on the equator, and symmetrically for the other one.
    if variant == "one_at_step" and theta_star == 0.0:
        raise ValueError("one_at_step requires theta_star > 0")
    if variant == "zero_at_step" and theta_star == HALF_PI:
        raise ValueError("zero_at_step requires theta_star < pi/2")


def _front_half(x, y):
    """Longitude in [-pi/2, pi/2), decided from coordinate signs so that a
    point and its antipode land on opposite sides exactly (float negation is
    exact; a wrapped atan2 is not)."""
    return (x > 0.0) | ((x == 0.0) & (y < 0.0))


class StepMeridianValuation(_RuleValuation):
    """The standardized meridian profile spread over the sphere.

    Points with longitude in [-pi/2, pi/2) take profile(theta); the opposite
    half-sphere takes profile(-theta), which is exactly the antipodal
    completion, and both poles take ``pole_value``, the north-pole profile
    value (1 for every valid step).  Every orthogonal pair within a single
    meridian circle then sums to 1, so the inevitable failures sit on tilted
    triads only.
    """

    pole_value = 1

    def __init__(self, theta_star: float, boundary_variant: str = "one_at_step"):
        _validate_step_params(theta_star, boundary_variant)
        self.theta_star = float(theta_star)
        self.boundary_variant = boundary_variant
        self._breaks = frozenset(s * b for s in (1.0, -1.0)
                                 for b in (self.theta_star, self.theta_star - HALF_PI, HALF_PI))

    def _bits(self, ops, x, y, z):
        theta = ops.map(math.asin, self._breaks, ops.clip(z))
        t = ops.where(_front_half(x, y), theta, -theta)
        value = step_profile(t, self.theta_star, self.boundary_variant)
        return ops.where(abs(theta) == HALF_PI, self.pole_value, value)

    def to_oracle_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "step_meridian",
            "theta_star": self.theta_star,
            "boundary_variant": self.boundary_variant,
        }


class FourSegmentValuation(StepMeridianValuation):
    """Split the sphere by the equator and the phi = +-pi/2 meridians into
    four segments: zero on {theta > 0, |phi| < pi/2} and {theta < 0,
    |phi| > pi/2}, one on the two complementary segments and at the poles.

    This is the step-meridian valuation with its step at the pole (profile
    1 only below the equator), except that the poles may carry 0.  The
    boundary arcs carry the standardized meridian assignment; the witness
    extractor never relies on boundary points.
    """

    def __init__(self, pole_value: int = 1):
        if isinstance(pole_value, bool) or pole_value not in (0, 1):
            raise ValueError("pole_value must be 0 or 1")
        super().__init__(HALF_PI, "one_at_step")
        self.pole_value = pole_value

    def to_oracle_dict(self) -> dict:
        return {"schema": 1, "kind": "four_segment", "pole_value": self.pole_value}


class PolarCapValuation(_RuleValuation):
    """1 inside two antipodal polar caps (|sin(theta)| >= sin(cap_latitude)),
    0 elsewhere.  Depends on latitude alone, so antipodal symmetry is exact;
    any triad avoiding both caps sums to 0."""

    def __init__(self, cap_latitude: float):
        if not 0.0 < cap_latitude < HALF_PI:
            raise ValueError(f"cap_latitude={cap_latitude} outside (0, pi/2)")
        self.cap_latitude = float(cap_latitude)

    def _bits(self, ops, x, y, z):
        return abs(z) >= math.sin(self.cap_latitude)

    def to_oracle_dict(self) -> dict:
        return {"schema": 1, "kind": "polar_cap", "cap_latitude": self.cap_latitude}


class Valuation2DRotated(_RuleValuation):
    """A 2D valuation spun about the polar axis: v(n) = v2(longitude of n).

    Antipodes flip longitude by pi, which the 2D construction is invariant
    under; evaluating through a canonical hemisphere representative makes
    that exact in floating point too.  Equatorial dyads even satisfy the sum
    rule, leaving the violations on triads that mix latitudes."""

    def __init__(self, generator: Generator2D):
        self.generator = generator
        self._v2 = Valuation2D(generator)

    def _bits(self, ops, x, y, z):
        flip = (z < 0.0) | ((z == 0.0) & (_front_half(x, y) ^ True))
        x, y = ops.where(flip, -x, x), ops.where(flip, -y, y)
        return self._v2._bits(ops, x, y)

    def to_oracle_dict(self) -> dict:
        return {"schema": 1, "kind": "valuation2d_rotated", **self.generator.to_dict()}


def random_rotation(seed: int) -> tuple:
    """A seed-determined proper rotation of R^3, as three row tuples: the
    rotation of a Haar-uniform unit quaternion drawn from
    ``random.Random(seed)`` (Shoemake, "Uniform random rotations",
    Graphics Gems III, 1992)."""
    rng = random.Random(seed)
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    w, x = a * math.sin(2.0 * PI * u2), a * math.cos(2.0 * PI * u2)
    y, z = b * math.sin(2.0 * PI * u3), b * math.cos(2.0 * PI * u3)
    # Scaling by 2 / |q|^2 keeps the rows orthonormal whatever |q| rounded to.
    s = 2.0 / (w * w + x * x + y * y + z * z)
    return ((1.0 - s * (y * y + z * z), s * (x * y - w * z), s * (x * z + w * y)),
            (s * (x * y + w * z), 1.0 - s * (x * x + z * z), s * (y * z - w * x)),
            (s * (x * z - w * y), s * (y * z + w * x), 1.0 - s * (x * x + y * y)))


class RotatedValuation(Valuation):
    """A 3-D base composed with a fixed rotation: v(n) = base(R @ n).
    ``evaluate`` applies ``rotate`` to a point's Python floats and
    ``evaluate_many`` to the coordinate columns, so the two give the same
    bits.  The rows must pass ``require_orthonormal``, so R maps the sphere
    onto itself, and the unit check is left to the base: a point is
    rejected exactly when ``R @ n`` is."""

    def __init__(self, base: Valuation, rotation, seed: int | None = None):
        rotation = tuple(require_orthonormal(rotation))
        if base.dimension != 3 or len(rotation) != 3:
            raise ValueError("rotation shape does not match oracle dimension")
        self.base = base
        self.rotation = rotation
        self.seed = seed

    def evaluate(self, n) -> int:
        return self.base.evaluate(rotate(self.rotation, as_vector(n)))

    def evaluate_many(self, points):
        import numpy as np

        # The rotated columns are the rows of one C-ordered array, so the
        # base reads each as contiguous memory.
        return self.base.evaluate_many(np.array(rotate(self.rotation, as_rows(points).T)).T)

    def to_oracle_dict(self) -> dict:
        if self.seed is None:
            raise OracleSpecError("only seed-derived rotations serialize")
        doc = self.base.to_oracle_dict()  # type: ignore[attr-defined]
        doc["rotation_seed"] = self.seed
        return doc


# --- oracle-spec documents -------------------------------------------------

def _real(value, name: str) -> float:
    """A JSON number as a float; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


ORACLE_KINDS = ("four_segment", "step_meridian", "polar_cap", "valuation2d_rotated")


def build_oracle(spec: dict) -> Valuation:
    """Materialize a built-in oracle family from its JSON spec document.

    Kinds: four_segment (optional pole_value), step_meridian (theta_star,
    optional boundary_variant), polar_cap (cap_latitude), valuation2d_rotated
    (intervals).  Any kind accepts an optional integer rotation_seed, which
    wraps the oracle in a seed-derived rotation.
    """
    if not isinstance(spec, dict):
        raise OracleSpecError("oracle spec must be a JSON object")
    schema = spec.get("schema", 1)
    if type(schema) is not int or schema != 1:  # a bool is no schema number
        raise OracleSpecError(f"unsupported schema {schema!r}; expected 1")
    kind = spec.get("kind")
    if kind not in ORACLE_KINDS:
        raise OracleSpecError(f"unknown oracle kind {kind!r}; expected one of {ORACLE_KINDS}")
    try:
        if kind == "four_segment":
            oracle: Valuation = FourSegmentValuation(spec.get("pole_value", 1))
        elif kind == "step_meridian":
            if "theta_star" not in spec:
                raise OracleSpecError("step_meridian requires theta_star")
            theta_star = _real(spec["theta_star"], "theta_star")
            # Each boundary variant is degenerate at one end of the range;
            # default to whichever is valid at this step position.
            default_variant = "one_at_step" if theta_star > 0.0 else "zero_at_step"
            oracle = StepMeridianValuation(
                theta_star, spec.get("boundary_variant", default_variant)
            )
        elif kind == "polar_cap":
            if "cap_latitude" not in spec:
                raise OracleSpecError("polar_cap requires cap_latitude")
            oracle = PolarCapValuation(_real(spec["cap_latitude"], "cap_latitude"))
        else:
            oracle = Valuation2DRotated(Generator2D.from_dict(spec))
    except (TypeError, ValueError, OverflowError) as exc:
        raise OracleSpecError(f"bad parameters for oracle kind {kind!r}: {exc}") from exc
    seed = spec.get("rotation_seed")
    if seed is not None:
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise OracleSpecError("rotation_seed must be a non-negative integer")
        oracle = RotatedValuation(oracle, random_rotation(seed), seed=seed)
    return oracle


# --- the sum rule and dimension reduction ---------------------------------

def check_basis(valuation: Valuation, basis) -> int:
    """Sum of the valuation over one orthonormal basis.

    The defining condition holds iff the return value is 1; callers hunting
    for violations just compare.  Raises NotABasis when the vectors are not
    an orthonormal d-tuple by ``require_orthonormal``, the oracles' own unit
    check, so every vector it accepts is one ``_bit`` accepts.
    """
    d = valuation.dimension
    try:
        vecs = require_orthonormal(basis, d)
    except (DomainError, NotOrthogonal) as exc:
        raise NotABasis(str(exc)) from None
    if len(vecs) != d:
        raise NotABasis(f"expected {d} vectors, got {len(vecs)}")
    return sum(_bit(valuation, v) for v in vecs)


class ReducedValuation(Valuation):
    """A d-dimensional valuation restricted to the 2-sphere of three
    standard axes, ``axes`` in ascending order.  The other d-3 standard
    basis vectors, ``zeros``, are the zero set it is orthogonal to.  Takes
    unit 3-vectors only, as every ``Valuation`` does."""

    def __init__(self, base: Valuation, axes):
        d = base.dimension
        self.axes = tuple(axes)
        if len(self.axes) != 3 or not 0 <= self.axes[0] < self.axes[1] < self.axes[2] < d:
            raise ValueError(f"axes must be three ascending indices below {d}, got {axes!r}")
        self.base = base
        self.zeros = tuple(tuple(float(k == i) for k in range(d))
                           for i in range(d) if i not in self.axes)

    def embed(self, u) -> tuple[float, ...]:
        """A reduced 3-vector in the ambient d-space: its coordinates at
        ``axes`` and 0.0 everywhere else, so no coordinate is rounded."""
        x = [0.0] * self.base.dimension
        for i, c in zip(self.axes, as_vector(u)):
            x[i] = c
        return tuple(x)

    def embed_basis(self, triad) -> list[tuple[float, ...]]:
        """Ambient d-basis: the embedded triad padded with the zero set."""
        return [self.embed(u) for u in triad] + list(self.zeros)

    def evaluate(self, n) -> int:
        return self.base.evaluate(self.embed(require_unit(n, self.dimension)))


class Reduction(_Frozen):
    """Outcome of ``reduce_dimension``: the standard basis it read and the
    sum of its bits, and ``reduced`` when that sum is 1, None otherwise."""

    _fields = ("basis", "basis_sum", "reduced")

    def __init__(self, basis: tuple[tuple[float, ...], ...], basis_sum: int,
                 reduced: ReducedValuation | None):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "basis_sum", basis_sum)
        object.__setattr__(self, "reduced", reduced)


def reduce_dimension(valuation: Valuation) -> Reduction:
    """A d >= 4 valuation cut down to a 3-D one, or a basis that breaks the
    sum rule, from exactly d oracle calls.

    Evaluates the standard basis e_1 ... e_d once each.  If the bits do not
    sum to 1, that basis is the certificate.  If they do, the first d-3
    zeros in index order are the zero set, and the valuation is restricted
    to the span of the other three axes.  A violating triad found there
    maps back to a violating d-basis via ``embed_basis``.  Raises
    ``ValueError`` when d < 4 or an answer is not 0 or 1.
    """
    d = valuation.dimension
    if d < 4:
        raise ValueError(f"reduction needs dimension >= 4, oracle claims {d}")
    basis = tuple(tuple(float(k == i) for k in range(d)) for i in range(d))
    bits = [_bit(valuation, e) for e in basis]
    if sum(bits) != 1:
        return Reduction(basis, sum(bits), None)
    zeros = [i for i, bit in enumerate(bits) if bit == 0][:d - 3]
    return Reduction(basis, 1, ReducedValuation(valuation, [i for i in range(d) if i not in zeros]))
