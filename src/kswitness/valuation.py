"""Valuations: {0,1}-valued oracles on unit spheres, and every explicit
construction that actually exists.

A valuation assigns each unit vector a bit, is antipodally symmetric
(v(-n) = v(n)), and sums to 1 over every orthonormal basis.  In one and two
dimensions such maps exist and are built here; in three dimensions they
cannot exist, and the concrete families below (four-segment, step-meridian,
polar-cap, spun-2D) are the natural near-misses the witness extractor is
pointed at.  Dimension d >= 4 reduces to d = 3 from one basis: if a
valuation's bits on the standard basis do not sum to 1, that basis is the
certificate; if they do, d-1 of its vectors are mutually orthogonal zeros,
and restricting to the 2-sphere orthogonal to d-3 of them leaves a 3D
valuation.

Antipodal symmetry is a contract on implementations; it is spot-checked by
the test harness on sampled points, since it cannot be proven for black-box
oracles.  Oracles must tolerate concurrent evaluation or document that they
are single-threaded; everything constructed here is immutable and pure.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .sphere_geom import (
    EPS_NORM, EPS_ORTHO, HALF_PI, DomainError, require_unit, require_unit_rows,
)

PI = math.pi


class NotABasis(ValueError):
    """A claimed basis fails the orthonormality check."""


class ZeroSetInvalid(ValueError):
    """A dimension-reduction zero set is not orthonormal or not all zero."""


class OracleSpecError(ValueError):
    """An oracle-spec document is malformed."""


class Valuation:
    """Base oracle interface: ``evaluate`` maps a unit d-vector to 0 or 1,
    and ``evaluate_many`` maps an (N, d) array of them to an int8[N] array
    of the same bits."""

    dimension: int = 3

    def evaluate(self, n) -> int:
        raise NotImplementedError

    def evaluate_many(self, points) -> np.ndarray:
        """``evaluate`` on each row, through the same bit check as every
        scalar answer.  The built-in families run their one rule on whole
        columns instead (see ``_RuleValuation``)."""
        points = self._check_rows(points)
        return np.fromiter((_bit(self, n) for n in points), np.int8, len(points))

    def _check(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        if n.shape != (self.dimension,):
            raise DomainError(f"expected a {self.dimension}-vector, got shape {n.shape}")
        return n

    def _check_rows(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise DomainError(f"expected an (N, {self.dimension}) array of points, "
                              f"got shape {points.shape}")
        return points


def _bit(valuation: Valuation, n) -> int:
    """The oracle's answer at ``n``, which must be 0 or 1.  Every answer the
    library reasons from goes through here, so a stray value is an error
    rather than a term in a sum; so is 0.9, which ``int`` would read as 0."""
    val = valuation.evaluate(n)
    if val not in (0, 1):
        raise ValueError(f"oracle returned {val!r}, expected 0 or 1")
    return int(val)


# What a family's rule may call besides comparisons, ``& | ^``, ``abs`` and
# ``divmod``: ``_One`` on one point's Python floats, ``_Many`` on numpy
# columns.  Both map the ``math`` asin and atan2, which numpy's can differ
# from in the last bit, and ``_Many`` holds no batch-sized list of floats.
_One = SimpleNamespace(
    map=lambda fn, *args: fn(*args),
    where=lambda cond, a, b: a if cond else b,
    clip=lambda z: -1.0 if z < -1.0 else 1.0 if z > 1.0 else z,
    fmod=math.fmod,
    minimum=min,
    searchsorted=bisect.bisect_right,
    all=bool,
)
_Many = SimpleNamespace(
    map=lambda fn, *columns: np.fromiter(map(fn, *columns), float, len(columns[0])),
    where=np.where,
    clip=lambda z: np.clip(z, -1.0, 1.0),
    fmod=np.fmod,
    minimum=np.minimum,
    searchsorted=lambda edges, t: np.searchsorted(edges, t, side="right"),
    all=np.all,
)


class _RuleValuation(Valuation):
    """A family written once, as ``_bits(ops, *coordinates)``.  ``evaluate``
    runs the rule on one point's Python floats and ``evaluate_many`` on the
    columns of a batch, so the two give the same bits by construction.
    Either raises ``DomainError`` on a point of the wrong shape."""

    def _bits(self, ops, *coordinates):
        raise NotImplementedError

    def evaluate(self, n) -> int:
        return int(self._bits(_One, *self._check(n).tolist()))

    def evaluate_many(self, points) -> np.ndarray:
        return self._bits(_Many, *self._check_rows(points).T).astype(np.int8)


class FunctionValuation(Valuation):
    """Adapter wrapping an arbitrary callable oracle."""

    def __init__(self, dimension: int, fn):
        self.dimension = dimension
        self._fn = fn

    def evaluate(self, n) -> int:
        return self._fn(np.asarray(n, dtype=float))


class ConstantValuation(Valuation):
    def __init__(self, dimension: int, value: int):
        if value not in (0, 1):
            raise ValueError("valuation values must be 0 or 1")
        self.dimension = dimension
        self.value = value

    def evaluate(self, n) -> int:
        return self.value


def make_valuation_1d(value_of_basis: int = 1) -> Valuation:
    """The S^0 valuation: v(n) = v(-n) = value_of_basis.

    Standalone one-dimensional systems force value 1 (some observable has a
    nonzero value, so v(I) = 1); passing 0 models a one-dimensional subspace
    of a larger space, where no constraint applies.
    """
    return ConstantValuation(1, value_of_basis)


@dataclass(frozen=True)
class Generator2D:
    """A {0,1} function on [0, pi/2), stored as the sorted disjoint half-open
    intervals carrying the value 1.

    Interval lists keep 2D valuations serializable and exactly evaluable;
    arbitrary user oracles go through the generic Valuation interface
    instead.
    """

    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
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
        return ops.searchsorted(self._edges, t) % 2

    def value(self, t: float) -> int:
        return self._lookup(_One, t)

    def values(self, t: np.ndarray) -> np.ndarray:
        return self._lookup(_Many, np.asarray(t, dtype=float))

    def to_dict(self) -> dict:
        return {"intervals": [list(iv) for iv in self.intervals]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Generator2D":
        return cls(tuple((_real(a, "interval endpoint"), _real(b, "interval endpoint"))
                         for a, b in doc.get("intervals", [])))

    @classmethod
    def random(cls, rng: np.random.Generator, max_intervals: int = 4) -> "Generator2D":
        cuts = np.sort(rng.uniform(0.0, HALF_PI, size=2 * rng.integers(1, max_intervals + 1)))
        return cls(tuple(zip(cuts[0::2], cuts[1::2])))


class Valuation2D(_RuleValuation):
    """The general S^1 valuation generated by g on [0, pi/2):

        v = g on [0, pi/2),  1 - g(. - pi/2) on [pi/2, pi),
        and the same pattern repeated on [pi, 2 pi).

    This satisfies v(t) = v(t + pi) and v(t) + v(t + pi/2) = 1 exactly, and
    makes the image automatically half zeros and half ones.
    """

    dimension = 2

    def __init__(self, generator: Generator2D):
        self.generator = generator

    def _at(self, ops, theta):
        t = ops.fmod(theta, 2.0 * PI)
        t = ops.where(t < 0.0, t + 2.0 * PI, t)
        branch, rem = divmod(t, HALF_PI)
        branch = ops.minimum(branch, 3.0)
        g = self.generator._lookup(ops, ops.minimum(rem, math.nextafter(HALF_PI, 0.0)))
        return ops.where(branch % 2.0 == 0.0, g, 1 - g)

    def value_at_angle(self, theta: float) -> int:
        return self._at(_One, theta)

    def values_at_angles(self, theta: np.ndarray) -> np.ndarray:
        return self._at(_Many, np.asarray(theta, dtype=float))

    def _bits(self, ops, x, y):
        return self._at(ops, ops.map(math.atan2, y, x))


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

    dimension = 3
    pole_value = 1
    _check = staticmethod(require_unit)
    _check_rows = staticmethod(require_unit_rows)

    def __init__(self, theta_star: float, boundary_variant: str = "one_at_step"):
        _validate_step_params(theta_star, boundary_variant)
        self.theta_star = float(theta_star)
        self.boundary_variant = boundary_variant

    def profile(self, theta: float) -> int:
        return step_profile(theta, self.theta_star, self.boundary_variant)

    def _bits(self, ops, x, y, z):
        theta = ops.map(math.asin, ops.clip(z))
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

    dimension = 3

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

    dimension = 3

    def __init__(self, generator: Generator2D):
        self.generator = generator
        self._v2 = Valuation2D(generator)

    def _bits(self, ops, x, y, z):
        flip = (z < 0.0) | ((z == 0.0) & (_front_half(x, y) ^ True))
        x, y = ops.where(flip, -x, x), ops.where(flip, -y, y)
        return self._v2._bits(ops, x, y)

    def to_oracle_dict(self) -> dict:
        return {"schema": 1, "kind": "valuation2d_rotated", **self.generator.to_dict()}


def random_rotation(seed: int) -> np.ndarray:
    """A seed-determined proper rotation of R^3 (QR of a Gaussian matrix)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class RotatedValuation(Valuation):
    """base composed with a fixed rotation: v(n) = base(R @ n)."""

    def __init__(self, base: Valuation, rotation: np.ndarray, seed: int | None = None):
        rotation = np.asarray(rotation, dtype=float)
        if rotation.shape != (base.dimension, base.dimension):
            raise ValueError("rotation shape does not match oracle dimension")
        self.base = base
        self.rotation = rotation
        self.seed = seed
        self.dimension = base.dimension

    def evaluate(self, n) -> int:
        return self.base.evaluate(self.rotation @ self._check(n))

    def evaluate_many(self, points) -> np.ndarray:
        p = self._check_rows(points)
        # The stacked product rounds as ``rotation @ n`` does for each row;
        # ``p @ rotation.T`` and einsum can differ in the last bit.
        return self.base.evaluate_many((self.rotation[None] @ p[:, :, None])[:, :, 0])

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
    an orthonormal d-tuple.
    """
    d = valuation.dimension
    vecs = [np.asarray(v, dtype=float) for v in basis]
    if len(vecs) != d:
        raise NotABasis(f"expected {d} vectors, got {len(vecs)}")
    for i, v in enumerate(vecs):
        if v.shape != (d,):
            raise NotABasis(f"vector {i} has shape {v.shape}, expected ({d},)")
        if not abs(float(np.dot(v, v)) - 1.0) <= 2.0 * EPS_NORM:
            raise NotABasis(f"vector {i} is not unit")
    for i in range(d):
        for j in range(i + 1, d):
            if not abs(float(np.dot(vecs[i], vecs[j]))) <= EPS_ORTHO:
                raise NotABasis(f"vectors {i} and {j} are not orthogonal")
    return sum(_bit(valuation, v) for v in vecs)


def _complete_orthonormal(vectors: list[np.ndarray], dimension: int) -> list[np.ndarray]:
    """Deterministic Gram-Schmidt completion against the standard basis."""
    basis = [np.asarray(v, dtype=float) for v in vectors]
    extra: list[np.ndarray] = []
    for i in range(dimension):
        if len(basis) == dimension:
            break
        e = np.zeros(dimension)
        e[i] = 1.0
        r = e - sum(float(np.dot(e, b)) * b for b in basis)
        norm = float(np.linalg.norm(r))
        if norm > 1e-6:
            r = r / norm
            basis.append(r)
            extra.append(r)
    if len(basis) != dimension:
        raise AssertionError("orthonormal completion failed")
    return extra


class ReducedValuation(Valuation):
    """A d-dimensional valuation restricted to the 2-sphere orthogonal to a
    zero set, expressed in a fixed 3-frame of that orthogonal complement."""

    dimension = 3

    def __init__(self, base: Valuation, zeros: list[np.ndarray], frame: np.ndarray):
        self.base = base
        self.zeros = [np.asarray(z, dtype=float) for z in zeros]
        self.frame = np.asarray(frame, dtype=float)  # rows: 3 orthonormal d-vectors

    def embed(self, u) -> np.ndarray:
        """Map a reduced unit 3-vector back to the ambient d-space."""
        return np.asarray(u, dtype=float) @ self.frame

    def embed_basis(self, triad) -> list[np.ndarray]:
        """Ambient d-basis: the embedded triad padded with the zero set."""
        return [self.embed(u) for u in triad] + list(self.zeros)

    def evaluate(self, n) -> int:
        return self.base.evaluate(self.embed(self._check(n)))


def reduce_dimension(valuation: Valuation, zeros) -> ReducedValuation:
    """Restrict a d >= 4 valuation to the 2-sphere orthogonal to d-3
    mutually orthogonal unit vectors on which it vanishes.

    Raises ZeroSetInvalid when the zero set is the wrong size, not
    orthonormal, or contains a vector with value 1 (such a failure is itself
    progress toward the d-dimensional statement, so the caller learns it
    loudly).  A violating triad found in the reduced valuation maps back to
    a violating d-basis via ``embed_basis``.
    """
    d = valuation.dimension
    if d < 4:
        raise ZeroSetInvalid(f"reduction needs dimension >= 4, oracle claims {d}")
    zs = [np.asarray(z, dtype=float) for z in zeros]
    if len(zs) != d - 3:
        raise ZeroSetInvalid(f"need exactly {d - 3} zero vectors, got {len(zs)}")
    for i, z in enumerate(zs):
        if z.shape != (d,) or not abs(float(np.dot(z, z)) - 1.0) <= 1e-9:
            raise ZeroSetInvalid(f"zero vector {i} is not a unit {d}-vector")
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if not abs(float(np.dot(zs[i], zs[j]))) <= EPS_ORTHO:
                raise ZeroSetInvalid(f"zero vectors {i} and {j} are not orthogonal")
    for i, z in enumerate(zs):
        if _bit(valuation, z) != 0:
            raise ZeroSetInvalid(f"valuation is 1 on zero vector {i}")
    frame = np.array(_complete_orthonormal(zs, d))
    return ReducedValuation(valuation, zs, frame)


@dataclass
class ZeroSearchResult:
    """Outcome of ``find_zero_orthogonal_set``: exactly one of ``zeros`` and
    ``violating_basis`` is set, and ``basis_sum`` goes with the latter."""

    zeros: list[np.ndarray] | None
    violating_basis: list[np.ndarray] | None
    basis_sum: int | None

    @property
    def found(self) -> bool:
        return self.zeros is not None


def find_zero_orthogonal_set(valuation: Valuation) -> ZeroSearchResult:
    """d-3 mutually orthogonal unit vectors with value 0, or a basis that
    breaks the sum rule, from exactly d oracle calls.

    Evaluates the standard basis e_1 ... e_d once each.  If the bits do not
    sum to 1, that basis is the certificate.  If they do, the other d-1
    vectors are zeros, and the first d-3 of them in index order are
    returned.  Raises ``ValueError`` when d < 4 or an answer is not 0 or 1.
    """
    d = valuation.dimension
    if d < 4:
        raise ValueError("zero-set search applies to dimension >= 4 only")
    basis = list(np.eye(d))
    values = [_bit(valuation, e) for e in basis]
    if sum(values) != 1:
        return ZeroSearchResult(None, basis, sum(values))
    zeros = [e for e, val in zip(basis, values) if val == 0]
    return ZeroSearchResult(zeros[:d - 3], None, None)
