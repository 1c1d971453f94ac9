"""Great-circle geometry on the unit 2-sphere.

Coordinates follow the latitude convention: theta = +pi/2 is the north pole,
theta = 0 the equator, theta = -pi/2 the south pole, so a point is

    x = (cos(theta) cos(phi), cos(theta) sin(phi), sin(theta)).

Most geometry libraries use colatitude instead; nothing here does.

The central objects are descent circles: the great circle C(p) through p
whose northernmost (or southernmost) point is p.  C(p) is the zero set of
the unit normal p_perp, its latitude profile is
theta(phi) = arctan(tan(theta_p) cos(phi - phi_p)), and descending from p to
a target latitude on the same meridian always takes exactly two descent-arc
steps with azimuth offset arccos(sqrt(tan(theta_q)/tan(theta_p))).

A vector is a tuple of Python floats and a 3 x 3 matrix a tuple of three
row tuples; functions taking a vector also accept any sequence or array of
numbers.  Every product is plain float arithmetic summed left to right, so
results do not depend on numpy or on the BLAS it calls.  Only the batch
helpers (``to_cartesian_grid``, ``as_rows``, ``require_unit_rows``)
compute on numpy arrays, and they sum the same products on columns;
``to_cartesian_grid`` builds each coordinate column contiguous, with no
SphPoint per angle, so a grid is checked and rotated column by column
without a copy.  numpy is imported inside them, so the scalar geometry
runs without it.

All types are immutable values and every function is pure, so everything
here is safe to share and call across threads.
"""

from __future__ import annotations

import math

# Floating-point slack for geometry built from exact formulas.  EPS_NORM
# gates unit-norm checks and pole detection, EPS_ORTHO gates orthogonality
# checks.  Every tolerance test is written ``not err <= eps`` so that NaN
# fails it.
EPS_NORM = 1e-12
EPS_ORTHO = 1e-9

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi

Z_AXIS = (0.0, 0.0, 1.0)


class DomainError(ValueError):
    """An angle lies outside the domain a formula is defined on."""


class DescentAwayFromEquator(DomainError):
    """A two-step descent was requested toward the pole; the azimuth offset
    is real only when moving toward the equator."""


class NotOrthogonal(ValueError):
    """Vectors that must be orthogonal are not, beyond tolerance."""


# The value types here, in ``valuation`` and in ``witness`` are plain
# classes on these two bases, with what a dataclass would give them, so
# that no command loads ``dataclasses`` (and ``inspect``) to start.

class _Record:
    """Fields named by ``_fields``, in order: a record equals another of
    its own class with equal fields, and its repr lists them.  Unhashable,
    since its fields may be reassigned."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record whose ``__init__`` sets its attributes with
    ``object.__setattr__``, once: assigning or deleting one later raises
    AttributeError.  Hashed on its fields."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def wrap_longitude(phi: float) -> float:
    """Normalize an angle to [-pi, pi)."""
    phi = math.fmod(phi + math.pi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    return phi - math.pi


def _latitude(theta) -> float:
    """``theta`` as a float latitude, clamped to [-pi/2, pi/2]: DomainError
    beyond 1e-12 of it, NaN included.  SphPoint's rule for theta."""
    theta = float(theta)
    if not abs(theta) <= HALF_PI + 1e-12:
        raise DomainError(f"latitude {theta} outside [-pi/2, pi/2]")
    return max(-HALF_PI, min(HALF_PI, theta))


def _longitude(phi) -> float:
    """``phi`` as a float longitude, wrapped to [-pi, pi): DomainError if it
    is not finite.  SphPoint's rule for phi off the poles, where
    it sets phi to 0."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise DomainError(f"longitude {phi} is not finite")
    return wrap_longitude(phi)


class SphPoint(_Frozen):
    """A point on S^2: latitude theta in [-pi/2, pi/2], longitude in [-pi, pi).

    Longitude is normalized on construction and canonicalized to 0 at the
    poles so equality is well defined.
    """

    _fields = ("theta", "phi")

    def __init__(self, theta: float, phi: float):
        theta, phi = float(theta), float(phi)  # both converted before either is checked
        theta, phi = _latitude(theta), _longitude(phi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", 0.0 if abs(theta) == HALF_PI else phi)


def to_cartesian(p: SphPoint) -> tuple[float, float, float]:
    """(cos(theta) cos(phi), cos(theta) sin(phi), sin(theta))."""
    ct = math.cos(p.theta)
    return (ct * math.cos(p.phi), ct * math.sin(p.phi), math.sin(p.theta))


def to_cartesian_grid(thetas, phis):
    """``to_cartesian(SphPoint(theta, phi))`` for every theta in ``thetas``
    and phi in ``phis``, as an (N, 3) array, row by row, whose columns are
    each contiguous.  The angles are normalized by SphPoint's rules, and
    the products are the ones to_cartesian takes, so every coordinate has
    the same bits."""
    import numpy as np

    lat = [_latitude(theta) for theta in thetas]
    lon = [_longitude(phi) for phi in phis]
    pole = np.array([abs(theta) == HALF_PI for theta in lat])[:, None]
    cos_t = np.array([math.cos(theta) for theta in lat])[:, None]
    grid = np.empty((3, len(lat), len(lon)))
    grid[0] = cos_t * np.where(pole, 1.0, [math.cos(phi) for phi in lon])
    grid[1] = cos_t * np.where(pole, 0.0, [math.sin(phi) for phi in lon])
    grid[2] = np.array([math.sin(theta) for theta in lat])[:, None]
    return grid.reshape(3, -1).T


def from_cartesian(v) -> SphPoint:
    """Inverse of to_cartesian, up to phi canonicalization at the poles."""
    x, y, z = require_unit(v)
    return SphPoint(math.asin(max(-1.0, min(1.0, z))), math.atan2(y, x))


def as_vector(v, dimension: int = 3) -> tuple[float, ...]:
    """``v`` as a tuple of ``dimension`` Python floats.  Raises DomainError
    on anything else: a scalar, a nested sequence, another length."""
    if hasattr(v, "tolist"):
        v = v.tolist()  # nested lists for ndim > 1, which float() rejects
    try:
        v = tuple(map(float, v))
    except (TypeError, ValueError):
        raise DomainError(f"expected a {dimension}-vector, got {v!r}") from None
    if len(v) != dimension:
        raise DomainError(f"expected a {dimension}-vector, got {len(v)} coordinates")
    return v


def _square_norm(v) -> float:
    """Sum of the squared coordinates, left to right; given the columns of
    an array, the squared norms of its rows, with the same bits.  (``sum``
    is compensated from Python 3.12 on, so it would not give these bits.)
    The bits of ``dot(v, v)``, kept apart because every oracle call makes
    this check and a loop over one sequence is faster than a zip of two."""
    sq = 0.0
    for c in v:
        sq += c * c
    return sq


def require_unit(v, dimension: int = 3) -> tuple[float, ...]:
    """``as_vector(v, dimension)``, if its squared norm is within
    ``2 * EPS_NORM`` of 1; DomainError otherwise, NaN included."""
    v = as_vector(v, dimension)
    if not abs(_square_norm(v) - 1.0) <= 2.0 * EPS_NORM:
        raise DomainError(f"vector {list(v)} is not unit within {EPS_NORM}")
    return v


def as_rows(points, dimension: int = 3):
    """``points`` as an (N, dimension) float array, ``as_vector`` for a
    batch: DomainError on any other shape."""
    import numpy as np

    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != dimension:
        raise DomainError(f"expected an (N, {dimension}) array of {dimension}-vectors, "
                          f"got shape {p.shape}")
    return p


def require_unit_rows(points, dimension: int = 3):
    """``require_unit`` for each row of an (N, dimension) array."""
    import numpy as np

    p = as_rows(points, dimension)
    sq = _square_norm(p.T)  # the columns' squares summed as a point's are
    bad = ~(np.abs(sq - 1.0) <= 2.0 * EPS_NORM)
    if bad.any():
        raise DomainError(f"vector {p[bad.argmax()]} is not unit within {EPS_NORM}")
    return p


def require_orthonormal(vectors, dimension: int = 3) -> list[tuple[float, ...]]:
    """``require_unit(v, dimension)`` for each of ``vectors``, if every pair
    has ``|dot| <= EPS_ORTHO``.  Raises DomainError on a vector that is not
    unit and NotOrthogonal on a pair that is not orthogonal, NaN included.
    The one orthonormality check behind Triad, ``check_basis``, dimension
    reduction and the witness web."""
    vs = [require_unit(v, dimension) for v in vectors]
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            d = abs(dot(vs[i], vs[j]))
            if not d <= EPS_ORTHO:
                raise NotOrthogonal(f"vectors {i} and {j} have |dot| = {d} > {EPS_ORTHO}")
    return vs


def dot(a, b) -> float:
    """The dot product of two float vectors of one length, summed left to
    right as ``_square_norm`` sums."""
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def rotate(rows, v) -> tuple[float, float, float]:
    """``rows @ v`` for a 3 x 3 matrix given as three row tuples and ``v`` a
    3-vector or three coordinate columns: each component is ``dot(row, v)``."""
    x, y, z = v
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return (a0 * x + a1 * y + a2 * z, b0 * x + b1 * y + b2 * z, c0 * x + c1 * y + c2 * z)


def cross(a, b) -> tuple[float, float, float]:
    """The cross product of two 3-vectors, with ``np.cross``'s bits: each
    component is one rounded product minus another."""
    a0, a1, a2 = as_vector(a)
    b0, b1, b2 = as_vector(b)
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def normalized(v) -> tuple[float, float, float]:
    """The 3-vector ``v`` divided by its norm."""
    v = as_vector(v)
    n = math.sqrt(_square_norm(v))
    if n == 0.0:
        raise DomainError("cannot normalize the zero vector")
    return (v[0] / n, v[1] / n, v[2] / n)


def perp_of_apex(p: SphPoint) -> tuple[float, float, float]:
    """Unit normal of the descent circle through p:
    p_perp = (sin(theta_p) cos(phi_p), sin(theta_p) sin(phi_p), -cos(theta_p)).
    """
    st = math.sin(p.theta)
    return (st * math.cos(p.phi), st * math.sin(p.phi), -math.cos(p.theta))


class DescentCircle(_Frozen):
    """The great circle whose northernmost/southernmost point is ``apex``.

    An apex on the equator would degenerate the construction to the equator
    itself and an apex at a pole has no well-defined meridian, so both are
    rejected.
    """

    _fields = ("apex",)

    def __init__(self, apex: SphPoint):
        if apex.theta == 0.0:
            raise DomainError("descent circle apex on the equator is degenerate")
        if abs(apex.theta) == HALF_PI:
            raise DomainError("descent circle apex at a pole is not allowed")
        object.__setattr__(self, "apex", apex)


def descent_theta(circle: DescentCircle, phi: float) -> float:
    """Latitude of the descent circle at longitude phi:
    theta(phi) = arctan(tan(theta_p) cos(phi - phi_p)).
    """
    if not math.isfinite(phi):
        raise DomainError(f"longitude {phi} is not finite")
    apex = circle.apex
    return math.atan(math.tan(apex.theta) * math.cos(phi - apex.phi))


def equator_crossings(circle: DescentCircle) -> tuple[tuple, tuple]:
    """The two equator points of the circle, +-(-sin(phi_p), cos(phi_p), 0),
    reached at longitudes phi_p +- pi/2."""
    phi_p = circle.apex.phi
    s, c = math.sin(phi_p), math.cos(phi_p)
    return (-s, c, 0.0), (s, -c, -0.0)


def two_step_delta_phi(theta_p: float, theta_q: float) -> float:
    """Azimuth offset per step of a two-step descent from latitude theta_p to
    theta_q on the same meridian: arccos(sqrt(tan(theta_q)/tan(theta_p))).

    Both latitudes must lie strictly between 0 and pi/2 (callers mirror for
    the southern hemisphere).  Moving away from the equator has no real
    solution and raises DescentAwayFromEquator.
    """
    for name, val in (("theta_p", theta_p), ("theta_q", theta_q)):
        if not 0.0 < val < HALF_PI:
            raise DomainError(f"{name}={val} must be strictly inside (0, pi/2)")
    if theta_q > theta_p:
        raise DescentAwayFromEquator(
            f"cannot descend from latitude {theta_p} up to {theta_q}"
        )
    ratio = math.tan(theta_q) / math.tan(theta_p)
    return math.acos(math.sqrt(min(1.0, ratio)))


def two_step_chain(p: SphPoint, theta_q: float) -> tuple[SphPoint, SphPoint]:
    """The intermediate and final points (r, q) of the two-step descent.

    r sits on C(p) at longitude phi_p + delta_phi, q = (theta_q, phi_p) sits
    on C(r); both memberships are checked before returning.  theta_q must
    share p's hemisphere and satisfy 0 < |theta_q| <= |theta_p| (equality
    gives the degenerate chain r = q = p).
    """
    DescentCircle(p)  # DomainError unless p is strictly between equator and pole
    if theta_q == 0.0 or theta_q * p.theta < 0.0:
        raise DomainError(
            f"target latitude {theta_q} must be nonzero in p's hemisphere"
        )
    sign = 1.0 if p.theta > 0 else -1.0
    delta = two_step_delta_phi(abs(p.theta), abs(theta_q))
    theta_r = sign * math.atan(math.tan(abs(p.theta)) * math.cos(delta))
    r = SphPoint(theta_r, p.phi + delta)
    q = SphPoint(theta_q, p.phi)
    for point, circle_apex in ((r, p), (q, r)):
        err = abs(dot(to_cartesian(point), perp_of_apex(circle_apex)))
        if not err <= EPS_ORTHO:
            raise AssertionError(f"two-step membership residual {err} exceeds {EPS_ORTHO}")
    return r, q


def _rodrigues(axis, angle: float) -> tuple:
    """cos(angle) I + sin(angle) [axis]_x + (1 - cos(angle)) axis axis^T."""
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    x, y, z = axis
    return ((c + t * (x * x), t * (x * y) - s * z, t * (x * z) + s * y),
            (t * (y * x) + s * z, c + t * (y * y), t * (y * z) - s * x),
            (t * (z * x) - s * y, t * (z * y) + s * x, c + t * (z * z)))


IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def rotation_to_pole(p) -> tuple:
    """Proper rotation R, as three row tuples, with R @ p = (0, 0, 1).

    The south pole maps via a fixed half-turn about the x-axis; everything
    else rotates about the axis p x z by the angle between them.
    """
    p = require_unit(p)
    z = p[2]
    if z >= 1.0 - EPS_NORM:
        return IDENTITY
    if z <= -1.0 + EPS_NORM:
        return ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))
    axis = normalized(cross(p, Z_AXIS))
    return _rodrigues(axis, math.acos(max(-1.0, min(1.0, z))))


class Triad(_Frozen):
    """Three mutually orthogonal unit vectors (an orthonormal basis of R^3),
    equal only to itself."""

    _fields = ("n1", "n2", "n3")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n1, n2, n3):
        for name, v in zip(self._fields, require_orthonormal((n1, n2, n3))):
            object.__setattr__(self, name, v)

    @property
    def vectors(self) -> tuple[tuple, tuple, tuple]:
        return (self.n1, self.n2, self.n3)
