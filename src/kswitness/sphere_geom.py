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

All types are immutable values and every function is pure, so everything
here is safe to share and call across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Floating-point slack for geometry built from exact formulas.  EPS_NORM
# gates unit-norm checks and pole detection, EPS_ORTHO gates orthogonality
# checks.  Every tolerance test is written ``not err <= eps`` so that NaN
# fails it.
EPS_NORM = 1e-12
EPS_ORTHO = 1e-9

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi

Z_AXIS = np.array([0.0, 0.0, 1.0])


class DomainError(ValueError):
    """An angle lies outside the domain a formula is defined on."""


class DescentAwayFromEquator(DomainError):
    """A two-step descent was requested toward the pole; the azimuth offset
    is real only when moving toward the equator."""


class NotOrthogonal(ValueError):
    """Vectors that must be orthogonal are not, beyond tolerance."""


def wrap_longitude(phi: float) -> float:
    """Normalize an angle to [-pi, pi)."""
    phi = math.fmod(phi + math.pi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    return phi - math.pi


@dataclass(frozen=True)
class SphPoint:
    """A point on S^2: latitude theta in [-pi/2, pi/2], longitude in [-pi, pi).

    Longitude is normalized on construction and canonicalized to 0 at the
    poles so equality is well defined.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = float(self.theta), float(self.phi)
        if not abs(theta) <= HALF_PI + 1e-12:
            raise DomainError(f"latitude {theta} outside [-pi/2, pi/2]")
        if not math.isfinite(phi):
            raise DomainError(f"longitude {phi} is not finite")
        theta = max(-HALF_PI, min(HALF_PI, theta))
        phi = 0.0 if abs(theta) == HALF_PI else wrap_longitude(phi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


def to_cartesian(p: SphPoint) -> np.ndarray:
    """(cos(theta) cos(phi), cos(theta) sin(phi), sin(theta))."""
    ct = math.cos(p.theta)
    return np.array([ct * math.cos(p.phi), ct * math.sin(p.phi), math.sin(p.theta)])


def to_cartesian_grid(thetas, phis) -> np.ndarray:
    """``to_cartesian(SphPoint(theta, phi))`` for every theta in ``thetas``
    and phi in ``phis``, as an (N, 3) array, row by row.  The angles are
    normalized by SphPoint and the products are the ones to_cartesian
    takes, so every coordinate has the same bits."""
    lat = [SphPoint(theta, 0.0).theta for theta in thetas]
    lon = [SphPoint(0.0, phi).phi for phi in phis]
    pole = np.array([abs(theta) == HALF_PI for theta in lat])[:, None]
    cos_t = np.array([math.cos(theta) for theta in lat])[:, None]
    grid = np.empty((len(lat), len(lon), 3))
    grid[:, :, 0] = cos_t * np.where(pole, 1.0, [math.cos(phi) for phi in lon])
    grid[:, :, 1] = cos_t * np.where(pole, 0.0, [math.sin(phi) for phi in lon])
    grid[:, :, 2] = np.array([math.sin(theta) for theta in lat])[:, None]
    return grid.reshape(-1, 3)


def from_cartesian(v) -> SphPoint:
    """Inverse of to_cartesian, up to phi canonicalization at the poles."""
    v = require_unit(v)
    theta = math.asin(max(-1.0, min(1.0, float(v[2]))))
    phi = math.atan2(float(v[1]), float(v[0]))
    return SphPoint(theta, phi)


def require_unit(v, dimension: int = 3) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (dimension,):
        raise DomainError(f"expected a {dimension}-vector, got shape {v.shape}")
    if not abs(float(np.dot(v, v)) - 1.0) <= 2.0 * EPS_NORM:
        raise DomainError(f"vector {v} is not unit within {EPS_NORM}")
    return v


def require_unit_rows(points, dimension: int = 3) -> np.ndarray:
    """``require_unit`` for each row of an (N, dimension) array."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != dimension:
        raise DomainError(f"expected an (N, {dimension}) array of {dimension}-vectors, "
                          f"got shape {p.shape}")
    bad = ~(np.abs(np.einsum("ij,ij->i", p, p) - 1.0) <= 2.0 * EPS_NORM)
    if bad.any():
        raise DomainError(f"vector {p[bad.argmax()]} is not unit within {EPS_NORM}")
    return p


def cross(a, b) -> np.ndarray:
    """``np.cross`` of two float 3-vectors, with its bits: each component
    is one rounded product minus another, as numpy computes it, without
    the array set-up that makes a numpy call about ten times dearer."""
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def normalized(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise DomainError("cannot normalize the zero vector")
    return v / n


def perp_of_apex(p: SphPoint) -> np.ndarray:
    """Unit normal of the descent circle through p:
    p_perp = (sin(theta_p) cos(phi_p), sin(theta_p) sin(phi_p), -cos(theta_p)).
    """
    st = math.sin(p.theta)
    return np.array([st * math.cos(p.phi), st * math.sin(p.phi), -math.cos(p.theta)])


@dataclass(frozen=True)
class DescentCircle:
    """The great circle whose northernmost/southernmost point is ``apex``.

    An apex on the equator would degenerate the construction to the equator
    itself and an apex at a pole has no well-defined meridian, so both are
    rejected.
    """

    apex: SphPoint

    def __post_init__(self):
        if self.apex.theta == 0.0:
            raise DomainError("descent circle apex on the equator is degenerate")
        if abs(self.apex.theta) == HALF_PI:
            raise DomainError("descent circle apex at a pole is not allowed")


def descent_theta(circle: DescentCircle, phi: float) -> float:
    """Latitude of the descent circle at longitude phi:
    theta(phi) = arctan(tan(theta_p) cos(phi - phi_p)).
    """
    if not math.isfinite(phi):
        raise DomainError(f"longitude {phi} is not finite")
    apex = circle.apex
    return math.atan(math.tan(apex.theta) * math.cos(phi - apex.phi))


def equator_crossings(circle: DescentCircle) -> tuple[np.ndarray, np.ndarray]:
    """The two equator points of the circle, +-(-sin(phi_p), cos(phi_p), 0),
    reached at longitudes phi_p +- pi/2."""
    phi_p = circle.apex.phi
    s = np.array([-math.sin(phi_p), math.cos(phi_p), 0.0])
    return s, -s


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
    if p.theta == 0.0 or abs(p.theta) == HALF_PI:
        raise DomainError("two-step descent needs p strictly between equator and pole")
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
        err = abs(float(np.dot(to_cartesian(point), perp_of_apex(circle_apex))))
        if not err <= EPS_ORTHO:
            raise AssertionError(f"two-step membership residual {err} exceeds {EPS_ORTHO}")
    return r, q


def _rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    ax = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return c * np.eye(3) + s * ax + (1.0 - c) * np.outer(axis, axis)


def rotation_to_pole(p) -> np.ndarray:
    """Proper rotation R with R @ p = (0, 0, 1).

    The south pole maps via a fixed half-turn about the x-axis; everything
    else rotates about the axis p x z by the angle between them.
    """
    p = require_unit(p)
    z = float(p[2])
    if z >= 1.0 - EPS_NORM:
        return np.eye(3)
    if z <= -1.0 + EPS_NORM:
        return np.diag([1.0, -1.0, -1.0])
    axis = normalized(cross(p, Z_AXIS))
    return _rodrigues(axis, math.acos(max(-1.0, min(1.0, z))))


@dataclass(frozen=True, eq=False)
class Triad:
    """Three mutually orthogonal unit vectors (an orthonormal basis of R^3)."""

    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray

    def __post_init__(self):
        vs = [require_unit(v) for v in (self.n1, self.n2, self.n3)]
        for i in range(3):
            for j in range(i + 1, 3):
                d = abs(float(np.dot(vs[i], vs[j])))
                if not d <= EPS_ORTHO:
                    raise NotOrthogonal(
                        f"triad members {i} and {j} have |dot| = {d} > {EPS_ORTHO}"
                    )
        object.__setattr__(self, "n1", vs[0])
        object.__setattr__(self, "n2", vs[1])
        object.__setattr__(self, "n3", vs[2])

    @property
    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.n1, self.n2, self.n3)
