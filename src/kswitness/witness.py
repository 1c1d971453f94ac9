"""Certificate extraction for candidate 3D valuations.

No valuation on S^2 can be antipodally symmetric and sum to 1 over every
orthonormal triad.  Given any oracle claiming otherwise, ``extract_witness``
walks the geometric argument behind that fact and returns a finite
certificate: a concrete triad whose evaluated sum differs from 1, or an
antipodal pair with unequal values.  Certificates are re-evaluated with
fresh oracle calls before being returned, so a report can be trusted without
trusting the search.

The extractor is one search and one re-check; the search follows the proof
skeleton:

1.  read one orthonormal basis, in a frame chosen by ``rng_seed``: if its
    values do not sum to 1 it is the certificate, and if they do it names a
    point with value 1;
2.  rotate that point to the north pole;
3.  probe the equator at longitude 0, where the value must now be 0;
4.  bisect the prime meridian for the 1 -> 0 transition, a fixed number
    of halvings that leave the standardized anchor above the apex guard;
5.  rotate the transition to the pole, standardizing the meridian; the
    measured zero then always lands on the same anchor;
6.  evaluate the competing-meridian web: a fixed finite family of triads,
    a pure function of the standardized anchor, built from two-step
    descents off the prime meridian and the descent circles of a second
    meridian, whose constraints force one chosen point to be 0 and its
    antipode to be 1.  Evaluating the whole web therefore must expose
    either a violating triad or an antipodal violation.

A run asks at most 34 distinct points: 3 + 1 + 4 before phase 5 and the
web's 26 other than the anchor.  The outcome is "not_found", with
``stats["phase_reached"]`` saying why, when the oracle-call budget runs out
("budget_exhausted"), when pole and anchor no longer read 1 and 0
("standardize:anchor_drift"), or when the re-check disagrees
("<phase>:recheck_failed", the phase being "pole_basis", "equator_probe" or
"competing_meridian").
"""

from __future__ import annotations

import math

from .sphere_geom import (
    HALF_PI,
    IDENTITY,
    Z_AXIS,
    DescentCircle,
    SphPoint,
    Triad,
    _Frozen,
    _Record,
    cross,
    equator_crossings,
    from_cartesian,
    normalized,
    perp_of_apex,
    rotate,
    rotation_to_pole,
    to_cartesian,
    two_step_chain,
)
from .valuation import Valuation, _bit, random_rotation

# Geometry of the competing-meridian web, relative to the standardized frame:
# the second meridian, and the disputed point x in the overlap of the two
# descent sweeps (its latitude/longitude).  The derived apex latitudes all
# stay below _APEX_GUARD, which the standardization anchor must exceed.
_PHI_STAR = math.pi / 4.0
_THETA_X = math.pi / 8.0
_PHI_X = 5.0 * math.pi / 8.0
_APEX_GUARD = 1.45

# The fewest halvings of [0, pi/2] whose final gap puts the standardized
# anchor above _APEX_GUARD: 4, leaving a gap of pi/32.  Each halving halves
# the gap whatever it reads, so the anchor is the same point on every run.
_BISECTION_STEPS = math.floor(math.log2(HALF_PI / (HALF_PI - _APEX_GUARD))) + 1
_ANCHOR = SphPoint(HALF_PI - HALF_PI / 2 ** _BISECTION_STEPS, 0.0)


class WitnessConfig(_Frozen):
    """Budgets and determinism knobs for the extractor.

    ``max_descent_probes`` caps the oracle calls of the search, which
    ``stats["oracle_calls"]`` counts; the re-check of a certificate makes its
    fresh calls (3 for a basis, 2 for an antipodal pair) on top.
    ``rng_seed`` chooses the frame of the first basis read.
    """

    _fields = ("max_descent_probes", "rng_seed")

    def __init__(self, max_descent_probes: int = 10_000, rng_seed: int = 0):
        if max_descent_probes < 1:
            raise ValueError("max_descent_probes must be at least 1")
        if rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        object.__setattr__(self, "max_descent_probes", max_descent_probes)
        object.__setattr__(self, "rng_seed", rng_seed)

    def to_json_dict(self) -> dict:
        return {
            "max_descent_probes": self.max_descent_probes,
            "rng_seed": self.rng_seed,
        }


class WitnessReport(_Record):
    """A certificate (or a bounded-search failure) plus the replayable trace.

    outcome is one of "violating_basis" (``triad`` re-evaluates to
    ``triad_sum`` != 1), "antipodal_violation" (``antipodal_point`` and its
    negation re-evaluate to ``antipodal_values``), or "not_found".  Each
    report gets a new ``stats`` dict and ``trace`` list unless given one.
    """

    _fields = ("outcome", "triad", "triad_sum", "antipodal_point", "antipodal_values",
               "stats", "trace", "config")

    def __init__(self, outcome: str, triad: Triad | None = None, triad_sum: int | None = None,
                 antipodal_point: tuple[float, float, float] | None = None,
                 antipodal_values: tuple[int, int] | None = None, stats: dict | None = None,
                 trace: list | None = None, config: WitnessConfig | None = None):
        self.outcome = outcome
        self.triad = triad
        self.triad_sum = triad_sum
        self.antipodal_point = antipodal_point
        self.antipodal_values = antipodal_values
        self.stats = {} if stats is None else stats
        self.trace = [] if trace is None else trace
        self.config = config

    @property
    def found(self) -> bool:
        return self.outcome != "not_found"

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "outcome": self.outcome,
            "triad": None if self.triad is None else [list(v) for v in self.triad.vectors],
            "triad_sum": self.triad_sum,
            "antipodal_point": None if self.antipodal_point is None
            else list(self.antipodal_point),
            "antipodal_values": None if self.antipodal_values is None
            else list(self.antipodal_values),
            "stats": self.stats,
            "trace": self.trace,
            "config": None if self.config is None else self.config.to_json_dict(),
        }


class _NotFound(Exception):
    """The search stopped without a certificate; ``args[0]`` names the phase."""


class _Session:
    """Memoizing, budgeted front end to the oracle, keyed on the original
    (unrotated) coordinates so frame changes never re-ask known points."""

    def __init__(self, valuation: Valuation, budget: int):
        self.valuation = valuation
        self.budget = budget
        self.calls = 0
        self.hits = 0
        self.cache: dict[tuple, int] = {}

    def value(self, point_orig: tuple) -> int:
        # Each coordinate rounded to 12 decimals with np.round's bits, the
        # sign of a zero included: rint(c * 1e12) / 1e12.
        key = tuple([math.copysign(round(c * 1e12), c) / 1e12 for c in point_orig])
        hit = self.cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        if self.calls >= self.budget:
            raise _NotFound("budget_exhausted")
        self.calls += 1
        val = _bit(self.valuation, point_orig)
        self.cache[key] = val
        return val


# --- the extractor ----------------------------------------------------------

def extract_witness(valuation: Valuation, config: WitnessConfig | None = None) -> WitnessReport:
    """Run the full extraction pipeline against a 3D valuation oracle.

    Returns a WitnessReport whose certificate, if any, has been re-verified
    with fresh oracle calls (soundness over completeness: a bounded-search
    NotFound is possible under tiny budgets, a false certificate is not).
    Identical (oracle, config) pairs produce identical reports.
    """
    if valuation.dimension != 3:
        raise ValueError(f"witness extraction needs a 3D oracle, got d={valuation.dimension}")
    cfg = config or WitnessConfig()
    session = _Session(valuation, cfg.max_descent_probes)
    report = WitnessReport("not_found", config=cfg)
    try:
        outcome, phase, found = _search(session, cfg, report.trace)
    except _NotFound as stop:
        outcome, phase = "not_found", stop.args[0]

    # Re-check with fresh calls: a flaky transcript certifies nothing.
    if outcome == "violating_basis":
        triad = Triad(*found)
        fresh = [_bit(valuation, v) for v in triad.vectors]
        report.trace.append({"step": "final_triad", "points": [list(v) for v in triad.vectors],
                             "values": fresh, "sum": sum(fresh)})
        if sum(fresh) != 1:
            report.outcome, report.triad, report.triad_sum = outcome, triad, sum(fresh)
    elif outcome == "antipodal_violation":
        fresh = [_bit(valuation, found), _bit(valuation, _antipode(found))]
        report.trace.append({"step": "antipodal_pair", "point": list(found), "values": fresh})
        if fresh[0] != fresh[1]:
            report.outcome, report.antipodal_point = outcome, found
            report.antipodal_values = tuple(fresh)
    if outcome != report.outcome:
        phase += ":recheck_failed"
    report.stats = {"oracle_calls": session.calls, "cache_hits": session.hits,
                    "phase_reached": phase}
    return report


def _antipode(v: tuple) -> tuple:
    return (-v[0], -v[1], -v[2])


def _equator_one_triad(e: tuple) -> tuple:
    """(pole, e, pole x e): a violating triad once the pole and e both read 1."""
    return Z_AXIS, e, normalized(cross(Z_AXIS, e))


def _search(session: _Session, cfg: WitnessConfig, trace: list) -> tuple[str, str, object]:
    """Phases 1-6.  Returns the certificate's outcome, the phase that found
    it, and the certificate in the original frame: the triad's three vectors
    or the antipodal point.  Every early stop raises ``_NotFound``."""
    back = IDENTITY  # rows of R^T, for the rotation R from the original frame

    def to_orig(vec_work: tuple) -> tuple:
        return rotate(back, vec_work)

    def w(vec_work: tuple) -> int:
        return session.value(to_orig(vec_work))

    def violating(members_work, phase: str) -> tuple[str, str, list]:
        return "violating_basis", phase, [normalized(to_orig(v)) for v in members_work]

    # Phase 1: one basis either breaks the sum rule or names a 1.
    basis = list(zip(*random_rotation(cfg.rng_seed)))
    vals = [session.value(v) for v in basis]
    trace.append({"step": "pole_basis", "points": [list(v) for v in basis], "values": vals})
    if sum(vals) != 1:
        return violating(basis, "pole_basis")
    one_point = basis[vals.index(1)]

    # Phase 2: move the 1 to the north pole.
    back = tuple(zip(*rotation_to_pole(one_point)))
    trace.append({"step": "rotate_to_pole", "pole_preimage": list(one_point)})

    # Phase 3: the equator must now read 0; phi = 0 is the bisection's zero end.
    e = (1.0, 0.0, 0.0)
    if w(e) == 1:
        trace.append({"step": "equator_probe", "longitudes": 1, "ones": 1})
        return violating(_equator_one_triad(e), "equator_probe")
    trace.append({"step": "equator_probe", "longitudes": 1, "ones": 0})

    # Phase 4: bisect the prime meridian for the 1 -> 0 transition.
    # The pole carries 1 and the equator point at phi = 0 carried 0.
    theta_one, theta_zero = HALF_PI, 0.0
    bisection_evals = []
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (theta_one + theta_zero)
        point = to_cartesian(SphPoint(mid, 0.0))
        val = w(point)
        bisection_evals.append({"point": list(to_orig(point)), "value": val})
        if val == 1:
            theta_one = mid
        else:
            theta_zero = mid
    trace.append({"step": "meridian_classification", "theta_one": theta_one,
                  "theta_zero": theta_zero, "evaluations": bisection_evals})

    # Phase 5: standardize; the transition point becomes the pole and the
    # measured zero, the final gap below it on the prime meridian, _ANCHOR.
    # Both were asked already; re-reading them checks the new frame.
    # R becomes P @ R, so R^T becomes R^T @ P^T, whose row i is P @ (row i).
    pole = rotation_to_pole(to_cartesian(SphPoint(theta_one, 0.0)))
    back = tuple(rotate(pole, row) for row in back)
    if w(Z_AXIS) != 1 or w(_ANCHOR_VEC) != 0:
        raise _NotFound("standardize:anchor_drift")

    # Phase 6: if the web's equator points read 0 and each triad sums to 1,
    # then x reads 0 and -x reads 1, so one pass must end in a certificate.
    triads, equator_points, x_vec = _WEB
    for e in equator_points:
        if w(e) == 1:
            trace.append({"step": "competing_meridian", "result": "equator_one"})
            return violating(_equator_one_triad(e), "competing_meridian")
    evaluations = []
    offender = None
    for label, members in triads:
        values = [w(v) for v in members]
        evaluations.append({"label": label, "points": [list(to_orig(v)) for v in members],
                            "values": values, "sum": sum(values)})
        if sum(values) != 1 and offender is None:
            offender = members
    trace.append({"step": "competing_meridian", "phi_star": _PHI_STAR,
                  "disputed_point": list(to_orig(x_vec)), "triads": evaluations})
    if offender is not None:
        return violating(offender, "competing_meridian")
    if w(x_vec) == w(_antipode(x_vec)):
        raise AssertionError("web arithmetic violated by a deterministic oracle")
    return "antipodal_violation", "competing_meridian", to_orig(x_vec)


def _competing_meridian_web(anchor_vec: tuple) -> tuple[tuple, tuple, tuple]:
    """The finite web of triads that pits the prime meridian's descent sweep
    against a second meridian's, in the standardized frame whose pole is 1
    and whose ``anchor_vec`` just below it on the prime meridian is 0.

    Returns the labelled triads, the web's equator points and the disputed
    point x.  With the anchor and the equator points at 0, "exactly one 1
    per triad" forces x to 0 and -x to 1.  Calls no oracle.  Its points
    are tuples, so runs can share one web.
    """
    anchor = from_cartesian(anchor_vec)
    phi0 = anchor.phi

    def point(lat: float, rel_phi: float) -> tuple:
        return to_cartesian(SphPoint(lat, phi0 + rel_phi))

    # Apex latitudes: x's apex on the second meridian, that apex's own apex
    # on the prime meridian, and the apex over the antipodal chain's target.
    th_pb = math.atan(math.tan(_THETA_X) / math.cos(_PHI_X - _PHI_STAR))
    th_pa = math.atan(math.tan(th_pb) / math.cos(_PHI_STAR))
    y_phi = _PHI_X - math.pi
    yp_lat = -_THETA_X + HALF_PI
    th_pc = math.atan(math.tan(yp_lat) / math.cos(y_phi))

    triads: list[tuple[str, tuple[tuple, tuple, tuple]]] = []
    equator_points: list[tuple] = []

    def circle(apex: SphPoint, apex_vec: tuple, label: str) -> tuple:
        """Descent circle of a zero apex: the triad (apex, equator crossing,
        normal).  Returns the normal."""
        perp = perp_of_apex(apex)
        crossing = equator_crossings(DescentCircle(apex))[0]
        equator_points.append(crossing)
        triads.append((f"{label}_circle", (apex_vec, crossing, perp)))
        return perp

    def cover(perp: tuple, target: tuple, label: str) -> None:
        """The triad through target on the circle with normal perp."""
        triads.append((label, (target, normalized(cross(perp, target)), perp)))

    def descend_to(target_lat: float, label: str) -> SphPoint:
        """Two-step descent from the anchor to the prime-meridian point at
        target_lat, emitting the triads that force its value to 0."""
        r, q = two_step_chain(anchor, target_lat)
        r_vec = to_cartesian(r)
        cover(p_perp, r_vec, f"{label}_step1")
        cover(circle(r, r_vec, f"{label}_mid"), to_cartesian(q), f"{label}_step2")
        return q

    p_perp = circle(anchor, anchor_vec, "anchor")

    # Chain B: force the disputed point x to 0 through the second meridian.
    x_vec = point(_THETA_X, _PHI_X)
    pa = descend_to(th_pa, "prime_a")
    pb = SphPoint(th_pb, phi0 + _PHI_STAR)
    pb_vec = to_cartesian(pb)
    cover(circle(pa, to_cartesian(pa), "prime_to_second"), pb_vec, "prime_to_second_covers")
    cover(circle(pb, pb_vec, "second"), x_vec, "second_covers_x")

    # Chain A: force the antipode of x to 1 via its meridian dyad.
    yp_vec = point(yp_lat, y_phi)
    pc = descend_to(th_pc, "prime_c")
    cover(circle(pc, to_cartesian(pc), "prime_to_dyad"), yp_vec, "prime_to_dyad_covers")
    m_y = point(0.0, y_phi + HALF_PI)
    equator_points.append(m_y)
    triads.append(("meridian_dyad", (_antipode(x_vec), yp_vec, m_y)))

    # Memberships are analytic identities; fail loudly if the assembly is off.
    for _, members in triads:
        Triad(*members)
    return tuple(triads), tuple(equator_points), x_vec


# Phase 5 leaves the anchor at _ANCHOR on every run, so the web is built once.
_ANCHOR_VEC = to_cartesian(_ANCHOR)
_WEB = _competing_meridian_web(_ANCHOR_VEC)
