"""Certificate extraction for candidate 3D valuations.

No valuation on S^2 can be antipodally symmetric and sum to 1 over every
orthonormal triad.  Given any oracle claiming otherwise, ``extract_witness``
walks the geometric argument behind that fact and returns a finite
certificate: a concrete triad whose evaluated sum differs from 1, or an
antipodal pair with unequal values.  Certificates are re-evaluated with
fresh oracle calls before being returned, so a report can be trusted without
trusting the search.

The search itself follows the proof skeleton:

1.  read one orthonormal basis, in a frame chosen by ``rng_seed``: if its
    values do not sum to 1 it is the certificate, and if they do it names a
    point with value 1;
2.  rotate that point to the north pole;
3.  probe the equator, where every value must now be 0;
4.  bisect the prime meridian for the 1 -> 0 transition latitude;
5.  rotate the transition to the pole, standardizing the meridian;
6.  assemble the competing-meridian descent web: a fixed finite family of
    triads, built from two-step descents off the prime meridian and the
    descent circles of a second meridian, whose constraints force one
    chosen point to be 0 and its antipode to be 1.  Evaluating the whole
    web therefore must expose either a violating triad or an antipodal
    violation.

Budgets bound every loop.  With the default budgets the web is always
reached and a certificate always follows; NotFound arises only when the
oracle-call budget is exhausted first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sphere_geom import (
    EPS_ORTHO,
    HALF_PI,
    Z_AXIS,
    DescentCircle,
    SphPoint,
    Triad,
    cross,
    equator_crossings,
    from_cartesian,
    normalized,
    perp_of_apex,
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


@dataclass(frozen=True)
class WitnessConfig:
    """Budgets and determinism knobs for the extractor.

    ``max_descent_probes`` caps total oracle calls for the whole run;
    ``rng_seed`` chooses the frame of the first basis read; the equator is
    probed at ``meridian_samples`` longitudes; the meridian transition is
    located to within ``theta_resolution`` radians.
    """

    meridian_samples: int = 64
    max_descent_probes: int = 10_000
    rng_seed: int = 0
    theta_resolution: float = 1e-6

    def __post_init__(self):
        for name in ("meridian_samples", "max_descent_probes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if not 0.0 < self.theta_resolution < HALF_PI:
            raise ValueError("theta_resolution must be in (0, pi/2)")

    def to_json_dict(self) -> dict:
        return {
            "meridian_samples": self.meridian_samples,
            "max_descent_probes": self.max_descent_probes,
            "rng_seed": self.rng_seed,
            "theta_resolution": self.theta_resolution,
        }


@dataclass
class WitnessReport:
    """A certificate (or a bounded-search failure) plus the replayable trace.

    outcome is one of "violating_basis" (``triad`` re-evaluates to
    ``triad_sum`` != 1), "antipodal_violation" (``antipodal_point`` and its
    negation re-evaluate to ``antipodal_values``), or "not_found".
    """

    outcome: str
    triad: Triad | None = None
    triad_sum: int | None = None
    antipodal_point: np.ndarray | None = None
    antipodal_values: tuple[int, int] | None = None
    stats: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)
    config: WitnessConfig | None = None

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


class _BudgetExhausted(Exception):
    pass


class _Session:
    """Memoizing, budgeted front end to the oracle, keyed on the original
    (unrotated) coordinates so frame changes never re-ask known points."""

    def __init__(self, valuation: Valuation, budget: int):
        self.valuation = valuation
        self.budget = budget
        self.calls = 0
        self.cache: dict[tuple, int] = {}

    def value(self, point_orig: np.ndarray) -> int:
        key = tuple(np.round(point_orig, 12))
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if self.calls >= self.budget:
            raise _BudgetExhausted
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
    trace: list = []
    rotation = np.eye(3)

    def work_to_orig(vec: np.ndarray) -> np.ndarray:
        return rotation.T @ vec

    def w(vec_work: np.ndarray) -> int:
        return session.value(work_to_orig(vec_work))

    def stats(phase: str) -> dict:
        return {
            "oracle_calls": session.calls,
            "distinct_points": len(session.cache),
            "phase_reached": phase,
        }

    def finish_violating(members_work, phase: str) -> WitnessReport:
        vecs = [normalized(work_to_orig(np.asarray(v, dtype=float))) for v in members_work]
        triad = Triad(*vecs)
        fresh = [_bit(valuation, v) for v in triad.vectors]
        total = sum(fresh)
        trace.append({
            "step": "final_triad",
            "points": [list(v) for v in triad.vectors],
            "values": fresh,
            "sum": total,
        })
        if total == 1:
            # The oracle answered differently on re-evaluation; refuse to
            # certify from a flaky transcript.
            return WitnessReport("not_found", stats=stats(phase + ":recheck_failed"),
                                 trace=trace, config=cfg)
        return WitnessReport("violating_basis", triad=triad, triad_sum=total,
                             stats=stats(phase), trace=trace, config=cfg)

    def finish_antipodal(point_orig: np.ndarray, phase: str) -> WitnessReport:
        v_plus = _bit(valuation, point_orig)
        v_minus = _bit(valuation, -point_orig)
        trace.append({
            "step": "antipodal_pair",
            "point": list(point_orig),
            "values": [v_plus, v_minus],
        })
        if v_plus == v_minus:
            return WitnessReport("not_found", stats=stats(phase + ":recheck_failed"),
                                 trace=trace, config=cfg)
        return WitnessReport("antipodal_violation", antipodal_point=np.asarray(point_orig),
                             antipodal_values=(v_plus, v_minus),
                             stats=stats(phase), trace=trace, config=cfg)

    try:
        # Phase 1: one basis either breaks the sum rule or names a 1.
        basis = list(random_rotation(cfg.rng_seed).T)
        vals = [session.value(v) for v in basis]
        trace.append({"step": "pole_basis", "points": [list(v) for v in basis],
                      "values": vals})
        if sum(vals) != 1:
            return finish_violating(basis, "pole_basis")
        one_point = basis[vals.index(1)]

        # Phase 2: move the 1 to the north pole.
        rotation = rotation_to_pole(one_point)
        trace.append({"step": "rotate_to_pole", "pole_preimage": list(one_point)})

        # Phase 3: the equator must now be identically zero.
        for j in range(cfg.meridian_samples):
            phi = 2.0 * math.pi * j / cfg.meridian_samples
            e = np.array([math.cos(phi), math.sin(phi), 0.0])
            if w(e) == 1:
                trace.append({"step": "equator_probe", "longitudes": j + 1, "ones": 1})
                return finish_violating([Z_AXIS, e, normalized(cross(Z_AXIS, e))],
                                        "equator_probe")
        trace.append({"step": "equator_probe", "longitudes": cfg.meridian_samples, "ones": 0})

        # Phase 4: bisect the prime meridian for the 1 -> 0 transition.
        # The pole carries 1 and the equator point at phi = 0 carried 0.
        theta_one, theta_zero = HALF_PI, 0.0
        bisection_evals = []
        while theta_one - theta_zero > cfg.theta_resolution:
            mid = 0.5 * (theta_one + theta_zero)
            point = to_cartesian(SphPoint(mid, 0.0))
            val = w(point)
            bisection_evals.append({"point": list(work_to_orig(point)), "value": val})
            if val == 1:
                theta_one = mid
            else:
                theta_zero = mid
        trace.append({"step": "meridian_classification", "theta_one": theta_one,
                      "theta_zero": theta_zero, "evaluations": bisection_evals})

        # Phase 5: standardize; the transition point becomes the pole and the
        # measured zero sits immediately below it on the prime meridian.
        old_zero = to_cartesian(SphPoint(theta_zero, 0.0))
        second = rotation_to_pole(to_cartesian(SphPoint(theta_one, 0.0)))
        rotation = second @ rotation
        anchor_vec = normalized(second @ old_zero)
        anchor = from_cartesian(anchor_vec)
        trace.append({"step": "standardize", "anchor_theta": anchor.theta,
                      "anchor_phi": anchor.phi})
        if anchor.theta <= _APEX_GUARD:
            return WitnessReport("not_found", stats=stats("standardize:resolution"),
                                 trace=trace, config=cfg)
        if w(Z_AXIS) != 1 or w(anchor_vec) != 0:
            return WitnessReport("not_found", stats=stats("standardize:anchor_drift"),
                                 trace=trace, config=cfg)

        # Phase 6: the competing-meridian web.
        return _competing_meridian_web(w, work_to_orig, anchor, anchor_vec, trace,
                                       finish_violating, finish_antipodal)
    except _BudgetExhausted:
        return WitnessReport("not_found", stats=stats("budget_exhausted"),
                             trace=trace, config=cfg)


def _competing_meridian_web(w, work_to_orig, anchor: SphPoint,
                            anchor_vec: np.ndarray, trace, finish_violating,
                            finish_antipodal) -> WitnessReport:
    """Assemble and evaluate the finite web of triads that pits the prime
    meridian's descent sweep against a second meridian's.

    Writing m(.) for measured oracle bits, the web's triads chain as
    modus ponens over the sum rule: if every triad sums to 1 (and the web's
    equator points are all 0, the anchors being already measured), then
    m(x) = 0 and m(-x) = 1 for the disputed point x.  A single evaluation
    pass therefore must end in a violating triad or an antipodal violation.
    """
    phi0 = anchor.phi

    def point(lat: float, rel_phi: float) -> np.ndarray:
        return to_cartesian(SphPoint(lat, phi0 + rel_phi))

    # Apex latitudes: x's apex on the second meridian, that apex's own apex
    # on the prime meridian, and the apex over the antipodal chain's target.
    th_pb = math.atan(math.tan(_THETA_X) / math.cos(_PHI_X - _PHI_STAR))
    th_pa = math.atan(math.tan(th_pb) / math.cos(_PHI_STAR))
    y_phi = _PHI_X - math.pi
    yp_lat = -_THETA_X + HALF_PI
    th_pc = math.atan(math.tan(yp_lat) / math.cos(y_phi))

    p_perp = perp_of_apex(anchor)
    s_p = equator_crossings(DescentCircle(anchor))[0]

    triads: list[tuple[str, tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
    equator_points: list[np.ndarray] = [s_p]

    triads.append(("anchor_circle", (anchor_vec, s_p, p_perp)))

    def descend_to(target_lat: float, label: str) -> SphPoint:
        """Two-step descent from the anchor to the prime-meridian point at
        target_lat, emitting the triads that force its value to 0."""
        r, q = two_step_chain(anchor, target_lat)
        r_vec, q_vec = to_cartesian(r), to_cartesian(q)
        r_in = normalized(cross(p_perp, r_vec))
        triads.append((f"{label}_step1", (r_vec, r_in, p_perp)))
        s_r = equator_crossings(DescentCircle(r))[0]
        equator_points.append(s_r)
        r_perp = perp_of_apex(r)
        triads.append((f"{label}_mid_circle", (r_vec, s_r, r_perp)))
        q_in = normalized(cross(r_perp, q_vec))
        triads.append((f"{label}_step2", (q_vec, q_in, r_perp)))
        return q

    def sweep(apex: SphPoint, target: np.ndarray, label: str) -> None:
        """Descent circle of an already-forced-zero apex, covering target."""
        a_vec = to_cartesian(apex)
        a_perp = perp_of_apex(apex)
        s_a = equator_crossings(DescentCircle(apex))[0]
        equator_points.append(s_a)
        triads.append((f"{label}_circle", (a_vec, s_a, a_perp)))
        t_in = normalized(cross(a_perp, target))
        triads.append((f"{label}_covers", (target, t_in, a_perp)))

    # Chain B: force the disputed point x to 0 through the second meridian.
    x_vec = point(_THETA_X, _PHI_X)
    pa = descend_to(th_pa, "prime_a")
    pb = SphPoint(th_pb, phi0 + _PHI_STAR)
    pb_vec = to_cartesian(pb)
    sweep(pa, pb_vec, "prime_to_second")

    pb_perp = perp_of_apex(pb)
    s_pb = equator_crossings(DescentCircle(pb))[0]
    equator_points.append(s_pb)
    triads.append(("second_circle", (pb_vec, s_pb, pb_perp)))
    x_in = normalized(cross(pb_perp, x_vec))
    triads.append(("second_covers_x", (x_vec, x_in, pb_perp)))

    # Chain A: force the antipode of x to 1 via its meridian dyad.
    y_vec = -x_vec
    yp_vec = point(yp_lat, y_phi)
    pc = descend_to(th_pc, "prime_c")
    sweep(pc, yp_vec, "prime_to_dyad")
    m_y = point(0.0, y_phi + HALF_PI)
    equator_points.append(m_y)
    triads.append(("meridian_dyad", (y_vec, yp_vec, m_y)))

    # Memberships are analytic identities; fail loudly if the assembly is off.
    for label, members in triads:
        for i in range(3):
            for j in range(i + 1, 3):
                d = abs(float(np.dot(members[i], members[j])))
                if not d <= EPS_ORTHO:
                    raise AssertionError(f"web triad {label} not orthogonal: {d}")

    for e in equator_points:
        if w(e) == 1:
            trace.append({"step": "competing_meridian", "result": "equator_one"})
            return finish_violating([Z_AXIS, e, normalized(cross(Z_AXIS, e))],
                                    "competing_meridian")

    evaluations = []
    offender = None
    for label, members in triads:
        values = [w(v) for v in members]
        total = sum(values)
        evaluations.append({
            "label": label,
            "points": [list(work_to_orig(v)) for v in members],
            "values": values,
            "sum": total,
        })
        if total != 1 and offender is None:
            offender = members
    trace.append({"step": "competing_meridian", "phi_star": _PHI_STAR,
                  "disputed_point": list(work_to_orig(x_vec)), "triads": evaluations})
    if offender is not None:
        return finish_violating(offender, "competing_meridian")

    # Every triad passed, so arithmetic forces w(x) = 0 and w(-x) = 1.
    if w(x_vec) == w(y_vec):
        raise AssertionError("web arithmetic violated by a deterministic oracle")
    return finish_antipodal(work_to_orig(x_vec), "competing_meridian")
