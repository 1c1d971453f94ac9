"""Certificate extraction: the full pipeline on every built-in family plus
adversarial oracles."""

import json
import math
import random
from itertools import combinations

import numpy as np
import pytest

from kswitness import cli, witness
from kswitness.valuation import (
    FourSegmentValuation,
    FunctionValuation,
    Generator2D,
    PolarCapValuation,
    RotatedValuation,
    StepMeridianValuation,
    Valuation,
    Valuation2DRotated,
    build_oracle,
    random_rotation,
    step_profile,
)
from kswitness.sphere_geom import EPS_ORTHO, SphPoint, dot, to_cartesian
from kswitness.witness import (
    _ANCHOR,
    _APEX_GUARD,
    _BISECTION_STEPS,
    WitnessConfig,
    WitnessReport,
    _competing_meridian_web,
    _Session,
    extract_witness,
)

HALF_PI = math.pi / 2
# The most distinct points a run asks: the basis, one equator point, the
# bisection, and the competing-meridian web's 27 points but the anchor.
MAX_CALLS = 3 + 1 + _BISECTION_STEPS + 26


def assert_certificate_valid(report: WitnessReport, oracle) -> None:
    """Independent re-validation of whatever certificate was returned."""
    assert report.found
    if report.outcome == "violating_basis":
        vecs = report.triad.vectors
        for i in range(3):
            assert abs(np.linalg.norm(vecs[i]) - 1.0) < 1e-9
            for j in range(i + 1, 3):
                assert abs(np.dot(vecs[i], vecs[j])) < 1e-9
        assert sum(oracle.evaluate(v) for v in vecs) != 1
        assert report.triad_sum == sum(oracle.evaluate(v) for v in vecs)
    else:
        n = report.antipodal_point
        assert oracle.evaluate(n) != oracle.evaluate([-c for c in n])


def family_instances():
    instances = [
        ("four_segment", FourSegmentValuation()),
        ("step_meridian_key", StepMeridianValuation(HALF_PI, "one_at_step")),
        ("step_meridian_mid", StepMeridianValuation(0.8)),
        ("step_meridian_low", StepMeridianValuation(0.0, "zero_at_step")),
        ("polar_cap_narrow", PolarCapValuation(1.3)),
        ("polar_cap_wide", PolarCapValuation(0.2)),
        ("valuation2d_rotated", Valuation2DRotated(Generator2D(((0.1, 0.8),)))),
    ]
    for seed in range(6):
        base = [FourSegmentValuation(), StepMeridianValuation(0.3 + 0.17 * seed),
                PolarCapValuation(0.35 + 0.15 * seed)][seed % 3]
        instances.append((f"perturbed_{seed}", RotatedValuation(base, random_rotation(seed), seed=seed)))
    return instances


# Six families, each rotated by seeds 0-60, read at rng_seed 0-2: 1 098 runs.
SWEEP_SPECS = {
    "four_segment": {"kind": "four_segment"},
    "step_meridian": {"kind": "step_meridian", "theta_star": 0.7},
    "step_meridian_zero_at_step": {"kind": "step_meridian", "theta_star": 0.3,
                                   "boundary_variant": "zero_at_step"},
    "polar_cap_0.9": {"kind": "polar_cap", "cap_latitude": 0.9},
    "polar_cap_1.3": {"kind": "polar_cap", "cap_latitude": 1.3},
    "valuation2d_rotated": {"kind": "valuation2d_rotated", "intervals": [[0.2, 0.9], [1.1, 1.4]]},
}


def json_leaves(doc):
    """The values of a JSON document that are neither objects nor arrays."""
    if isinstance(doc, (dict, list)):
        for item in doc.values() if isinstance(doc, dict) else doc:
            yield from json_leaves(item)
    else:
        yield doc


def _key(point) -> tuple:
    return tuple(np.round(point, 9))


def propagate(triads, zeros) -> dict:
    """Unit propagation of "exactly one 1 per triad" from ``zeros`` at 0:
    every value it forces, keyed as the triads' members are."""
    values = dict.fromkeys(zeros, 0)
    changed = True
    while changed:
        changed = False
        for members in triads:
            known = [values.get(m) for m in members]
            if None not in known:
                continue
            forced = 0 if 1 in known else 1 if known.count(0) == 2 else None
            if forced is not None:
                values.update((m, forced) for m, v in zip(members, known) if v is None)
                changed = True
    return values


def web_propagated_oracle(base, config: WitnessConfig) -> FunctionValuation:
    """``base``, except on the competing-meridian web that ``base`` leads
    the extractor to.  There it answers what "exactly one 1 per triad"
    forces from the anchor and the web's equator points at 0, so every
    triad of the web sums to 1 and only the disputed antipodal pair is left.
    """
    report = extract_witness(base, config)
    web = next(t for t in report.trace if t["step"] == "competing_meridian")
    triads = {t["label"]: [_key(p) for p in t["points"]] for t in web["triads"]}
    assert len(triads) == 14
    # Each "*_circle" triad is (apex, equator crossing, perpendicular) and
    # the meridian dyad ends in its equator point.
    equator = [members[1] for label, members in triads.items() if label.endswith("_circle")]
    equator.append(triads["meridian_dyad"][2])
    assert len(equator) == 7
    values = propagate(triads.values(), [triads["anchor_circle"][0], *equator])
    assert all(sum(values[m] for m in members) == 1 for members in triads.values())
    x = _key(web["disputed_point"])
    assert (values[x], values[_key(-np.array(web["disputed_point"]))]) == (0, 1)
    return FunctionValuation(3, lambda n: values.get(_key(n), base.evaluate(n)))


class TestExtractWitness:
    @pytest.mark.parametrize("name,oracle", family_instances())
    def test_families_yield_verified_certificates(self, name, oracle):
        report = extract_witness(oracle, WitnessConfig(rng_seed=2))
        assert report.outcome == "violating_basis", name
        assert_certificate_valid(report, oracle)

    @pytest.mark.parametrize("spec", SWEEP_SPECS.values(), ids=SWEEP_SPECS)
    def test_rotated_families_certified_within_the_call_bound(self, spec):
        for rotation_seed in range(61):
            oracle = build_oracle({**spec, "rotation_seed": rotation_seed})
            for rng_seed in range(3):
                report = extract_witness(oracle, WitnessConfig(rng_seed=rng_seed))
                assert report.outcome == "violating_basis", (rotation_seed, rng_seed)
                assert report.stats["oracle_calls"] <= MAX_CALLS, (rotation_seed, rng_seed)

    def test_trivial_zero_oracle(self):
        oracle = FunctionValuation(3, lambda n: 0)
        report = extract_witness(oracle, WitnessConfig(rng_seed=1))
        assert report.outcome == "violating_basis"
        assert report.triad_sum == 0

    def test_trivial_one_oracle(self):
        oracle = FunctionValuation(3, lambda n: 1)
        report = extract_witness(oracle, WitnessConfig(rng_seed=1))
        assert report.outcome == "violating_basis"
        assert report.triad_sum >= 2

    def test_planted_antipodal_violation_detected(self):
        # Asymmetric everywhere off the equator: whichever certificate the
        # search ends in must re-verify.
        oracle = FunctionValuation(3, lambda n: 1 if n[2] > 0 else 0)
        report = extract_witness(oracle, WitnessConfig(rng_seed=2))
        assert_certificate_valid(report, oracle)

    def test_theta_only_profile_yields_certificate(self):
        # The standardized profile applied to latitude alone, ignoring
        # longitude: not antipodally symmetric, and full of bad triads.
        oracle = FunctionValuation(
            3, lambda n: step_profile(math.asin(max(-1.0, min(1.0, n[2]))),
                                      HALF_PI, "one_at_step"))
        report = extract_witness(oracle, WitnessConfig(rng_seed=2))
        assert_certificate_valid(report, oracle)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            extract_witness(FunctionValuation(4, lambda n: 0))

    def test_budget_exhaustion_is_not_found(self):
        oracle = FunctionValuation(3, StepMeridianValuation(0.9).evaluate)
        report = extract_witness(oracle, WitnessConfig(rng_seed=1, max_descent_probes=3))
        assert report.outcome == "not_found"
        assert report.stats == {"oracle_calls": 3, "cache_hits": 0,
                                "phase_reached": "budget_exhausted"}

    def test_pole_basis_recheck_failure_is_not_found(self):
        # The search reads 0, 0, 0 on the first basis; the fresh re-check
        # reads 1, 0, 0, so the transcript is flaky and certifies nothing.
        answers = iter([0, 0, 0, 1, 0, 0])
        report = extract_witness(FunctionValuation(3, lambda n: next(answers)),
                                 WitnessConfig(rng_seed=1))
        assert report.outcome == "not_found"
        assert report.triad is None
        assert report.stats["phase_reached"] == "pole_basis:recheck_failed"
        assert report.trace[-1]["step"] == "final_triad"
        assert report.trace[-1]["values"] == [1, 0, 0]

    def test_non_bit_answer_on_recheck_raises(self):
        # Four-segment bits for the 3 calls the search makes at this seed,
        # then 7: the fresh re-check must not sum 7s into a certificate.
        base = FourSegmentValuation()
        calls = []

        def flaky(n):
            calls.append(n)
            return base.evaluate(n) if len(calls) <= 3 else 7

        with pytest.raises(ValueError, match="expected 0 or 1"):
            extract_witness(FunctionValuation(3, flaky), WitnessConfig(rng_seed=1))
        assert len(calls) == 4

    def test_fractional_answer_raises(self):
        with pytest.raises(ValueError, match="expected 0 or 1"):
            extract_witness(FunctionValuation(3, lambda n: 0.9))

    def test_determinism(self):
        cfg = WitnessConfig(rng_seed=33)
        a = extract_witness(StepMeridianValuation(1.1), cfg).to_json_dict()
        b = extract_witness(StepMeridianValuation(1.1), cfg).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_trace_replays_against_fresh_calls(self):
        oracle = FourSegmentValuation()
        report = extract_witness(oracle, WitnessConfig(rng_seed=4))

        def replay(entry):
            if isinstance(entry, dict):
                if "point" in entry and "value" in entry:
                    assert oracle.evaluate(np.array(entry["point"])) == entry["value"]
                if "points" in entry and "values" in entry:
                    for point, value in zip(entry["points"], entry["values"]):
                        assert oracle.evaluate(np.array(point)) == value
                for v in entry.values():
                    replay(v)
            elif isinstance(entry, list):
                for v in entry:
                    replay(v)

        replay(report.trace)

    def test_report_json_round_trip(self):
        report = extract_witness(FourSegmentValuation(), WitnessConfig(rng_seed=4))
        doc = report.to_json_dict()
        assert doc["schema"] == 1
        assert doc["outcome"] == "violating_basis"
        json.loads(json.dumps(doc))  # serializable
        # Every number in a built-in oracle's report is a Python float or
        # int, never a numpy scalar, whichever phase the run ends in.
        for spec in SWEEP_SPECS.values():
            for rng_seed in range(3):
                oracle = build_oracle({**spec, "rotation_seed": 3})
                doc = extract_witness(oracle, WitnessConfig(rng_seed=rng_seed)).to_json_dict()
                assert {type(x) for x in json_leaves(doc)} <= {str, int, float, bool, type(None)}

    def test_session_key_has_np_round_bits(self):
        rng = np.random.default_rng(12)
        points = [tuple(p) for p in rng.uniform(-1.0, 1.0, (2000, 3)).tolist()]
        # Signed zeros, a negative that rounds to -0.0, and near-halfway cases.
        points += [(0.0, -0.0, 1.0), (-1e-14, 4e-13, -5e-13), (5e-13, 1.5e-12, -2.5e-12)]
        # Most of these points are off the sphere, where every built-in
        # oracle and FunctionValuation raise, so an oracle that answers 0
        # anywhere stands in: only the session's cache key is under test.
        class Anywhere0(Valuation):
            def evaluate(self, n):
                return 0

        session = _Session(Anywhere0(), budget=len(points))
        for p in points:
            session.value(p)
        assert np.array(list(session.cache)).tobytes() == np.round(points, 12).tobytes()

    def test_web_reached_for_meridian_consistent_oracles(self):
        # step_meridian with theta_star in the middle passes the equator
        # probe and bisection cleanly, so the competing-meridian web is what
        # finally breaks it.
        report = extract_witness(StepMeridianValuation(0.8), WitnessConfig(rng_seed=0))
        steps = [t["step"] for t in report.trace]
        assert "meridian_classification" in steps
        assert "competing_meridian" in steps
        # The bisection takes the fewest halvings that leave the anchor,
        # the final gap below the transition, above the web's apex guard.
        bisection = report.trace[steps.index("meridian_classification")]
        gap = bisection["theta_one"] - bisection["theta_zero"]
        assert len(bisection["evaluations"]) == _BISECTION_STEPS
        assert HALF_PI - 2 * gap <= _APEX_GUARD < HALF_PI - gap == _ANCHOR.theta

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WitnessConfig(max_descent_probes=0)
        with pytest.raises(ValueError):
            WitnessConfig(rng_seed=-1)


def web_anchors() -> list[np.ndarray]:
    """The extractor's fixed anchor, and seeded anchors over the latitudes
    the web is built for, both ends included: just above _APEX_GUARD up to
    pi/2 - 1e-6, and pi/2 - 5e-7."""
    rng = np.random.default_rng(14)
    lats = [math.nextafter(_APEX_GUARD, HALF_PI), HALF_PI - 1e-6, HALF_PI - 5e-7]
    lats += list(rng.uniform(_APEX_GUARD, HALF_PI - 1e-6, 125))
    anchors = [to_cartesian(SphPoint(lat, rng.uniform(-math.pi, math.pi))) for lat in lats]
    return [to_cartesian(_ANCHOR), *anchors]


class TestCompetingMeridianWeb:
    """The web as a pure function of the anchor, called without an oracle."""

    def test_fixed_shape_and_orthogonal_triads(self):
        for anchor in web_anchors():
            triads, equator, x = _competing_meridian_web(anchor)
            assert len(triads) == 14 and len(equator) == 7
            assert all(e[2] == 0.0 for e in equator)
            for _, members in triads:
                for i in range(3):
                    for j in range(i + 1, 3):
                        assert abs(np.dot(members[i], members[j])) <= EPS_ORTHO
            points = {_key(p) for _, members in triads for p in members}
            assert len(points) == 27
            assert _key(x) in points and _key(-np.array(x)) in points

    def test_sum_rule_forces_x_zero_and_antipode_one(self):
        for anchor in web_anchors():
            triads, equator, x = _competing_meridian_web(anchor)
            keyed = [[_key(p) for p in members] for _, members in triads]
            values = propagate(keyed, [_key(anchor), *map(_key, equator)])
            assert (values[_key(x)], values[_key(-np.array(x))]) == (0, 1)
            assert all(sum(values[m] for m in members) == 1 for members in keyed)


class TestWebEndgame:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("base", [StepMeridianValuation(0.8), PolarCapValuation(0.8)],
                             ids=["step_meridian", "polar_cap"])
    def test_web_consistent_oracle_ends_in_antipodal_violation(self, base, seed):
        oracle = web_propagated_oracle(base, WitnessConfig(rng_seed=seed))
        report = extract_witness(oracle, WitnessConfig(rng_seed=seed))
        assert report.outcome == "antipodal_violation"
        # 61 reads: 3 + 1 + 4 before phase 5, the pole and the anchor, the
        # 7 equator points, 14 triads of 3, then x and -x; 34 of them are new.
        assert MAX_CALLS == 34
        assert report.stats == {"oracle_calls": 34, "cache_hits": 27,
                                "phase_reached": "competing_meridian"}
        assert_certificate_valid(report, oracle)
        doc = json.loads(cli._json_text(report.to_json_dict()))
        assert doc["antipodal_point"] == list(report.antipodal_point)
        assert sorted(doc["antipodal_values"]) == [0, 1]
        assert doc["triad"] is None and doc["triad_sum"] is None

    def test_anchor_drift_is_not_found(self, monkeypatch):
        # The anchor moved to the pole's antipode: a point no earlier phase
        # asks, which an antipodally symmetric oracle reads 1 at, as it
        # reads the pole.
        monkeypatch.setattr(witness, "_ANCHOR_VEC", (0.0, 0.0, -1.0))
        base = StepMeridianValuation(0.8)
        asked = []

        def recording(n):
            asked.append(n)
            return base.evaluate(n)

        report = extract_witness(FunctionValuation(3, recording), WitnessConfig(rng_seed=0))
        assert report.outcome == "not_found"
        assert report.stats["phase_reached"] == "standardize:anchor_drift"
        anchor = asked[-1]
        assert _key(anchor) not in {_key(n) for n in asked[:-1]}
        assert base.evaluate(anchor) == 1
        assert [t["step"] for t in report.trace] == [
            "pole_basis", "rotate_to_pole", "equator_probe", "meridian_classification"]

    def test_antipodal_recheck_failure_is_not_found(self):
        # The web-consistent oracle, except that every repeated read answers
        # 0: the search still sees x = 0 and -x = 1, the fresh re-check sees
        # them agree.
        cfg = WitnessConfig(rng_seed=0)
        web = web_propagated_oracle(StepMeridianValuation(0.8), cfg)
        seen = set()

        def first_reads_only(n):
            if _key(n) in seen:
                return 0
            seen.add(_key(n))
            return web.evaluate(n)

        report = extract_witness(FunctionValuation(3, first_reads_only), cfg)
        assert report.outcome == "not_found"
        assert report.antipodal_point is None
        assert report.stats["phase_reached"] == "competing_meridian:recheck_failed"
        assert report.trace[-1]["step"] == "antipodal_pair"
        assert report.trace[-1]["values"] == [0, 0]

    def test_lazy_adversary_reaches_competing_meridian(self):
        # An oracle lazily consistent with every triad constraint it is shown
        # can never be forced into a violating triad, so the web must corner
        # it into an antipodal violation instead.
        class LazyAdversary:
            dimension = 3

            def __init__(self):
                self.assigned = {}

            def _key(self, n):
                return tuple(np.round(n, 10))

            def evaluate(self, n):
                n = np.asarray(n, dtype=float)
                key = self._key(n)
                if key in self.assigned:
                    return self.assigned[key]
                # prefer 0; answer 1 only where a remembered orthogonal pair
                # of zeros already forces this completion to be the 1.
                value = 0
                zeros = [np.array(k) for k, bit in self.assigned.items() if bit == 0]
                for i in range(len(zeros)):
                    if abs(np.dot(zeros[i], n)) > 1e-6:
                        continue
                    for j in range(i + 1, len(zeros)):
                        if abs(np.dot(zeros[i], zeros[j])) < 1e-6 and \
                           abs(np.dot(zeros[j], n)) < 1e-6:
                            value = 1
                            break
                    if value:
                        break
                if not self.assigned:
                    value = 1  # the very first query seeds the pole
                self.assigned[key] = value
                return value

        oracle = LazyAdversary()
        report = extract_witness(oracle, WitnessConfig(rng_seed=0))
        assert report.stats["phase_reached"] == "competing_meridian"
        if report.outcome == "antipodal_violation":
            n = report.antipodal_point
            assert oracle.evaluate(n) != oracle.evaluate([-c for c in n])
        else:
            assert sum(oracle.evaluate(v) for v in report.triad.vectors) != 1


class AdaptiveAdversary:
    """An oracle that tries to avoid a certificate: each new point gets a
    bit that breaks no constraint among the points asked so far.  Fully
    asked orthogonal triads sum to 1, orthogonal pairs are not both 1, and
    a point and its antipode read the same.  Between two allowed bits it
    picks ``prefer``, or by a seeded ``random.Random`` when that is None.
    When neither bit is allowed it is ``forced`` and answers as it prefers.
    """

    def __init__(self, seed: int, prefer: int | None):
        self.rng = random.Random(seed)
        self.prefer = prefer
        self.asked: list[tuple[tuple, int]] = []
        self.forced = False

    def __call__(self, n) -> int:
        for m, bit in self.asked:
            if abs(dot(m, n)) > 1.0 - 1e-9:  # n or its antipode, asked before
                return bit
        ortho = [(m, bit) for m, bit in self.asked if abs(dot(m, n)) <= EPS_ORTHO]
        pairs = [b1 + b2 for (m1, b1), (m2, b2) in combinations(ortho, 2)
                 if abs(dot(m1, m2)) <= EPS_ORTHO]
        allowed = [bit for bit in (0, 1)
                   if not (bit and any(b for _, b in ortho))
                   and all(bit + rest == 1 for rest in pairs)]
        if not allowed:
            self.forced = True
            allowed = [0, 1]
        if len(allowed) == 2:
            bit = self.rng.randrange(2) if self.prefer is None else self.prefer
        else:
            bit = allowed[0]
        self.asked.append((n, bit))
        return bit


@pytest.mark.parametrize("prefer", [None, 0, 1], ids=["random", "zero", "one"])
def test_adaptive_adversary_is_forced_within_the_call_bound(prefer):
    # No valuation exists, so the adversary is cornered in every run, and
    # the extractor's fixed web turns that into a violating basis.
    for seed in range(100):
        adversary = AdaptiveAdversary(seed, prefer)
        oracle = FunctionValuation(3, adversary)
        report = extract_witness(oracle, WitnessConfig(rng_seed=seed % 3))
        assert report.outcome == "violating_basis", seed
        assert report.stats["phase_reached"] == "competing_meridian", seed
        assert report.stats["oracle_calls"] <= MAX_CALLS, seed
        assert adversary.forced, seed
        assert_certificate_valid(report, oracle)


class CountingValuation(Valuation):
    """``base``, counting every call made to it."""

    def __init__(self, base: Valuation):
        self.base = base
        self.calls = 0

    def evaluate(self, n) -> int:
        self.calls += 1
        return self.base.evaluate(n)


class TestBudgetBoundsTheSearch:
    """``max_descent_probes`` (``witness --budget``) bounds the search, whose
    calls ``stats["oracle_calls"]`` counts; the re-check of a certificate
    makes its fresh calls on top, 3 for a basis and 2 for an antipodal pair."""

    @pytest.mark.parametrize("name", sorted(SWEEP_SPECS))
    def test_basis_recheck_makes_three_calls_more(self, name):
        phases = set()
        for rotation_seed in range(6):
            for rng_seed in range(3):
                spec = {**SWEEP_SPECS[name], "rotation_seed": rotation_seed}
                oracle = CountingValuation(build_oracle(spec))
                report = extract_witness(oracle, WitnessConfig(rng_seed=rng_seed))
                assert report.outcome == "violating_basis"
                assert oracle.calls == report.stats["oracle_calls"] + 3
                phases.add(report.stats["phase_reached"])
                # A budget of exactly the search's calls still ends in the
                # certificate, after 3 calls more than the budget.
                budget = report.stats["oracle_calls"]
                tight = CountingValuation(build_oracle(spec))
                again = extract_witness(tight, WitnessConfig(max_descent_probes=budget,
                                                             rng_seed=rng_seed))
                assert again.to_json_dict()["triad"] == report.to_json_dict()["triad"]
                assert tight.calls == budget + 3
        assert "competing_meridian" in phases

    def test_pole_basis_at_budget_three_makes_six_calls(self):
        oracle = CountingValuation(FourSegmentValuation())
        report = extract_witness(oracle, WitnessConfig(max_descent_probes=3, rng_seed=0))
        assert report.outcome == "violating_basis"
        assert report.stats["oracle_calls"] == 3 and oracle.calls == 6

    def test_antipodal_recheck_makes_two_calls_more(self):
        config = WitnessConfig(rng_seed=0)
        oracle = CountingValuation(web_propagated_oracle(StepMeridianValuation(0.8), config))
        report = extract_witness(oracle, config)
        assert report.outcome == "antipodal_violation"
        assert oracle.calls == report.stats["oracle_calls"] + 2 == MAX_CALLS + 2
