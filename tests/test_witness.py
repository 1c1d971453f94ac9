"""Certificate extraction: the full pipeline on every built-in family plus
adversarial oracles."""

import json
import math

import numpy as np
import pytest

from kswitness.sampling import random_rotation
from kswitness.valuation import (
    ConstantValuation,
    FourSegmentValuation,
    FunctionValuation,
    Generator2D,
    PolarCapValuation,
    RotatedValuation,
    StepMeridianValuation,
    Valuation2DRotated,
    step_profile,
)
from kswitness.witness import WitnessConfig, WitnessReport, extract_witness

HALF_PI = math.pi / 2


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
        assert oracle.evaluate(n) != oracle.evaluate(-n)


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


class TestExtractWitness:
    @pytest.mark.parametrize("name,oracle", family_instances())
    def test_families_yield_verified_certificates(self, name, oracle):
        report = extract_witness(oracle, WitnessConfig(rng_seed=2))
        assert report.outcome == "violating_basis", name
        assert_certificate_valid(report, oracle)

    def test_trivial_zero_oracle(self):
        oracle = ConstantValuation(3, 0)
        report = extract_witness(oracle, WitnessConfig(rng_seed=1))
        assert report.outcome == "violating_basis"
        assert report.triad_sum == 0

    def test_trivial_one_oracle(self):
        oracle = ConstantValuation(3, 1)
        report = extract_witness(oracle, WitnessConfig(rng_seed=1))
        assert report.outcome == "violating_basis"
        assert report.triad_sum >= 2

    def test_planted_antipodal_violation_detected(self):
        # Asymmetric everywhere off the equator: the first sampled pair
        # already disagrees.
        oracle = FunctionValuation(3, lambda n: 1 if n[2] > 0 else 0)
        report = extract_witness(oracle, WitnessConfig(rng_seed=2))
        assert report.outcome == "antipodal_violation"
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
            extract_witness(ConstantValuation(4, 0))

    def test_budget_exhaustion_is_not_found(self):
        report = extract_witness(StepMeridianValuation(0.9),
                                 WitnessConfig(rng_seed=0, max_descent_probes=3))
        assert report.outcome == "not_found"
        assert report.stats["oracle_calls"] == 3

    def test_non_bit_answer_on_recheck_raises(self):
        # Four-segment bits for the 27 calls the search makes at this seed,
        # then 7: the fresh re-check must not sum 7s into a certificate.
        base = FourSegmentValuation()
        calls = []

        def flaky(n):
            calls.append(n)
            return base.evaluate(n) if len(calls) <= 27 else 7

        with pytest.raises(ValueError, match="expected 0 or 1"):
            extract_witness(FunctionValuation(3, flaky), WitnessConfig(rng_seed=1))
        assert len(calls) == 28

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

    def test_web_reached_for_meridian_consistent_oracles(self):
        # step_meridian with theta_star in the middle passes the equator
        # probe and bisection cleanly, so the competing-meridian web is what
        # finally breaks it.
        report = extract_witness(StepMeridianValuation(0.8), WitnessConfig(rng_seed=2))
        steps = [t["step"] for t in report.trace]
        assert "meridian_classification" in steps
        assert "competing_meridian" in steps

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WitnessConfig(meridian_samples=0)
        with pytest.raises(ValueError):
            WitnessConfig(theta_resolution=0.0)
        with pytest.raises(ValueError):
            WitnessConfig(rng_seed=-1)


class TestWebEndgame:
    def test_consistent_web_forces_antipodal_certificate(self):
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
        report = extract_witness(oracle, WitnessConfig(rng_seed=0, latitude_samples=1))
        assert report.found
        if report.outcome == "antipodal_violation":
            n = report.antipodal_point
            assert oracle.evaluate(n) != oracle.evaluate(-n)
        else:
            assert sum(oracle.evaluate(v) for v in report.triad.vectors) != 1
