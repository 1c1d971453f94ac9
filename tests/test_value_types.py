"""The float stack's value types behave as values: ``SphPoint``,
``DescentCircle``, ``Generator2D``, ``Reduction`` and ``WitnessConfig``
compare, hash and print by their fields and refuse assignment; ``Triad``
refuses assignment but compares by identity; ``WitnessReport`` is a
mutable record whose ``stats`` and ``trace`` are its own.  Each type
validates its fields on construction."""

import math
import pickle

import pytest

from kswitness.sphere_geom import DescentCircle, DomainError, NotOrthogonal, SphPoint, Triad
from kswitness.valuation import FunctionValuation, Generator2D, Reduction, reduce_dimension
from kswitness.witness import WitnessConfig, WitnessReport

HALF_PI = math.pi / 2

# Type name -> (a factory of one value, its fields in order, its repr).
VALUES = {
    "SphPoint": (lambda: SphPoint(0.5, 1), {"theta": 0.5, "phi": 1.0},
                 "SphPoint(theta=0.5, phi=1.0)"),
    "DescentCircle": (lambda: DescentCircle(SphPoint(0.5, 1.0)),
                      {"apex": SphPoint(0.5, 1.0)},
                      "DescentCircle(apex=SphPoint(theta=0.5, phi=1.0))"),
    "Generator2D": (lambda: Generator2D([(0.25, 1)]), {"intervals": ((0.25, 1.0),)},
                    "Generator2D(intervals=((0.25, 1.0),))"),
    "Reduction": (lambda: Reduction(((1.0, 0.0),), 0, None),
                  {"basis": ((1.0, 0.0),), "basis_sum": 0, "reduced": None},
                  "Reduction(basis=((1.0, 0.0),), basis_sum=0, reduced=None)"),
    "WitnessConfig": (lambda: WitnessConfig(7, rng_seed=3),
                      {"max_descent_probes": 7, "rng_seed": 3},
                      "WitnessConfig(max_descent_probes=7, rng_seed=3)"),
}

# Type name -> a value differing from VALUES' in one field.
OTHERS = {
    "SphPoint": lambda: SphPoint(0.5, 1.5),
    "DescentCircle": lambda: DescentCircle(SphPoint(-0.5, 1.0)),
    "Generator2D": lambda: Generator2D(((0.25, 1.5),)),
    "Reduction": lambda: Reduction(((1.0, 0.0),), 1, None),
    "WitnessConfig": lambda: WitnessConfig(7, rng_seed=4),
}


@pytest.mark.parametrize("name", VALUES)
class TestFrozenValue:
    def test_fields_are_canonical(self, name):
        make, fields, _ = VALUES[name]
        value = make()
        for field, expected in fields.items():
            got = getattr(value, field)
            assert got == expected and type(got) is type(expected)

    def test_equal_by_fields(self, name):
        make = VALUES[name][0]
        assert make() == make()
        assert not make() != make()
        assert make() != OTHERS[name]()
        assert make().__eq__(tuple(VALUES[name][1].values())) is NotImplemented

    def test_hash_is_the_fields_hash(self, name):
        make, fields, _ = VALUES[name]
        assert hash(make()) == hash(make()) == hash(tuple(fields.values()))
        assert len({make(), make(), OTHERS[name]()}) == 2

    def test_repr_names_every_field(self, name):
        make, _, text = VALUES[name]
        assert repr(make()) == text

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        make, fields, _ = VALUES[name]
        value = make()
        for field in [*fields, "other"]:
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
        for field in fields:
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert value == make()

    def test_pickles_to_an_equal_value(self, name):
        make = VALUES[name][0]
        assert pickle.loads(pickle.dumps(make())) == make()


def test_reduction_holds_its_oracle():
    oracle = FunctionValuation(4, lambda n: int(n[0] == 1.0))
    reduction = reduce_dimension(oracle)
    assert reduction == Reduction(reduction.basis, 1, reduction.reduced)
    assert reduction.reduced.base is oracle
    assert repr(reduction).endswith(f"basis_sum=1, reduced={reduction.reduced!r})")


def test_defaults():
    assert WitnessConfig() == WitnessConfig(10_000, 0)
    assert Generator2D().intervals == ()


BASIS = ((1, 0, 0), (0.0, 1.0, 0.0), [0, 0, 1])


class TestTriad:
    def test_vectors_are_float_tuples(self):
        t = Triad(*BASIS)
        assert t.vectors == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert all(type(c) is float for v in t.vectors for c in v)
        assert Triad(n3=BASIS[2], n2=BASIS[1], n1=BASIS[0]).vectors == t.vectors

    def test_equal_only_to_itself(self):
        t = Triad(*BASIS)
        assert t == t
        assert t != Triad(*BASIS)
        assert hash(t) == object.__hash__(t)
        assert len({t, Triad(*BASIS)}) == 2

    def test_repr_names_every_vector(self):
        assert repr(Triad(*BASIS)) == (
            "Triad(n1=(1.0, 0.0, 0.0), n2=(0.0, 1.0, 0.0), n3=(0.0, 0.0, 1.0))")

    def test_vectors_cannot_be_assigned(self):
        t = Triad(*BASIS)
        for field in ("n1", "n2", "n3", "other"):
            with pytest.raises(AttributeError):
                setattr(t, field, (1.0, 0.0, 0.0))


class TestWitnessReport:
    def test_stats_and_trace_are_not_shared(self):
        a, b = WitnessReport("not_found"), WitnessReport("not_found")
        assert a.stats == {} and a.trace == []
        assert a.stats is not b.stats and a.trace is not b.trace
        a.trace.append({"step": "pole_basis"})
        a.stats["oracle_calls"] = 1
        assert b.trace == [] and b.stats == {}

    def test_is_a_mutable_unhashable_record(self):
        a = WitnessReport("not_found", config=WitnessConfig())
        assert a == WitnessReport("not_found", None, None, None, None, {}, [], WitnessConfig())
        a.outcome = "antipodal_violation"
        assert a != WitnessReport("not_found", config=WitnessConfig())
        with pytest.raises(TypeError):
            hash(a)

    def test_repr_names_every_field(self):
        assert repr(WitnessReport("not_found", triad_sum=2)) == (
            "WitnessReport(outcome='not_found', triad=None, triad_sum=2, "
            "antipodal_point=None, antipodal_values=None, stats={}, trace=[], config=None)")


@pytest.mark.parametrize("make,error,message", [
    (lambda: SphPoint(2.0, 0.0), DomainError, r"latitude 2\.0 outside \[-pi/2, pi/2\]"),
    (lambda: SphPoint(math.nan, 0.0), DomainError, "latitude nan outside"),
    (lambda: SphPoint(0.0, math.inf), DomainError, "longitude inf is not finite"),
    (lambda: DescentCircle(SphPoint(0.0, 1.0)), DomainError,
     "descent circle apex on the equator is degenerate"),
    (lambda: DescentCircle(SphPoint(-HALF_PI, 0.0)), DomainError,
     "descent circle apex at a pole is not allowed"),
    (lambda: Triad((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)), DomainError,
     r"vector \[0\.0, 2\.0, 0\.0\] is not unit"),
    (lambda: Triad((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)), NotOrthogonal,
     "vectors 0 and 2 have"),
    (lambda: Generator2D(((0.2, 0.1),)), ValueError,
     r"interval \[0\.2, 0\.1\) must lie inside \[0, pi/2\)"),
    (lambda: Generator2D(((0.5, 1.0), (0.1, 0.2))), ValueError,
     "intervals must be sorted and disjoint"),
    (lambda: WitnessConfig(max_descent_probes=0), ValueError,
     "max_descent_probes must be at least 1"),
    (lambda: WitnessConfig(rng_seed=-1), ValueError, "rng_seed must be non-negative"),
])
def test_validation_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()
