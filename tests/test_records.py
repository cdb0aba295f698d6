"""The result records and value classes: their fields in order, equality
and hashing by value, no assignment to a field, ``Predictions``' checks,
and a pair of fresh dicts in every ``AdversaryRun``.

The nine read-only results are ``typing.NamedTuple``s, so they also unpack
and compare equal to plain tuples; ``Allocation`` and ``Predictions`` are
immutable classes in ``Instance``'s style.
"""

import inspect
from decimal import Decimal
from fractions import Fraction

import pytest

from fairdiv import (
    INF,
    AdversaryRun,
    Allocation,
    DomainError,
    MonteCarloReport,
    Predictions,
    RandMoments,
    instance_from_rows,
    prop1_ratio,
    run_construction,
)
from fairdiv.metrics import (
    AgentProp1,
    Ef1Check,
    EnvyWitness,
    MmsCheck,
    Prop1Check,
    PropxCheck,
    PropxWitness,
)

F = Fraction

#: Each record or value class with its fields in order and one value per field.
RECORDS = {
    AgentProp1: {"agent": 2, "value": F(3, 4), "witness": 5, "satisfied": True},
    Prop1Check: {"satisfied": False, "agents": (AgentProp1(1, INF, "self", True),)},
    EnvyWitness: {"envier": 1, "envied": 2},
    Ef1Check: {"satisfied": False, "witness": EnvyWitness(1, 2)},
    PropxWitness: {"agent": 2, "good": 7},
    PropxCheck: {"satisfied": True, "witness": None},
    MmsCheck: {"satisfied": False, "mms": (F(1), F(1, 2)), "witness": 2, "ratio": F(2, 3)},
    RandMoments: {"mean": F(1, 2), "variance": F(1, 8)},
    MonteCarloReport: {
        "n": 2, "delta": F(1, 10), "alpha_used": Decimal("0.0811"), "trials": 100,
        "failures": 3, "empirical_failure_rate": F(3, 100), "seed": 7,
        "instance": {"n": 2, "m": 1, "sha256": "00"},
    },
    Allocation: {"owner": (1, 2, 1)},
    Predictions: {"p": (F(1), F(2, 3)), "epsilon": F(1, 4)},
}
NAMED_TUPLES = [cls for cls in RECORDS if cls not in (Allocation, Predictions)]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_in_order(cls):
    assert cls._fields == tuple(RECORDS[cls])
    assert list(inspect.signature(cls).parameters) == list(RECORDS[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_values_give_equal_objects_with_equal_hashes(cls):
    """A record holding a dict (the Monte Carlo report's instance) is
    unhashable, as the dict is."""
    values = RECORDS[cls]
    by_name, by_position = cls(**values), cls(*values.values())
    assert by_name == by_position and by_name is not by_position
    assert [getattr(by_name, name) for name in values] == list(values.values())
    if cls is MonteCarloReport:
        with pytest.raises(TypeError):
            hash(by_name)
    else:
        assert hash(by_name) == hash(by_position)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_no_field_can_be_assigned(cls):
    record = cls(**RECORDS[cls])
    for name in [*RECORDS[cls], "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert [getattr(record, name) for name in RECORDS[cls]] == list(RECORDS[cls].values())


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda cls: cls.__name__)
def test_a_named_tuple_unpacks_and_equals_its_plain_tuple(cls):
    values = tuple(RECORDS[cls].values())
    record = cls(*values)
    assert tuple(record) == values and record == values


def test_value_classes_compare_only_with_their_own_class():
    assert Allocation((1, 2)) != (1, 2) and Allocation((1, 2)) != Predictions((F(1), F(2)))
    assert Allocation((1, 2)) != Allocation((2, 1)) and Predictions((F(1),)) != Predictions((F(1),), F(1, 2))
    assert Predictions((F(1),)) == Predictions((F(1),), F(0))
    assert repr(Allocation((1, 2))) == "Allocation(owner=(1, 2))"
    assert repr(Predictions((F(1),))) == "Predictions(p=(Fraction(1, 1),), epsilon=Fraction(0, 1))"


def test_the_ownership_pass_kept_on_an_allocation_changes_neither_equality_nor_hash():
    alloc = Allocation((1, 2))
    assert prop1_ratio(instance_from_rows([[F(1), F(1)], [F(1), F(1)]]), alloc) == 1
    assert "_ownership" in alloc.__dict__
    assert alloc == Allocation((1, 2)) and hash(alloc) == hash(Allocation((1, 2)))


@pytest.mark.parametrize("p, epsilon, message", [
    ((F(0),), F(0), "prediction 0 must be a positive rational"),
    ((F(1), F(-1, 2)), F(0), "prediction -1/2 must be a positive rational"),
    ((F(1), 1), F(0), "prediction 1 must be a positive rational"),
    ((F(1), 0.5), F(0), "prediction 0.5 must be a positive rational"),
    ((F(1),), F(1), "one-sided error 1 must lie in [0, 1)"),
    ((F(1),), F(-1, 2), "one-sided error -1/2 must lie in [0, 1)"),
    ((F(1),), 0, "one-sided error 0 must lie in [0, 1)"),
    ((F(1),), 0.25, "one-sided error 0.25 must lie in [0, 1)"),
])
def test_predictions_refuse_bad_p_and_epsilon(p, epsilon, message):
    with pytest.raises(DomainError) as refused:
        Predictions(p, epsilon)
    assert str(refused.value) == message


def test_adversary_runs_share_no_fields_or_verdicts():
    first, second = AdversaryRun(None, F(1), True), AdversaryRun(None, F(1), True)
    assert list(inspect.signature(AdversaryRun).parameters) == [
        "trace", "achieved_ratio", "target_reached", "fields", "verdicts"
    ]
    assert first.fields == second.fields == {} and first.verdicts == second.verdicts == {}
    assert first.fields is not second.fields and first.verdicts is not second.verdicts
    first.fields["cycles"] = 1
    first.verdicts["ratio_below_target"] = True
    assert second.fields == {} and second.verdicts == {}
    runs = [run_construction("greedy3", 2, F(1, 2)) for _ in range(2)]
    assert runs[0].fields is not runs[1].fields and runs[0].verdicts is not runs[1].verdicts
