"""The package's records: immutable values that compare by class and
fields, hash as their field tuple, print as before, and rebuild through
their constructor when replaced, copied or pickled."""

import copy
import pickle

import pytest

from exhausters.conditions import (
    ConditionID,
    ConstrainedCondition,
    RunMemo,
    SignRegion,
    UnconstrainedCondition,
    Verdict,
)
from exhausters.deriv import Leaf, Max, Min, Scale, SmoothAtom, Sum
from exhausters.exhauster import Exhauster, find_direction
from exhausters.geometry import ArcSet, FeasibilityResult, LinearConstraint, Polytope
from exhausters.report import AnalysisReport

from helpers import C1, C3, F_UPPER, U_LOWER

VERDICT = Verdict("violated", (1.0, 0.0), "uncovered angle 0 rad", "exact2d")
REGION = SignRegion(F_UPPER, 1.0)

# One record of every record class, with the fields that make it.
RECORDS = [
    (C1, {"dim": 2, "vertices": ((1.0, 1.0), (-1.0, 1.0))}),
    (LinearConstraint((-0.0, 1.0), True), {"normal": (-0.0, 1.0), "strict": True}),
    (FeasibilityResult(True, (0.5, 0.5)), {"feasible": True, "witness": (0.5, 0.5)}),
    (ArcSet(((0.0, 1.0),)), {"arcs": ((0.0, 1.0),)}),
    (SmoothAtom(2, ((2.0, (1, 0)),)), {"dim": 2, "terms": ((2.0, (1, 0)),)}),
    (Leaf((1.0, 2.0)), {"form": (1.0, 2.0)}),
    (Scale(-1.0, Leaf((1.0,))), {"coef": -1.0, "child": Leaf((1.0,))}),
    (Sum((Leaf((1.0,)),)), {"children": (Leaf((1.0,)),)}),
    (Max((Leaf((1.0,)), Leaf((2.0,)))), {"children": (Leaf((1.0,)), Leaf((2.0,)))}),
    (Min((Leaf((1.0,)),)), {"children": (Leaf((1.0,)),)}),
    (F_UPPER, {"kind": "upper", "dim": 2, "sets": F_UPPER.sets}),
    (REGION, {"family": F_UPPER, "sign": 1.0}),
    (VERDICT, {"status": "violated", "witness": (1.0, 0.0),
               "certificate": "uncovered angle 0 rad", "method": "exact2d"}),
    (ConstrainedCondition(ConditionID.MIN_UPPER_LOWER, SignRegion(U_LOWER, -1.0), REGION),
     {"cid": ConditionID.MIN_UPPER_LOWER, "lhs": SignRegion(U_LOWER, -1.0), "rhs": REGION}),
    (UnconstrainedCondition(ConditionID.UNC_MIN_UPPER, REGION),
     {"cid": ConditionID.UNC_MIN_UPPER, "rhs": REGION}),
    (AnalysisReport({"dim": 2}, {"MIN_UPPER_LOWER": VERDICT}, warnings=["w"]),
     {"problem": {"dim": 2}, "conditions": {"MIN_UPPER_LOWER": VERDICT}, "point": None,
      "sense": None, "values": {}, "exhausters": {}, "regularity": None, "oracle": {},
      "warnings": ("w",), "metadata": {}}),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_fields_in_order(record, fields):
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert record == type(record)(*fields.values())


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal_records(record, fields):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields):
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == fields[name]


@pytest.mark.parametrize("record, fields", RECORDS[:-1], ids=IDS[:-1])
def test_equal_records_hash_as_their_field_tuple(record, fields):
    twin = type(record)(**fields)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record) == hash(tuple(fields.values()))


def test_equality_needs_the_same_class():
    child = (Leaf((1.0,)),)
    assert Max(child) != Min(child)
    assert Max(child) != Sum(child)
    assert Min(child) != Sum(child)
    assert len({Max(child), Min(child), Sum(child), Max(child)}) == 3
    assert Leaf((1.0,)) != (1.0,)
    assert Verdict("holds", None, "c", "exact2d") != Verdict("holds", None, "c", "sampled")


def test_signed_zeros_make_one_solved_key():
    negative = LinearConstraint((-0.0, 1.0))
    positive = LinearConstraint((0.0, 1.0))
    assert negative == positive and hash(negative) == hash(positive)
    memo = RunMemo()
    first = find_direction([[[negative]]], 2, memo.solved)
    assert find_direction([[[positive]]], 2, memo.solved) == first
    assert list(memo.solved) == [(2, (negative,))]


def test_replace_changes_fields_and_checks_again():
    assert VERDICT.replace(method="lp_enumeration") == Verdict(
        "violated", (1.0, 0.0), "uncovered angle 0 rad", "lp_enumeration")
    assert VERDICT.method == "exact2d"
    assert Leaf((1.0, 2.0)).replace(form=[3, 4]).form == (3.0, 4.0)
    with pytest.raises(ValueError):
        C3.replace(dim=0)
    with pytest.raises(ValueError):
        REGION.replace(sign=0.5)
    with pytest.raises(TypeError):
        C3.replace(volume=1.0)


def test_reprs_keep_the_dataclass_form():
    assert repr(Leaf((1.0, 2.0))) == "Leaf(form=(1.0, 2.0))"
    assert repr(Max((Leaf((1,)),))) == "Max(children=(Leaf(form=(1.0,)),))"
    assert repr(LinearConstraint((1, -0.0))) == \
        "LinearConstraint(normal=(1.0, -0.0), strict=False)"
    assert repr(Polytope(1, [[2]])) == "Polytope(dim=1, vertices=((2.0,),))"
    assert repr(Exhauster("lower", 1, [Polytope(1, [[2]])])) == \
        "Exhauster(kind='lower', dim=1, sets=(Polytope(dim=1, vertices=((2.0,),)),))"
    assert repr(Verdict("holds", None, "c", "exact2d")) == (
        "Verdict(status='holds', witness=None, certificate='c', method='exact2d')")
    assert repr(ConstrainedCondition(ConditionID.MIN_UPPER_LOWER, REGION, REGION)
                ).startswith("ConstrainedCondition(cid=<ConditionID.MIN_UPPER_LOWER: "
                             "'MIN_UPPER_LOWER'>, lhs=SignRegion(family=Exhauster(")


def test_report_defaults_are_fresh_empty_dicts():
    first = AnalysisReport({}, {"MIN_UPPER_LOWER": VERDICT})
    second = AnalysisReport({}, {"MIN_UPPER_LOWER": VERDICT})
    assert first == second
    assert first.values == first.oracle == first.metadata == first.exhausters == {}
    assert first.values is not second.values
    assert first != AnalysisReport({}, {"MIN_UPPER_LOWER": VERDICT}, sense="min")
    with pytest.raises(ValueError):
        AnalysisReport({}, {})
