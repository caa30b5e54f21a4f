"""Slotted records: value equality and hashing, immutability, repr, replace."""

import copy
import pickle

import pytest

from latlog.ast import (And, Const, Fact, Forall, Imply, Query, TrueClause, Var,
                        YVar)
from latlog.lattices import IntervalValue, interval, powerset_lattice
from latlog.parser import parse_clauses
from latlog.records import replace
from latlog.solver import SolveStats

QUERY = Query("R", (Var("x"), Const("a")), YVar("'Y"))


def test_records_of_different_classes_are_unequal():
    records = [Var("x"), YVar("x"), Const("x")]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j), (a, b)
            assert (a != b) is (i != j), (a, b)


@pytest.mark.parametrize("make, fields", [
    (lambda: Var("x"), ("x",)),
    (lambda: Const(3), (3,)),
    (lambda: TrueClause(), ()),
    (lambda: Query("R", (Var("x"), Const("a")), YVar("'Y")),
     ("R", (Var("x"), Const("a")), YVar("'Y"))),
    (lambda: Forall("x", Imply(QUERY, And((TrueClause(), TrueClause())))),
     ("x", Imply(QUERY, And((TrueClause(), TrueClause()))))),
    (lambda: Fact("R", ("a",), frozenset("a")), ("R", ("a",), frozenset("a"))),
    (lambda: IntervalValue(0, 3), (0, 3)),
    (lambda: interval(float("-inf"), 2), (float("-inf"), 2)),
], ids=["Var", "Const", "TrueClause", "Query", "Forall", "Fact", "IntervalValue",
        "interval"])
def test_equal_records_compare_equal_and_hash_as_their_fields(make, fields):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert a != fields  # a record equals no tuple


@pytest.mark.parametrize("record, field", [
    (QUERY, "pred"),
    (Fact("R", ("a",), frozenset("a")), "value"),
    (IntervalValue(0, 3), "lo"),
    (powerset_lattice(["a"]), "top"),
], ids=["Query", "Fact", "IntervalValue", "Lattice"])
def test_frozen_fields_cannot_be_set_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.undeclared = None
    assert getattr(record, field) == before


def test_program_refuses_assignment_and_stats_stay_assignable():
    program = parse_clauses("lattice powerset {a}\nfact R(a) = {a}")
    with pytest.raises(AttributeError):
        program.ranks = {"R": 0}
    with pytest.raises(TypeError):
        program.arities["S"] = 1
    assert program.ranks is None and program.arities == {"R": 1}
    stats = SolveStats()
    stats.growths += 2
    stats.candidates = 5
    assert stats.as_dict() == {"growths": 2, "consumer_invocations": 0,
                               "sweep_invocations": 0, "candidates": 5,
                               "redundant_adds": 0}
    assert stats == SolveStats(growths=2, candidates=5)
    for record in (program, stats):
        with pytest.raises(TypeError):
            hash(record)


def test_query_prints_its_fields_by_name():
    assert repr(QUERY) == ("Query(pred='R', args=(Var(name='x'), Const(atom='a')), "
                           "value=YVar(name=\"'Y\"))")


def test_replace_changes_the_named_fields_only():
    program = parse_clauses("lattice powerset {a}\nfact R(a) = {a}")
    changed = replace(program, facts=())
    assert changed.facts == () and program.facts
    assert changed.lattice is program.lattice and changed.arities == program.arities
    assert replace(QUERY, pred="S") == Query("S", QUERY.args, QUERY.value)
    with pytest.raises(TypeError, match="no field 'name'"):
        replace(QUERY, name="S")


def test_records_copy_and_pickle_through_their_init():
    assert copy.deepcopy(QUERY) == QUERY
    wide = IntervalValue(0, float("inf"))
    assert pickle.loads(pickle.dumps(wide)) == wide
    stats = copy.copy(SolveStats(growths=3))
    stats.growths += 1
    assert stats == SolveStats(growths=4)
