"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Lattice values are discrete, so every comparison here is
exact; the only tolerance is the wall-clock budget of the first criterion.
"""

import random
import time
from contextlib import contextmanager

import pytest

from latlog import ast, oracle
from latlog.analysis import (gen_interval_clauses, gen_sign_clauses,
                             parse_program_graph)
from latlog.ast import reorder_preconditions, validate
from latlog.errors import StratificationError
from latlog.lattices import (interval_lattice, powerset_lattice, sign_lattice,
                             sign_transfer)
from latlog.parser import parse_clauses
from latlog.randgen import random_program
from latlog.solver import SolveStats, _Engine, solve

import cases_semantics
import helpers
import reference_semantics as semantics


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def solve_program(program):
    return solve(reorder_preconditions(program))


def test_criterion_1_moore_family_suite():
    with criterion(1, "Moore-family suite, 100 seeded instances"):
        start = time.perf_counter()
        for seed in range(100):
            program = random_program(seed)
            result = solve_program(program)
            got = semantics.from_leaves(program, result.leaves())
            # (a) the solver output satisfies every clause above the facts
            assert semantics.is_model(program, got), f"seed {seed}: not a model"
            # (b) it equals the naive fixpoint exactly
            assert got == oracle.naive_fixpoint(program), f"seed {seed}: != naive"
            # (c) sampled model subsets are glb-closed and the output is least
            models = semantics.enumerate_models(program)
            assert got in models, f"seed {seed}: output not enumerated"
            assert semantics.glb_interpretations(program, models) == got, \
                f"seed {seed}: output is not the glb of all models"
            rng = random.Random(seed)
            for _ in range(10):
                subset = rng.sample(models, rng.randint(1, len(models)))
                glb = semantics.glb_interpretations(program, subset)
                assert semantics.is_model(program, glb), \
                    f"seed {seed}: glb of a model subset is not a model"
            for m in models:
                assert semantics.lex_leq(program, got, m), \
                    f"seed {seed}: output not below an enumerated model"
        elapsed = time.perf_counter() - start
        print(f"  (100 instances in {elapsed:.1f}s)")
        assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"


def test_criterion_2_semantics_conformance_table():
    with criterion(2, "satisfaction-checker conformance table"):
        assert len(cases_semantics.CASES) >= 20
        missing = set(cases_semantics._COVERED_KINDS) - \
            cases_semantics.covered_constructs()
        assert not missing, f"constructs without a table entry: {missing}"
        for case in cases_semantics.CASES:
            assert case.tag in ("direct", "derived")
            assert cases_semantics.run_case(case) == case.expected, case.name


def test_criterion_3_equality_inequality_regression():
    with criterion(3, "equality/inequality least-model regression"):
        _, result = helpers.run_pipeline(helpers.sample("eq_neq.lat"))
        assert result.leaves() == {
            "E": {("a",): frozenset("a"), ("b",): frozenset("b")},
            "N": {("a",): frozenset("b"), ("b",): frozenset("a")},
        }
        _, result3 = helpers.run_pipeline(helpers.sample("eq_neq_abc.lat"))
        assert result3.leaves() == {
            "E": {(a,): frozenset(a) for a in "abc"},
            "N": {(a,): frozenset(set("abc") - {a}) for a in "abc"},
        }
        program = parse_clauses(helpers.sample("nonstratified.lat"))
        with pytest.raises(StratificationError):
            ast.compute_ranks(program)


def test_criterion_4_interval_analysis():
    with criterion(4, "interval analysis: loop result and soundness"):
        graph = parse_program_graph(helpers.sample("loop.graph"))
        text = gen_interval_clauses(graph, 0, 3)
        program = reorder_preconditions(validate(parse_clauses(text)))
        result = solve(program)
        mk = program.lattice.make_interval
        inf = float("inf")
        leaves = result.leaves()["A"]
        assert leaves[("q1", "x")] == mk(0, inf)
        assert leaves[("q3", "x")] == mk(0, inf)
        reference = oracle.naive_fixpoint(program)
        assert reference.get("A", ("q1", "x")) == mk(0, inf)
        assert reference.get("A", ("q3", "x")) == mk(0, inf)
        assert semantics.from_leaves(program, result.leaves()) == reference

        for name in ("loop.graph", "countdown.graph", "sums.graph",
                     "products.graph", "branch.graph"):
            g = parse_program_graph(helpers.sample(name))
            a_leaves = helpers.run_pipeline(
                gen_interval_clauses(g))[1].leaves().get("A", {})
            for store in helpers.initial_stores(g, (-2, 0, 1, 5)):
                for state, var, value in helpers.concrete_reachable(
                        g, store, max_steps=1000):
                    iv = a_leaves.get((state, var))
                    assert iv is not None and iv.contains(value), \
                        (name, state, var, value)


def test_criterion_5_sign_analysis():
    with criterion(5, "sign analysis: transfer tables and abstraction"):
        for op in ("add", "sub", "mul"):
            fn = sign_transfer(op)
            for s1 in helpers.all_sign_sets():
                for s2 in helpers.all_sign_sets():
                    assert fn(s1, s2) == helpers.brute_sign_transfer(op, s1, s2)
        for name in ("loop.graph", "countdown.graph", "sums.graph",
                     "products.graph", "branch.graph"):
            g = parse_program_graph(helpers.sample(name))
            iv_leaves = helpers.run_pipeline(
                gen_interval_clauses(g))[1].leaves().get("A", {})
            sg_leaves = helpers.run_pipeline(
                gen_sign_clauses(g))[1].leaves().get("A", {})
            for key, iv in iv_leaves.items():
                assert helpers.signs_of_interval(iv) <= \
                    sg_leaves.get(key, frozenset()), (name, key)


def test_criterion_6_set_based_correspondence():
    with criterion(6, "set-based correspondence on 50 instances"):
        for seed in range(50):
            program = random_program(seed, set_fragment=True)
            result = solve_program(program)
            diffs = semantics.correspondence_diff(program, result.leaves())
            assert diffs == [], f"seed {seed}: {diffs[:3]}"


def _loop_interval_program():
    graph = parse_program_graph(helpers.sample("loop.graph"))
    return reorder_preconditions(validate(parse_clauses(
        gen_interval_clauses(graph, 0, 3))))


def test_criterion_7_difference_propagation():
    with criterion(7, "difference propagation bounds"):
        workloads = [
            reorder_preconditions(validate(parse_clauses(
                helpers.sample("eq_neq.lat")))),
            _loop_interval_program(),
        ]
        for program in workloads:
            with helpers.audit() as seen:
                solve(program)
            for rec in seen.consumers:
                after_registration = (
                    seen.growths_per_pred.get(rec.pred, 0)
                    - rec.growths_at_registration)
                assert rec.delivery_invocations <= after_registration
            assert helpers.propagation_bound_holds(seen)
            # a non-growing add reaches no consumer
            engine = _Engine(program, SolveStats())
            engine.run(program.facts)
            calls = []
            pred = sorted(program.arities)[0]
            engine.store.relation(pred).table(()).register(
                (), (lambda env, ids, v: calls.append(ids), []))
            ids, leaf = next(iter(engine.store.sub(pred)))
            engine.run_stratum(
                ast.Assert(pred, tuple(ast.Const(a) for a in
                                       engine.table.atoms(ids)),
                           ast.LitConst(leaf)))
            assert calls == [], "non-growing add reached a consumer"


def test_criterion_8_termination_and_stratum_isolation():
    with criterion(8, "termination and stratum isolation"):
        programs = [
            reorder_preconditions(validate(parse_clauses(helpers.sample(name))))
            for name in ("eq_neq.lat", "eq_neq_abc.lat", "facts_only.lat")]
        programs.append(_loop_interval_program())
        programs += [reorder_preconditions(random_program(seed))
                     for seed in range(40)]
        for program in programs:
            with helpers.audit() as seen:
                result = solve(program)  # terminated to get past this line
            assert helpers.stratum_isolation_holds(seen, result)


def test_criterion_9_lattice_law_suite():
    with criterion(9, "lattice-law suite by exhaustive enumeration"):
        helpers.check_lattice_laws(powerset_lattice(("a", "b", "c")),
                                   atoms=("a", "b", "c"))
        helpers.check_lattice_laws(sign_lattice(),
                                   atoms=(-7, -1, 0, 1, 7, "q0"))
        helpers.check_lattice_laws(interval_lattice(-2, 2),
                                   atoms=(-2, 0, 2, 44, -44, "q0"))
