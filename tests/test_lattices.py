"""Lattice construction, interval arithmetic, and function-registry checks."""

from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from latlog.ast import reorder_preconditions, validate
from latlog.errors import LatticeError, MonotonicityError, RegistryError
from latlog.lattices import (EMPTY_INTERVAL, FULL_INTERVAL, NEG_INF, POS_INF,
                             FunctionRegistry, IntervalValue, interval,
                             interval_arithmetic, interval_inf, interval_join,
                             interval_lattice, interval_leq, interval_meet,
                             interval_sup, powerset_lattice, SIGNS, sign_lattice,
                             sign_transfer, standard_registry)
from latlog.parser import parse_clauses
from latlog.solver import solve

import helpers


@pytest.fixture(scope="module")
def iv5():
    """Interval lattice over a five-value grid."""
    return interval_lattice(range(-1, 4))


def all_intervals(lat):
    return [v for v in lat.enumerate_elements()]


# --- endpoint reads -------------------------------------------------------------


def test_inf_of_empty_is_plus_infinity():
    assert interval_inf(EMPTY_INTERVAL) == POS_INF


def test_sup_of_empty_is_minus_infinity():
    assert interval_sup(EMPTY_INTERVAL) == NEG_INF


def test_inf_sup_of_bounded_interval():
    assert interval_inf(interval(1, 2)) == 1
    assert interval_sup(interval(1, 2)) == 2


def test_inf_of_left_unbounded():
    assert interval_inf(interval(NEG_INF, 5)) == NEG_INF


# --- ordering -------------------------------------------------------------------


def test_leq_containment():
    assert interval_leq(interval(1, 2), interval(0, 5))
    assert interval_leq(EMPTY_INTERVAL, interval(3, 3))
    assert not interval_leq(interval(0, 5), interval(1, 2))


def test_leq_equals_denotation_subset(iv5):
    window = helpers.denotation_window(iv5.zvalues)
    elems = all_intervals(iv5)
    for i1 in elems:
        for i2 in elems:
            expected = helpers.denote(i1, window) <= helpers.denote(i2, window)
            assert interval_leq(i1, i2) == expected, (i1, i2)


# --- join / meet against the enumeration oracle ----------------------------------


def _is_lub(lat, a, b, j):
    if not (lat.leq(a, j) and lat.leq(b, j)):
        return False
    return all(lat.leq(j, e) for e in all_intervals(lat)
               if lat.leq(a, e) and lat.leq(b, e))


def _is_glb(lat, a, b, m):
    if not (lat.leq(m, a) and lat.leq(m, b)):
        return False
    return all(lat.leq(e, m) for e in all_intervals(lat)
               if lat.leq(e, a) and lat.leq(e, b))


def test_join_meet_frozen_values():
    lat = interval_lattice(range(0, 8))
    assert interval_join(lat.make_interval(1, 2), lat.make_interval(5, 7)) == \
        lat.make_interval(1, 7)
    assert interval_meet(lat.make_interval(1, 4), lat.make_interval(3, 7)) == \
        lat.make_interval(3, 4)
    assert interval_meet(lat.make_interval(1, 2), lat.make_interval(5, 7)) == \
        EMPTY_INTERVAL
    assert _is_lub(lat, lat.make_interval(1, 2), lat.make_interval(5, 7),
                   lat.make_interval(1, 7))
    assert _is_glb(lat, lat.make_interval(1, 4), lat.make_interval(3, 7),
                   lat.make_interval(3, 4))


def test_join_meet_are_lub_glb_everywhere(iv5):
    for a in all_intervals(iv5):
        for b in all_intervals(iv5):
            assert _is_lub(iv5, a, b, interval_join(a, b)), (a, b)
            assert _is_glb(iv5, a, b, interval_meet(a, b)), (a, b)


# --- arithmetic -----------------------------------------------------------------


def test_add_matches_brute_force():
    lat = interval_lattice(range(0, 10))
    got = interval_arithmetic("add", lat.make_interval(1, 2),
                              lat.make_interval(3, 4), lat.make_interval)
    values = [z1 + z2 for z1 in (1, 2) for z2 in (3, 4)]
    assert got == helpers.covering_interval(values, lat.make_interval)
    assert got == lat.make_interval(4, 6)


def test_add_strict_in_empty():
    lat = interval_lattice(range(0, 2))
    assert interval_arithmetic("add", EMPTY_INTERVAL, lat.make_interval(0, 1),
                               lat.make_interval) == EMPTY_INTERVAL


def test_mul_matches_brute_force():
    lat = interval_lattice(range(-3, 7))
    got = interval_arithmetic("mul", lat.make_interval(-1, 2),
                              lat.make_interval(3, 3), lat.make_interval)
    values = [z1 * 3 for z1 in (-1, 0, 1, 2)]
    assert got == helpers.covering_interval(values, lat.make_interval)
    assert got == lat.make_interval(-3, 6)


def test_mul_zero_absorbs_infinity():
    assert interval_arithmetic("mul", interval(0, 0), FULL_INTERVAL) == interval(0, 0)
    assert interval_arithmetic("mul", interval(0, POS_INF),
                               interval(0, 0)) == interval(0, 0)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_arith_over_approximates(op, iv5):
    window = helpers.denotation_window(iv5.zvalues)
    py = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
          "mul": lambda a, b: a * b}[op]
    for i1 in all_intervals(iv5):
        for i2 in all_intervals(iv5):
            result = interval_arithmetic(op, i1, i2, iv5.make_interval)
            for z1 in helpers.denote(i1, window):
                for z2 in helpers.denote(i2, window):
                    assert result.contains(py(z1, z2)), (op, i1, i2, z1, z2)


# --- grid snapping --------------------------------------------------------------


def test_snap_out_of_range_endpoints():
    lat = interval_lattice(range(0, 4))
    assert lat.make_interval(-10, 10) == FULL_INTERVAL
    assert lat.make_interval(1, 5) == IntervalValue(1, POS_INF)
    assert lat.make_interval(-2, 2) == IntervalValue(NEG_INF, 2)


def test_snap_onto_sparse_grid_widens_outward():
    lat = interval_lattice((0, 5))
    assert lat.make_interval(1, 4) == IntervalValue(0, 5)
    assert lat.make_interval(6, 7) == IntervalValue(5, POS_INF)


_ENDPOINT = st.one_of(st.integers(-12, 12), st.sampled_from((NEG_INF, POS_INF)))


@settings(max_examples=300)
@given(st.sets(st.integers(-8, 8), min_size=1), _ENDPOINT, _ENDPOINT)
def test_snapping_matches_a_scan_of_the_grid(grid, lo, hi):
    # random subsets of -8..8 give contiguous and gapped grids alike
    lo, hi = min(lo, hi), max(lo, hi)
    want_lo = max((z for z in grid if z <= lo), default=NEG_INF)
    want_hi = min((z for z in grid if z >= hi), default=POS_INF)
    assert interval_lattice(grid).make_interval(lo, hi) == interval(want_lo, want_hi)


@pytest.mark.parametrize("k", range(1, 13))
def test_element_count_matches_enumeration(k):
    for grid in (range(k), range(0, 3 * k, 3)):
        lat = interval_lattice(grid)
        assert lat.element_count == len(lat.enumerate_elements())


def test_representation_of_integers_and_names():
    lat = interval_lattice(range(0, 4))
    assert lat.represent(2) == IntervalValue(2, 2)
    assert lat.represent(9) == IntervalValue(3, POS_INF)
    assert lat.represent("q0") == FULL_INTERVAL


@given(lo=st.integers(-6, 6), hi=st.integers(-6, 6))
def test_constructor_collapses_inverted_bounds(lo, hi):
    iv = interval(lo, hi)
    assert iv.is_empty == (lo > hi)


@settings(max_examples=200)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_join_commutes_and_meets_dually(a, b, c, d):
    i1, i2 = interval(min(a, b), max(a, b)), interval(min(c, d), max(c, d))
    assert interval_join(i1, i2) == interval_join(i2, i1)
    assert interval_meet(i1, i2) == interval_meet(i2, i1)
    assert interval_leq(i1, interval_join(i1, i2))
    assert interval_leq(interval_meet(i1, i2), i1)


# --- powerset and signs -----------------------------------------------------------


def test_powerset_representation_is_singleton():
    lat = powerset_lattice(("a", "b"))
    assert lat.represent("a") == frozenset("a")


def test_powerset_complement_and_join():
    lat = powerset_lattice(("a", "b"))
    assert lat.complement(frozenset("a")) == frozenset("b")
    assert lat.join(frozenset("a"), frozenset("b")) == frozenset(("a", "b"))


def test_powerset_rejects_empty_universe():
    with pytest.raises(LatticeError):
        powerset_lattice(())


def test_powerset_rejects_unknown_atom():
    lat = powerset_lattice(("a",))
    with pytest.raises(LatticeError):
        lat.represent("z")


def test_sign_representation():
    lat = sign_lattice()
    assert lat.represent(0) == frozenset("0")
    assert lat.represent(5) == frozenset("+")
    assert lat.represent(-3) == frozenset("-")
    assert lat.represent("q0") == lat.top
    assert lat.join(frozenset("-"), frozenset("+")) == frozenset(("-", "+"))


def test_lattice_laws_all_shipped():
    helpers.check_lattice_laws(powerset_lattice(("a", "b", "c")),
                               atoms=("a", "b", "c"))
    helpers.check_lattice_laws(sign_lattice(), atoms=(-2, 0, 7, "q0"))
    helpers.check_lattice_laws(interval_lattice(range(0, 3)),
                               atoms=(0, 1, 2, 99, "q0"))


# --- function registry ------------------------------------------------------------


def test_standard_registry_contents():
    assert standard_registry(interval_lattice(range(0, 3))).names() == \
        [("f_add", 2), ("f_mul", 2), ("f_sub", 2)]
    assert standard_registry(sign_lattice()).names() == \
        [("s_add", 2), ("s_mul", 2), ("s_sub", 2)]
    assert standard_registry(powerset_lattice(("a",))).names() == []


def test_register_monotone_function():
    lat = powerset_lattice(("a", "b"))
    reg = FunctionRegistry(lat)
    reg.register("u_join", 2, frozenset.union)
    assert reg.apply("u_join", (frozenset("a"), frozenset("b"))) == \
        frozenset(("a", "b"))


def test_register_constant_function():
    lat = powerset_lattice(("a",))
    reg = FunctionRegistry(lat)
    reg.register("all", 0, lambda: lat.top)
    assert reg.apply("all", ()) == lat.top


def test_reject_anti_monotone_function():
    lat = powerset_lattice(("a", "b"))
    reg = FunctionRegistry(lat)
    flip = lambda v: lat.top if v == lat.bottom else lat.bottom
    with pytest.raises(MonotonicityError):
        reg.register("flip", 1, flip)


def test_reject_anti_monotone_on_large_lattice_by_sampling():
    lat = interval_lattice(range(-50, 51))
    assert lat.element_count > 64
    reg = FunctionRegistry(lat)
    flip = lambda v: lat.top if v == lat.bottom else lat.bottom
    with pytest.raises(MonotonicityError):
        reg.register("flip", 1, flip)
    reg.register("widen", 1, lambda v: interval_join(v, lat.make_interval(0, 1)))


SMALL_LATTICES = {"signs": sign_lattice(), "interval 0..2": interval_lattice(range(0, 3))}


def brute_monotone(lat, arity, fn) -> bool:
    """Monotone in every argument, checked over all ordered pairs."""
    elems = lat.enumerate_elements()
    for pos in range(arity):
        for others in product(elems, repeat=arity - 1):
            for lo, hi in product(elems, repeat=2):
                if lat.leq(lo, hi) and not lat.leq(
                        fn(*others[:pos], lo, *others[pos:]),
                        fn(*others[:pos], hi, *others[pos:])):
                    return False
    return True


def assert_real_violation(lat, fn, arity, exc):
    """The counterexample is a covering pair that ``fn`` maps out of order."""
    pos, lo, hi, f_lo, f_hi = exc.counterexample
    elems = lat.enumerate_elements()
    assert lo != hi and lat.leq(lo, hi)
    assert not any(c not in (lo, hi) and lat.leq(lo, c) and lat.leq(c, hi)
                   for c in elems)
    assert not lat.leq(f_lo, f_hi)
    assert any(fn(*others[:pos], lo, *others[pos:]) == f_lo
               and fn(*others[:pos], hi, *others[pos:]) == f_hi
               for others in product(elems, repeat=arity - 1))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SMALL_LATTICES)), st.sampled_from((1, 2)),
       st.sampled_from(("raw", "monotonized", "perturbed")), st.data())
def test_exhaustive_proof_agrees_with_all_pairs(lat_name, arity, shape, data):
    lat = SMALL_LATTICES[lat_name]
    elems = lat.enumerate_elements()
    assert len(elems) < FunctionRegistry(lat).exhaustive_limit
    keys = list(product(elems, repeat=arity))
    values = data.draw(st.lists(st.sampled_from(elems), min_size=len(keys),
                                max_size=len(keys)))
    table = dict(zip(keys, values))
    if shape != "raw":
        # the least monotone function above the drawn table
        table = {args: reduce(lat.join, (v for below, v in table.items()
                                         if all(map(lat.leq, below, args))))
                 for args in keys}
    if shape == "perturbed":
        table[data.draw(st.sampled_from(keys))] = data.draw(st.sampled_from(elems))
    fn = lambda *args: table[args]
    try:
        FunctionRegistry(lat).register("drawn", arity, fn)
    except MonotonicityError as exc:
        assert not brute_monotone(lat, arity, fn)
        assert_real_violation(lat, fn, arity, exc)
    else:
        assert brute_monotone(lat, arity, fn)


def test_counterexample_names_the_failing_argument():
    lat = sign_lattice()
    fn = lambda a, b: lat.bottom if b else a  # monotone in a, not in b
    with pytest.raises(MonotonicityError) as info:
        FunctionRegistry(lat).register("drop", 2, fn)
    assert info.value.counterexample[0] == 1
    assert_real_violation(lat, fn, 2, info.value)


# --- user functions through the parser --------------------------------------------

USER_FN_PROGRAM = """
lattice signs
fun widen/1
rel B/1
rel A/1
fact B(x) = {0}
clause forall v. forall 'i. B(v;'i) => A(v;widen('i))
"""


def test_parse_registers_monotone_user_function():
    widen = lambda s: s | {"+"} if s else s
    program = parse_clauses(USER_FN_PROGRAM, extra_functions={("widen", 1): widen})
    assert program.registry.has("widen", 1)
    result = solve(reorder_preconditions(validate(program)))
    assert result.dump_lines() == ["A(x) = {0,+}", "B(x) = {0}"]


def test_parse_rejects_non_monotone_user_function():
    flip = lambda s: frozenset(SIGNS) - s
    with pytest.raises(MonotonicityError):
        parse_clauses(USER_FN_PROGRAM, extra_functions={("widen", 1): flip})


def test_reject_duplicate_registration():
    reg = standard_registry(interval_lattice(range(0, 3)))
    with pytest.raises(RegistryError):
        reg.register("f_add", 2, lambda a, b: a)


def test_unknown_function_application():
    reg = FunctionRegistry(powerset_lattice(("a",)))
    with pytest.raises(RegistryError):
        reg.apply("nope", (frozenset(),))


def test_sign_transfer_tables_match_brute_force():
    for op in ("add", "sub", "mul"):
        fn = sign_transfer(op)
        for s1 in helpers.all_sign_sets():
            for s2 in helpers.all_sign_sets():
                assert fn(s1, s2) == helpers.brute_sign_transfer(op, s1, s2), \
                    (op, s1, s2)
