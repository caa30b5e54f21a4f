"""Lattice construction, interval arithmetic, and function-registry checks."""

import tracemalloc
from functools import reduce
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from latlog.ast import validate
from latlog.cli import run_analyze
from latlog.errors import LatticeError, MonotonicityError, RegistryError
from latlog.lattices import (EMPTY_INTERVAL, FULL_INTERVAL, NEG_INF, POS_INF,
                             FunctionRegistry, IntervalValue, interval,
                             interval_arithmetic, interval_join,
                             interval_lattice, interval_leq, interval_meet,
                             powerset_lattice, SIGNS, sign_lattice,
                             sign_transfer, standard_registry, EXHAUSTIVE_LIMIT,
                             _xmul)
from latlog.parser import parse_clauses
from latlog.solver import solve

import helpers


@pytest.fixture(scope="module")
def iv5():
    """Interval lattice over a five-value grid."""
    return interval_lattice(-1, 3)


def all_intervals(lat):
    return [v for v in lat.enumerate_elements()]


# --- endpoint reads -------------------------------------------------------------


def test_inf_of_empty_is_plus_infinity():
    assert EMPTY_INTERVAL.lo == POS_INF


def test_sup_of_empty_is_minus_infinity():
    assert EMPTY_INTERVAL.hi == NEG_INF


def test_inf_sup_of_bounded_interval():
    assert interval(1, 2).lo == 1
    assert interval(1, 2).hi == 2


def test_inf_of_left_unbounded():
    assert interval(NEG_INF, 5).lo == NEG_INF


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
    lat = interval_lattice(0, 7)
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
    lat = interval_lattice(0, 9)
    got = interval_arithmetic("add", lat.make_interval(1, 2),
                              lat.make_interval(3, 4), lat.make_interval)
    values = [z1 + z2 for z1 in (1, 2) for z2 in (3, 4)]
    assert got == helpers.covering_interval(values, lat.make_interval)
    assert got == lat.make_interval(4, 6)


def test_add_strict_in_empty():
    lat = interval_lattice(0, 1)
    assert interval_arithmetic("add", EMPTY_INTERVAL, lat.make_interval(0, 1),
                               lat.make_interval) == EMPTY_INTERVAL


def test_mul_matches_brute_force():
    lat = interval_lattice(-3, 6)
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
    lat = interval_lattice(0, 3)
    assert lat.make_interval(-10, 10) == FULL_INTERVAL
    assert lat.make_interval(1, 5) == IntervalValue(1, POS_INF)
    assert lat.make_interval(-2, 2) == IntervalValue(NEG_INF, 2)


_ENDPOINT = st.one_of(st.integers(-12, 12), st.sampled_from((NEG_INF, POS_INF)))
_BOUND = st.integers(-8, 8)


@settings(max_examples=300)
@given(_BOUND, _BOUND, _ENDPOINT, _ENDPOINT)
def test_snapping_matches_a_scan_of_the_grid(zmin, zmax, lo, hi):
    zmin, zmax = min(zmin, zmax), max(zmin, zmax)
    lo, hi = min(lo, hi), max(lo, hi)
    grid = range(zmin, zmax + 1)
    want_lo = max((z for z in grid if z <= lo), default=NEG_INF)
    want_hi = min((z for z in grid if z >= hi), default=POS_INF)
    assert interval_lattice(zmin, zmax).make_interval(lo, hi) == interval(want_lo, want_hi)


@pytest.mark.parametrize("k", range(1, 13))
def test_element_count_matches_enumeration(k):
    for zmin, zmax in ((0, k - 1), (-k, -1)):
        lat = interval_lattice(zmin, zmax)
        assert lat.element_count == len(lat.enumerate_elements())


@pytest.mark.parametrize("width", [10**12, 10**30])  # 10**30 is past sys.maxsize
def test_wide_grid_is_held_by_its_bounds(width):
    tracemalloc.start()
    try:
        lat = interval_lattice(-width, width)
        standard_registry(lat)
        # a sampled proof draws its pairs by the grid's bounds
        FunctionRegistry(lat).register(
            "widen", 1, lambda v: interval_join(v, lat.make_interval(0, 1)))
        assert lat.make_interval(3, 10 * width) == IntervalValue(3, POS_INF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_representation_of_integers_and_names():
    lat = interval_lattice(0, 3)
    assert lat.represent(2) == IntervalValue(2, 2)
    assert lat.represent(9) == IntervalValue(3, POS_INF)
    assert lat.represent("q0") == FULL_INTERVAL


def test_constructors_normalise_float_endpoints():
    lat = interval_lattice(0, 3)
    for v in (interval(1.0, 2.0), lat.make_interval(1.0, 2.0)):
        assert type(v.lo) is int and type(v.hi) is int
        assert lat.render(v) == "[1,2]"


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
    helpers.check_lattice_laws(interval_lattice(0, 2),
                               atoms=(0, 1, 2, 99, "q0"))


# --- function registry ------------------------------------------------------------


def test_standard_registry_contents():
    assert standard_registry(interval_lattice(0, 2)).names() == \
        [("f_add", 2), ("f_mul", 2), ("f_sub", 2)]
    assert standard_registry(sign_lattice()).names() == \
        [("s_add", 2), ("s_mul", 2), ("s_sub", 2)]
    assert standard_registry(powerset_lattice(("a",))).names() == []


def test_register_monotone_function():
    lat = powerset_lattice(("a", "b"))
    reg = FunctionRegistry(lat)
    reg.register("u_join", 2, frozenset.union)
    assert reg.function("u_join", 2)(frozenset("a"), frozenset("b")) == \
        frozenset(("a", "b"))


def test_register_constant_function():
    lat = powerset_lattice(("a",))
    reg = FunctionRegistry(lat)
    reg.register("all", 0, lambda: lat.top)
    assert reg.function("all", 0)() == lat.top


def test_reject_anti_monotone_function():
    lat = powerset_lattice(("a", "b"))
    reg = FunctionRegistry(lat)
    flip = lambda v: lat.top if v == lat.bottom else lat.bottom
    with pytest.raises(MonotonicityError):
        reg.register("flip", 1, flip)


def test_reject_anti_monotone_on_large_lattice_by_sampling():
    lat = interval_lattice(-50, 50)
    assert lat.element_count > 64
    reg = FunctionRegistry(lat)
    flip = lambda v: lat.top if v == lat.bottom else lat.bottom
    with pytest.raises(MonotonicityError):
        reg.register("flip", 1, flip)
    reg.register("widen", 1, lambda v: interval_join(v, lat.make_interval(0, 1)))


SMALL_LATTICES = {"signs": sign_lattice(), "interval 0..2": interval_lattice(0, 2)}


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
    assert len(elems) < EXHAUSTIVE_LIMIT
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
    result = solve(validate(program))
    assert result.dump_lines() == ["A(x) = {0,+}", "B(x) = {0}"]


def test_parse_rejects_non_monotone_user_function():
    flip = lambda s: frozenset(SIGNS) - s
    with pytest.raises(MonotonicityError):
        parse_clauses(USER_FN_PROGRAM, extra_functions={("widen", 1): flip})


def test_reject_duplicate_registration():
    reg = standard_registry(interval_lattice(0, 2))
    with pytest.raises(RegistryError):
        reg.register("f_add", 2, lambda a, b: a)


def test_unknown_function_application():
    reg = FunctionRegistry(powerset_lattice(("a",)))
    with pytest.raises(RegistryError):
        reg.function("nope", 1)


def test_sign_transfer_tables_match_brute_force():
    for op in ("add", "sub", "mul"):
        fn = sign_transfer(op)
        for s1 in helpers.all_sign_sets():
            for s2 in helpers.all_sign_sets():
                assert fn(s1, s2) == helpers.brute_sign_transfer(op, s1, s2), \
                    (op, s1, s2)


# --- the builtins' monotonicity, proved here once -----------------------------------
#
# standard_registry enters the builtins without a proof, so these tests carry
# it.  The sign lattice and every grid within -4..4 get the exhaustive
# covering-pair proof.  Every other grid is covered by three facts: outward
# snapping is monotone, exact interval arithmetic is inclusion-monotone
# (Moore), and each interval builtin is snapping after exact arithmetic.

BUILTIN_OPS = ("add", "sub", "mul")
# the 45 grids within -4..4; -4..4 itself has 65 elements, which register
# would only sample, so the proofs call _check_exhaustive directly
SMALL_GRIDS = [(zmin, zmax) for zmin in range(-4, 5) for zmax in range(zmin, 5)]


def prove_builtins(lat):
    reg = standard_registry(lat)
    assert len(reg.names()) == len(BUILTIN_OPS)
    for name, arity in reg.names():
        reg._check_exhaustive(name, arity, reg.function(name, arity))


def test_sign_builtins_are_monotone():
    prove_builtins(sign_lattice())


@pytest.mark.parametrize("zmin, zmax", SMALL_GRIDS)
def test_interval_builtins_are_monotone_on_small_grids(zmin, zmax):
    prove_builtins(interval_lattice(zmin, zmax))


_SHIFT = st.one_of(st.just(0), st.integers(-10**30, 10**30))
_LO = st.one_of(st.integers(-12, 12), st.just(NEG_INF))
_HI = st.one_of(st.integers(-12, 12), st.just(POS_INF))


def _shifted(z, shift):
    return z if z in (NEG_INF, POS_INF) else z + shift


@settings(max_examples=200)
@given(_BOUND, _BOUND, _SHIFT, _LO, _HI, _LO, _HI)
def test_snapping_is_an_upper_closure(zmin, zmax, shift, lo, hi, lo2, hi2):
    """Outward snapping is extensive, idempotent and monotone."""
    zmin, zmax = sorted((zmin + shift, zmax + shift))
    lo, hi, lo2, hi2 = (_shifted(z, shift) for z in (lo, hi, lo2, hi2))
    make = interval_lattice(zmin, zmax).make_interval
    snapped = make(lo, hi)
    assert interval_leq(interval(lo, hi), snapped)
    assert make(snapped.lo, snapped.hi) == snapped
    assert interval_leq(snapped, make(min(lo, lo2), max(hi, hi2)))


@st.composite
def nested_intervals(draw):
    """(inner, outer): integer intervals, possibly unbounded or empty, inner inside outer."""
    lo, hi = draw(_LO), draw(_HI)
    inner = interval(max(lo, draw(_LO)), min(hi, draw(_HI)))
    return inner, interval(lo, hi)


@settings(max_examples=300)
@given(nested_intervals(), nested_intervals())
@example((interval(0, 0), interval(0, 0)), (interval(1, POS_INF), FULL_INTERVAL))
@example((interval(0, 0), interval(NEG_INF, 0)), (EMPTY_INTERVAL, interval(-2, 3)))
def test_exact_arithmetic_is_inclusion_monotone(a, b):
    (a_in, a_out), (b_in, b_out) = a, b
    assert interval_leq(a_in, a_out) and interval_leq(b_in, b_out)
    for op in BUILTIN_OPS:
        assert interval_leq(interval_arithmetic(op, a_in, b_in),
                            interval_arithmetic(op, a_out, b_out)), op


@settings(max_examples=150)
@given(_BOUND, _BOUND, _SHIFT, st.randoms(use_true_random=False))
def test_interval_builtins_snap_exact_arithmetic(zmin, zmax, shift, rng):
    zmin, zmax = sorted((zmin + shift, zmax + shift))
    lat = interval_lattice(zmin, zmax)
    reg = standard_registry(lat)
    a, b = lat.sample_element(rng), lat.sample_element(rng)
    for op in BUILTIN_OPS:
        exact = interval_arithmetic(op, a, b)
        assert reg.function(f"f_{op}", 2)(a, b) == lat.make_interval(exact.lo, exact.hi), op


def test_corner_dropping_interval_mul_is_rejected():
    lat = interval_lattice(-1, 1)

    def mul(i1, i2):  # keeps the lo*lo and hi*hi corners only
        if i1.is_empty or i2.is_empty:
            return EMPTY_INTERVAL
        corners = (_xmul(i1.lo, i2.lo), _xmul(i1.hi, i2.hi))
        return lat.make_interval(min(corners), max(corners))

    with pytest.raises(MonotonicityError) as info:
        FunctionRegistry(lat)._check_exhaustive("f_mul", 2, mul)
    assert_real_violation(lat, mul, 2, info.value)


def test_top_zeroing_sign_mul_is_rejected():
    lat = sign_lattice()
    s_mul = sign_transfer("mul")
    mul = lambda s1, s2: frozenset("0") if lat.top in (s1, s2) else s_mul(s1, s2)
    with pytest.raises(MonotonicityError) as info:
        FunctionRegistry(lat)._check_exhaustive("s_mul", 2, mul)
    assert_real_violation(lat, mul, 2, info.value)


class _RuntimeProof(Exception):
    pass


@pytest.fixture
def proofs_refused(monkeypatch):
    def refuse(self, name, arity, fn):
        raise _RuntimeProof(f"{name}/{arity}")

    monkeypatch.setattr(FunctionRegistry, "_validate_monotone", refuse)


def test_standard_registry_proves_nothing_at_run_time(proofs_refused):
    test_standard_registry_contents()


@pytest.mark.parametrize("which", ["signs", "intervals"])
def test_analyze_proves_nothing_at_run_time(which, proofs_refused):
    report = run_analyze(helpers.sample("loop.graph"), which)
    golden = Path(__file__).resolve().parent / "golden" / f"loop.graph.{which}"
    assert golden.read_text() == "exit 0\n" + "".join(f"{line}\n" for line in report.lines)


def test_user_functions_are_still_proved_at_run_time(proofs_refused):
    widen = lambda s: s | {"+"} if s else s
    with pytest.raises(_RuntimeProof, match="widen/1"):
        parse_clauses(USER_FN_PROGRAM, extra_functions={("widen", 1): widen})
