"""Complete-lattice abstraction and the three shipped lattices.

A :class:`Lattice` bundles the ordering, bounds, join/meet, an optional
anti-monotone complement, and the representation function mapping a universe
atom to the most precise property describing it.  Shipped constructors:
finite powersets, the sign powerset, and bounded integer intervals.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Any, Callable, Optional, Sequence

from .errors import LatticeError, MonotonicityError, RegistryError
from .records import Frozen, set_field

Atom = Any  # universe atoms are identifiers (str) or integers

NEG_INF = float("-inf")
POS_INF = float("inf")


def atom_sort_key(a: Atom):
    """Deterministic ordering across mixed int/str atoms (ints first)."""
    return (0, a, "") if isinstance(a, int) else (1, 0, str(a))


def render_atom(a: Atom) -> str:
    return str(a)


# ---------------------------------------------------------------------------
# Intervals


class IntervalValue(Frozen):
    """Closed integer interval with extended endpoints.

    The empty interval is canonically ``(+inf, -inf)``; with that encoding the
    lower endpoint of the empty interval is +inf and the upper is -inf, which
    makes the ordering and join/meet formulas below uniform.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int | float, hi: int | float):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)

    # the base's results, written out: the engine compares interval values on
    # every narrowing, and the base reads the fields by name
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) == (other.lo, other.hi)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "interval(empty)" if self.is_empty else f"interval[{self.lo},{self.hi}]"


EMPTY_INTERVAL = IntervalValue(POS_INF, NEG_INF)
FULL_INTERVAL = IntervalValue(NEG_INF, POS_INF)


def _norm_endpoint(z):
    return z if z in (NEG_INF, POS_INF) else int(z)


def interval(lo, hi) -> IntervalValue:
    """Raw interval constructor; collapses inverted bounds to empty."""
    if lo > hi:
        return EMPTY_INTERVAL
    return IntervalValue(_norm_endpoint(lo), _norm_endpoint(hi))


def interval_leq(i1: IntervalValue, i2: IntervalValue) -> bool:
    """Containment ordering: i1 is inside i2."""
    return i2.lo <= i1.lo and i1.hi <= i2.hi


def interval_join(i1: IntervalValue, i2: IntervalValue) -> IntervalValue:
    return IntervalValue(min(i1.lo, i2.lo), max(i1.hi, i2.hi))  # endpoints already normal


def interval_meet(i1: IntervalValue, i2: IntervalValue) -> IntervalValue:
    lo, hi = max(i1.lo, i2.lo), min(i1.hi, i2.hi)
    return EMPTY_INTERVAL if lo > hi else IntervalValue(lo, hi)


def _xmul(a, b):
    # 0 * +-inf is 0 here, keeping multiplication an over-approximation.
    if a == 0 or b == 0:
        return 0
    return a * b


def interval_arithmetic(op: str, i1: IntervalValue, i2: IntervalValue,
                        snap: Callable[[Any, Any], IntervalValue] | None = None) -> IntervalValue:
    """Endpoint-combination transfer for add/sub/mul, strict in the empty interval."""
    if i1.is_empty or i2.is_empty:
        return EMPTY_INTERVAL
    if op == "add":
        lo, hi = i1.lo + i2.lo, i1.hi + i2.hi
    elif op == "sub":
        lo, hi = i1.lo - i2.hi, i1.hi - i2.lo
    elif op == "mul":
        corners = [_xmul(a, b) for a in (i1.lo, i1.hi) for b in (i2.lo, i2.hi)]
        lo, hi = min(corners), max(corners)
    else:
        raise LatticeError(f"unknown interval operation {op!r}")
    if snap is not None:
        return snap(lo, hi)
    return interval(lo, hi)


# ---------------------------------------------------------------------------
# Lattice handle


class Lattice(Frozen):
    """A complete lattice packaged with the operations the solver needs.

    ``represent`` maps a universe atom to its most precise description and
    never returns bottom.  ``complement`` is present only when anti-monotone
    (negation over a complement-free lattice is rejected at validation).
    ``enumerate_elements``/``element_count`` are needed only by the reference
    evaluators and by exhaustive monotonicity checks; ``sample_element``
    backs randomized monotonicity spot checks on large lattices.  ``atoms``
    is the carrier of a set-based lattice, ``zvalues`` the integer grid
    zmin..zmax of the interval lattice and ``make_interval`` its snapping
    constructor.

    Values are immutable and all operations pure, so handles and values can
    be shared freely across threads.
    """

    __slots__ = ("kind", "bottom", "top", "leq", "join", "meet", "represent",
                 "complement", "enumerate_elements", "element_count",
                 "sample_element", "render", "atoms", "zvalues", "make_interval")

    def __init__(self, kind: str, bottom: Any, top: Any,
                 leq: Callable[[Any, Any], bool],
                 join: Callable[[Any, Any], Any],
                 meet: Callable[[Any, Any], Any],
                 represent: Callable[[Atom], Any],
                 complement: Optional[Callable[[Any], Any]] = None,
                 enumerate_elements: Optional[Callable[[], Sequence[Any]]] = None,
                 element_count: Optional[int] = None,
                 sample_element: Optional[Callable[[random.Random], Any]] = None,
                 render: Callable[[Any], str] = repr,
                 atoms: Optional[tuple] = None,
                 zvalues: Optional[range] = None,
                 make_interval: Optional[Callable[[Any, Any], IntervalValue]] = None):
        set_field(self, "kind", kind)
        set_field(self, "bottom", bottom)
        set_field(self, "top", top)
        set_field(self, "leq", leq)
        set_field(self, "join", join)
        set_field(self, "meet", meet)
        set_field(self, "represent", represent)
        set_field(self, "complement", complement)
        set_field(self, "enumerate_elements", enumerate_elements)
        set_field(self, "element_count", element_count)
        set_field(self, "sample_element", sample_element)
        set_field(self, "render", render)
        set_field(self, "atoms", atoms)
        set_field(self, "zvalues", zvalues)
        set_field(self, "make_interval", make_interval)


# ---------------------------------------------------------------------------
# Set-based lattices (finite powerset, signs)

SIGNS = ("-", "0", "+")


def _set_render(carrier_order: dict) -> Callable[[frozenset], str]:
    def render(v: frozenset) -> str:
        if not v:
            return "bot"
        items = sorted(v, key=lambda a: carrier_order[a])
        return "{" + ",".join(render_atom(a) for a in items) + "}"

    return render


def _build_set_lattice(kind: str, carrier: tuple,
                       represent: Callable[[Atom], frozenset]) -> Lattice:
    top = frozenset(carrier)
    order = {a: i for i, a in enumerate(carrier)}

    def enumerate_elements():
        elems = [frozenset()]
        for a in carrier:
            elems += [e | {a} for e in elems]
        return sorted(elems, key=lambda s: (len(s), sorted(order[a] for a in s)))

    # enumeration only stays available while it is actually materializable
    if len(carrier) > 20:
        enumerate_elements = None

    def sample_element(rng: random.Random) -> frozenset:
        return frozenset(a for a in carrier if rng.random() < 0.5)

    return Lattice(
        kind=kind,
        bottom=frozenset(),
        top=top,
        leq=frozenset.issubset,
        join=frozenset.union,
        meet=frozenset.intersection,
        complement=lambda v: top - v,
        represent=represent,
        enumerate_elements=enumerate_elements,
        element_count=2 ** len(carrier),
        sample_element=sample_element,
        render=_set_render(order),
        atoms=carrier,
    )


def powerset_lattice(universe) -> Lattice:
    """Subset lattice over a finite atom set; an atom is described by its singleton."""
    carrier = tuple(sorted(set(universe), key=atom_sort_key))
    if not carrier:
        raise LatticeError("powerset lattice needs a non-empty universe")

    def represent(a: Atom) -> frozenset:
        if a not in carrier_set:
            raise LatticeError(f"atom {a!r} is not in the powerset universe")
        return frozenset((a,))

    carrier_set = set(carrier)
    return _build_set_lattice("powerset", carrier, represent)


def sign_of(n: int) -> str:
    return "-" if n < 0 else "0" if n == 0 else "+"


def sign_lattice() -> Lattice:
    """Powerset of {-,0,+}; an integer atom is described by its sign singleton.

    Atoms that are not integers (state or variable names) carry no sign
    information and map to top.
    """

    def represent(a: Atom) -> frozenset:
        if isinstance(a, int):
            return frozenset((sign_of(a),))
        return frozenset(SIGNS)

    return _build_set_lattice("signs", SIGNS, represent)


# ---------------------------------------------------------------------------
# Interval lattice


def interval_lattice(zmin: int, zmax: int) -> Lattice:
    """Bounded-interval lattice over the integer grid ``zmin..zmax``.

    Endpoints of every constructed value are snapped outward onto the grid
    (below it to -inf, above it to +inf), which keeps the element set finite
    and every ascending chain stabilizing.  The grid is held as its bounds,
    so its width costs nothing per operation.
    """
    if zmin > zmax:
        raise LatticeError(f"empty integer grid: zmin={zmin} > zmax={zmax}")
    grid = range(zmin, zmax + 1)

    def make(lo, hi) -> IntervalValue:
        if lo > hi:
            return EMPTY_INTERVAL
        return interval(NEG_INF if lo < zmin else min(lo, zmax),
                        POS_INF if hi > zmax else max(hi, zmin))

    def represent(a: Atom) -> IntervalValue:
        if isinstance(a, int):
            return make(a, a)
        return FULL_INTERVAL

    def enumerate_elements():
        los = [NEG_INF, *grid]
        his = [*grid, POS_INF]
        elems = [EMPTY_INTERVAL]
        elems += [IntervalValue(lo, hi) for lo in los for hi in his if lo <= hi]
        return elems

    # bottom; -inf under each of the k + 1 upper ends; each grid value
    # under +inf and under each of the k(k + 1)/2 grid values at or above it
    k = zmax - zmin + 1
    count = 2 + 2 * k + k * (k + 1) // 2

    def sample_element(rng: random.Random) -> IntervalValue:
        # a draw from the k + 1 lower and the k + 1 upper ends, reading the
        # value just off the grid as -inf or +inf
        if rng.random() < 0.1:
            return EMPTY_INTERVAL
        lo = rng.randrange(zmin - 1, zmax + 1)
        hi = rng.randrange(zmin, zmax + 2)
        lo = NEG_INF if lo < zmin else lo
        hi = POS_INF if hi > zmax else hi
        if lo > hi:
            lo, hi = hi, lo
        return interval(lo, hi)

    def render(v: IntervalValue) -> str:
        if v.is_empty:
            return "bot"
        lo = "-inf" if v.lo == NEG_INF else str(v.lo)
        hi = "inf" if v.hi == POS_INF else str(v.hi)
        return f"[{lo},{hi}]"

    return Lattice(
        kind="interval",
        bottom=EMPTY_INTERVAL,
        top=FULL_INTERVAL,
        leq=interval_leq,
        join=interval_join,
        meet=interval_meet,
        complement=None,
        represent=represent,
        enumerate_elements=enumerate_elements,
        element_count=count,
        sample_element=sample_element,
        render=render,
        zvalues=grid,
        make_interval=make,
    )


# ---------------------------------------------------------------------------
# Sign transfer tables

_SIGN_NEG = {"-": "+", "0": "0", "+": "-"}
_SIGN_ADD = {
    ("-", "-"): ("-",),
    ("-", "0"): ("-",),
    ("-", "+"): ("-", "0", "+"),
    ("0", "0"): ("0",),
    ("0", "+"): ("+",),
    ("+", "+"): ("+",),
}
_SIGN_MUL = {
    ("-", "-"): ("+",),
    ("-", "0"): ("0",),
    ("-", "+"): ("-",),
    ("0", "0"): ("0",),
    ("0", "+"): ("0",),
    ("+", "+"): ("+",),
}


def _sign_pair(table, s1: str, s2: str) -> tuple:
    return table.get((s1, s2)) or table[(s2, s1)]


def sign_transfer(op: str) -> Callable[[frozenset, frozenset], frozenset]:
    """Pointwise-joined sign table for add/sub/mul over sign sets."""
    if op not in ("add", "sub", "mul"):
        raise LatticeError(f"unknown sign operation {op!r}")

    def fn(s1: frozenset, s2: frozenset) -> frozenset:
        out = set()
        for a in s1:
            for b in s2:
                b2 = _SIGN_NEG[b] if op == "sub" else b
                table = _SIGN_MUL if op == "mul" else _SIGN_ADD
                out.update(_sign_pair(table, a, b2))
        return frozenset(out)

    return fn


# ---------------------------------------------------------------------------
# Function registry

EXHAUSTIVE_LIMIT = 64
SPOT_CHECKS = 1000


class FunctionRegistry:
    """Named monotone operations usable as function terms.

    ``register``, the one way in, proves monotonicity in each argument (the
    tests prove the builtins of :func:`standard_registry`).  When the lattice
    enumerates fewer than ``EXHAUSTIVE_LIMIT`` elements the proof is
    exhaustive: the function is tabulated once over every argument tuple, and
    each argument is checked along the covering pairs of the order (``b``
    covers ``a`` when ``a < b`` with nothing strictly between), which implies
    every ordered pair by transitivity.  Larger lattices get ``SPOT_CHECKS``
    sampled ordered pairs.  Register everything up front; the registry must
    not change during a solve run.
    """

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        self._fns: dict[tuple[str, int], Callable] = {}

    def register(self, name: str, arity: int, fn: Callable) -> None:
        key = (name, arity)
        if key in self._fns:
            raise RegistryError(f"function {name}/{arity} already registered")
        self._validate_monotone(name, arity, fn)
        self._fns[key] = fn

    def has(self, name: str, arity: int) -> bool:
        return (name, arity) in self._fns

    def function(self, name: str, arity: int) -> Callable:
        try:
            return self._fns[(name, arity)]
        except KeyError:
            raise RegistryError(f"unknown function {name}/{arity}") from None

    def names(self) -> list[tuple[str, int]]:
        return sorted(self._fns)

    def _validate_monotone(self, name: str, arity: int, fn: Callable) -> None:
        if arity == 0:
            fn()  # constants are trivially monotone; just probe once
            return
        lat = self.lattice
        count = lat.element_count
        if (count is not None and count < EXHAUSTIVE_LIMIT
                and lat.enumerate_elements is not None
                and count ** (arity + 1) * arity <= 2_000_000):
            self._check_exhaustive(name, arity, fn)
        else:
            self._check_sampled(name, arity, fn)

    def _check_exhaustive(self, name, arity, fn):
        lat = self.lattice
        elems = list(lat.enumerate_elements())
        n = len(elems)
        # bit j of above[i] is set when elems[i] < elems[j]; elems[j] covers
        # elems[i] when it is above i but above no other element above i
        above = [sum(1 << j for j in range(n) if j != i and lat.leq(elems[i], elems[j]))
                 for i in range(n)]
        covers = []
        for i, up in enumerate(above):
            beyond = 0
            for k in range(n):
                if up >> k & 1:
                    beyond |= above[k]
            covers += [(i, j) for j in range(n) if (up & ~beyond) >> j & 1]
        # fn over product(elems, repeat=arity) in order, equal results shared:
        # moving position p from elems[lo] to elems[hi] moves (hi - lo) * n ** (arity - 1 - p)
        canon = {}
        table = [canon.setdefault(v, v)
                 for v in (fn(*args) for args in product(elems, repeat=arity))]
        for pos in range(arity):
            stride = n ** (arity - 1 - pos)
            for base in range(len(table)):
                if base // stride % n:
                    continue  # not the row with elems[0] at position pos
                for lo, hi in covers:
                    f_lo, f_hi = table[base + lo * stride], table[base + hi * stride]
                    if not lat.leq(f_lo, f_hi):
                        raise MonotonicityError(name, pos, elems[lo], elems[hi], f_lo, f_hi)

    def _check_sampled(self, name, arity, fn):
        lat = self.lattice
        if lat.sample_element is None:
            raise RegistryError(
                f"cannot validate {name}/{arity}: lattice {lat.kind!r} has no "
                "element sampler and is too large to enumerate")
        rng = random.Random(f"monotone:{name}/{arity}")
        extremes = [lat.bottom, lat.top]

        def sample():
            if rng.random() < 0.15:
                return rng.choice(extremes)
            return lat.sample_element(rng)

        for _ in range(SPOT_CHECKS):
            pos = rng.randrange(arity)
            others = tuple(sample() for _ in range(arity - 1))
            hi = sample()
            lo = lat.meet(hi, sample())
            args_lo = others[:pos] + (lo,) + others[pos:]
            args_hi = others[:pos] + (hi,) + others[pos:]
            if not lat.leq(fn(*args_lo), fn(*args_hi)):
                raise MonotonicityError(name, pos, lo, hi, fn(*args_lo), fn(*args_hi))


def standard_registry(lattice: Lattice) -> FunctionRegistry:
    """Registry holding a lattice's builtin transfer functions, which the tests prove monotone."""
    reg = FunctionRegistry(lattice)
    if lattice.kind == "interval":
        for op in ("add", "sub", "mul"):
            reg._fns[(f"f_{op}", 2)] = lambda i1, i2, _op=op: interval_arithmetic(
                _op, i1, i2, lattice.make_interval)
    elif lattice.kind == "signs":
        for op in ("add", "sub", "mul"):
            reg._fns[(f"s_{op}", 2)] = sign_transfer(op)
    return reg
