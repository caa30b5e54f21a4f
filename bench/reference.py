"""Results computed apart from latlog, to check the engine's outputs.

Nothing here imports latlog.  The closure is found by plain graph search;
ring analyses are recomputed by a small abstract interpreter over the graph
itself (not over generated clauses) and bounded by concrete executions of a
small interpreter.  Dump lines are compared as ``{"R(a,b)": "value"}`` maps.
"""

from __future__ import annotations

from collections import deque

from inputs import LabelledGraph, Ring, label_text, node_name, state_name

INF = float("inf")


def leaf_map(lines) -> dict | None:
    """``{"R(a,b)": "value"}`` from dump lines; None if a leaf repeats."""
    leaves = {}
    for line in lines:
        key, _, value = line.partition(" = ")
        if key in leaves:
            return None
        leaves[key] = value
    return leaves


def diff(got: dict | None, want: dict, limit: int = 3) -> list[str]:
    """Human-readable differences between two leaf maps."""
    if got is None:
        return ["a leaf is dumped twice"]
    out = []
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            out.append(f"{key}: got {got.get(key, 'bot')}, want {want.get(key, 'bot')}")
            if len(out) == limit:
                break
    return out


# --- closure -------------------------------------------------------------------


def closure_labels(graph: LabelledGraph) -> dict:
    """{(u, v): labels} over every v reachable from u by at least one edge.

    The least model joins into T(u,v) the labels of every edge on every walk
    from u to v.  Edge (a, b) lies on such a walk exactly when a is reachable
    from u and v from b, each in zero or more steps.
    """
    succ: dict[int, list] = {i: [] for i in range(graph.nodes)}
    for a, b, _ in graph.edges:
        succ[a].append(b)

    def reach(start):
        seen, todo = {start}, [start]
        while todo:
            for nxt in succ[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    reachable = {i: reach(i) for i in range(graph.nodes)}
    out: dict = {}
    for u in range(graph.nodes):
        for a, b, labels in graph.edges:
            if a in reachable[u]:
                for v in reachable[b]:
                    out[(u, v)] = out.get((u, v), frozenset()) | labels
    return out


def closure_leaves(graph: LabelledGraph, tag: str) -> dict:
    leaves = {f"E({node_name(tag, a)},{node_name(tag, b)})": label_text(labels)
              for a, b, labels in graph.edges}
    for (u, v), labels in closure_labels(graph).items():
        leaves[f"T({node_name(tag, u)},{node_name(tag, v)})"] = label_text(labels)
    return leaves


# --- analyses: abstract domains --------------------------------------------------


def _mul(a, b):
    return 0 if a == 0 or b == 0 else a * b


class Intervals:
    """Intervals with endpoints snapped outward onto the grid zmin..zmax."""

    def __init__(self, zmin: int, zmax: int):
        self.zmin, self.zmax = zmin, zmax
        self.top = (-INF, INF)

    def make(self, lo, hi):
        lo = -INF if lo < self.zmin else min(lo, self.zmax)
        hi = INF if hi > self.zmax else max(hi, self.zmin)
        return (lo, hi)

    def const(self, n: int):
        return self.make(n, n)

    @staticmethod
    def join(a, b):
        return (min(a[0], b[0]), max(a[1], b[1]))

    def apply(self, op: str, a, b):
        if op == "+":
            return self.make(a[0] + b[0], a[1] + b[1])
        if op == "-":
            return self.make(a[0] - b[1], a[1] - b[0])
        corners = [_mul(p, q) for p in a for q in b]
        return self.make(min(corners), max(corners))

    @staticmethod
    def render(v) -> str:
        lo = "-inf" if v[0] == -INF else str(v[0])
        hi = "inf" if v[1] == INF else str(v[1])
        return f"[{lo},{hi}]"

    @staticmethod
    def parse(text: str):
        lo, hi = text.strip("[]").split(",")
        return (-INF if lo == "-inf" else int(lo), INF if hi == "inf" else int(hi))

    @staticmethod
    def covers(v, n: int) -> bool:
        return v[0] <= n <= v[1]


def _sign(n: int) -> str:
    return "-" if n < 0 else "0" if n == 0 else "+"


class Signs:
    """Sets of signs; operations by brute force over representative integers."""

    ORDER = ("-", "0", "+")
    _REPS = {"-": (-2, -1), "0": (0,), "+": (1, 2)}
    _OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}

    top = frozenset(ORDER)

    @staticmethod
    def const(n: int):
        return frozenset((_sign(n),))

    @staticmethod
    def join(a, b):
        return a | b

    def apply(self, op: str, a, b):
        fn = self._OPS[op]
        return frozenset(_sign(fn(p, q)) for s in a for t in b
                         for p in self._REPS[s] for q in self._REPS[t])

    def render(self, v) -> str:
        return "{" + ",".join(s for s in self.ORDER if s in v) + "}"

    @staticmethod
    def parse(text: str):
        return frozenset(text.strip("{}").split(","))

    @staticmethod
    def covers(v, n: int) -> bool:
        return _sign(n) in v


# --- analyses: least solution and concrete runs -----------------------------------


def _transfer(dom, values: dict, src: int, action, variables) -> dict:
    """What one edge asserts at its target, from the values at its source.

    An assignment's variable operands must hold at the source; one whose
    operands are all literals is gated on its target instead.  Every other
    variable, and every variable on tests and skips, is copied unchanged.
    """
    out = {v: values[(src, v)] for v in variables if (src, v) in values}
    kind = action[0]
    if kind in ("test", "skip"):
        return out
    t = action[1]
    out.pop(t, None)
    if kind == "const":
        if (src, t) in values:
            out[t] = dom.const(action[2])
    elif kind == "copy":
        if (src, action[2]) in values:
            out[t] = values[(src, action[2])]
    else:
        _, _, op, a, b = action
        used = [o[1] for o in (a, b) if o[0] == "var"] or [t]
        if all((src, v) in values for v in used):
            def value(o):
                return values[(src, o[1])] if o[0] == "var" else dom.const(o[1])
            out[t] = dom.apply(op, value(a), value(b))
    return out


def ring_solution(g: Ring, dom) -> dict:
    """Least {(state, var): value} above top at the initial state.

    Absent keys are bottom.  Round-robin iteration to the fixpoint; the
    domains are finite, so it terminates.
    """
    values = {(0, v): dom.top for v in g.variables}
    changed = True
    while changed:
        changed = False
        for src, action, dst in g.edges:
            for v, new in _transfer(dom, values, src, action, g.variables).items():
                old = values.get((dst, v))
                joined = new if old is None else dom.join(old, new)
                if joined != old:
                    values[(dst, v)] = joined
                    changed = True
    return values


def ring_leaves(dom, solution: dict, tag: str) -> dict:
    return {f"A({state_name(tag, s)},{v})": dom.render(value)
            for (s, v), value in solution.items()}


_CMP = {"<": lambda a, b: a < b, ">=": lambda a, b: a >= b, "!=": lambda a, b: a != b}
_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}

CONCRETE_STARTS = (-2, 0, 1, 4)
CONCRETE_STEPS = 3 * 40
CONCRETE_CONFIGS = 40_000


def concrete_values(g: Ring) -> dict:
    """{(state, var): set of values} seen by bounded concrete executions.

    Every variable starts at each value of CONCRETE_STARTS; breadth-first
    search runs for CONCRETE_STEPS steps or until CONCRETE_CONFIGS
    configurations have been seen.
    """
    out_edges: dict[int, list] = {}
    for src, action, dst in g.edges:
        out_edges.setdefault(src, []).append((action, dst))
    slot = {v: i for i, v in enumerate(g.variables)}
    starts = [()]
    for _ in g.variables:
        starts = [s + (n,) for s in starts for n in CONCRETE_STARTS]
    seen = {(0, s) for s in starts}
    frontier = deque((0, s, 0) for s in starts)
    while frontier and len(seen) < CONCRETE_CONFIGS:
        state, store, depth = frontier.popleft()
        if depth == CONCRETE_STEPS:
            continue
        for action, dst in out_edges.get(state, ()):
            kind = action[0]
            new = store
            if kind == "test":
                if not _CMP[action[2]](store[slot[action[1]]], action[3]):
                    continue
            elif kind != "skip":
                if kind == "const":
                    value = action[2]
                elif kind == "copy":
                    value = store[slot[action[2]]]
                else:
                    _, _, op, a, b = action
                    operand = [store[slot[o[1]]] if o[0] == "var" else o[1] for o in (a, b)]
                    value = _ARITH[op](*operand)
                new = list(store)
                new[slot[action[1]]] = value
                new = tuple(new)
            if (dst, new) not in seen:
                seen.add((dst, new))
                frontier.append((dst, new, depth + 1))
    values: dict = {}
    for state, store in seen:
        for v, n in zip(g.variables, store):
            values.setdefault((state, v), set()).add(n)
    return values


def unsound(dom, leaves: dict, observed: dict, tag: str, limit: int = 3) -> list[str]:
    """Concrete values that a dumped leaf fails to cover."""
    out = []
    for (s, v), ns in sorted(observed.items()):
        key = f"A({state_name(tag, s)},{v})"
        text = leaves.get(key)
        value = None if text is None else dom.parse(text)
        missed = sorted(n for n in ns if value is None or not dom.covers(value, n))
        if missed:
            out.append(f"{key} = {text or 'bot'} misses concrete value {missed[0]}")
            if len(out) == limit:
                break
    return out
