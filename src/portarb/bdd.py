"""Reduced ordered binary decision diagrams with hash-consing. Their one
operation is `ite`, the memoized if-then-else: every conjunction,
disjunction and negation is made with it. A condition is decided from its
literals if it is a cube (`model.cube_literals`: the arbiter, the conflict
check and `explain` read them) and otherwise by `evaluate` over its BDD, so
BDDs are built only for conditions with a disjunction, `false` or a nested
`not`."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .model import And, BoolExpr, FalseExpr, Not, Or, cube_literals

FALSE = 0
TRUE = 1


class BddManager:
    """Canonical ROBDD store.

    Node references are plain ints: 0 and 1 are the constant sinks, any
    other ref indexes an internal (level, low, high) triple. The unique
    table guarantees that equal functions get equal refs, so reference
    equality coincides with functional equality.

    Variable order is `order` (if given) followed by first-appearance order
    of the ports that `var` and `build` meet; there is no reordering. A
    rule's BDD may be a chain of hundreds of levels, so `ite` keeps an
    explicit stack and a cube is built as one chain of nodes.
    """

    def __init__(self, order: Iterable[str] = ()):
        self.order: list[str] = []
        self._var_index: dict[str, int] = {}
        for port in order:
            self._level(port)
        self._nodes: list[tuple[int, int, int] | None] = [None, None]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple[int, int, int], int] = {}

    def __len__(self) -> int:
        return len(self._nodes) - 2

    def _level(self, port: str) -> int:
        """The port's level; an unseen port extends the order."""
        level = self._var_index.get(port)
        if level is None:
            level = self._var_index[port] = len(self.order)
            self.order.append(port)
        return level

    def var(self, port: str) -> int:
        """Node for the single-variable function."""
        return self._mk(self._level(port), FALSE, TRUE)

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        ref = self._unique.get(key)
        if ref is None:
            ref = self._unique[key] = len(self._nodes)
            self._nodes.append(key)
        return ref

    def ite(self, f: int, g: int, h: int) -> int:
        """If f then g else h: the one memoized Shannon expansion (the ITE of
        Brace, Rudell and Bryant, DAC 1990), run on an explicit stack so its
        depth is bounded by memory, not by Python's recursion limit. A frame
        is either a pending triple or, once both its cofactors are pending
        above it, `(triple, level, None)`: the reduction that pops their two
        results. The AND and OR triples `ite(f, g, 0)` and `ite(f, 1, h)` are
        commutative and are cached with their two operands in ref order."""
        nodes, cache, mk = self._nodes, self._cache, self._mk
        results: list[int] = []
        push = results.append
        work: list[tuple] = [(f, g, h)]
        pop = work.pop
        while work:
            f, g, h = pop()
            if h is None:  # the reduction of triple f, at level g
                high = results.pop()
                results[-1] = cache[f] = mk(g, results[-1], high)
                continue
            if f <= TRUE:
                push(g if f else h)
                continue
            if g == h:
                push(g)
                continue
            if h == FALSE:  # f and g
                if g == TRUE or g == f:
                    push(f)
                    continue
                if g < f:
                    f, g = g, f
            elif g == TRUE:  # f or h
                if h == f:
                    push(f)
                    continue
                if h < f:
                    f, h = h, f
            key = (f, g, h)
            result = cache.get(key)
            if result is not None:
                push(result)
                continue
            # a sink is its own cofactor below every level, so only nodes are looked up
            level, f_low, f_high = nodes[f]
            g_low = g_high = g
            if g > TRUE:
                g_level, g_low, g_high = nodes[g]
                if g_level < level:
                    level = g_level
                    f_low = f_high = f
                elif g_level != level:
                    g_low = g_high = g
            h_low = h_high = h
            if h > TRUE:
                h_level, h_low, h_high = nodes[h]
                if h_level < level:
                    level = h_level
                    f_low = f_high = f
                    g_low = g_high = g
                elif h_level != level:
                    h_low = h_high = h
            work += ((key, level, None), (f_high, g_high, h_high), (f_low, g_low, h_low))
        return results[0]

    def build(self, expr: BoolExpr) -> int:
        """Bottom-up construction of an expression's BDD. A cube (see
        `cube_literals`) is one chain of nodes made bottom up, deepest level
        first, so nothing else is made on the way: a repeated literal counts
        once, and `p and not p` gives FALSE. Its ports are registered in
        literal order, as for any other expression's in pre-order."""
        literals = cube_literals(expr)
        if literals is not None:
            values = {self._level(port): value for port, value in literals}
            if len(values) != len(set(literals)):  # a port needed true and false
                return FALSE
            mk = self._mk
            result = TRUE
            for level in sorted(values, reverse=True):
                result = mk(level, FALSE, result) if values[level] else mk(level, result, FALSE)
            return result
        if isinstance(expr, FalseExpr):
            return FALSE
        if isinstance(expr, Not):
            return self.ite(self.build(expr.child), FALSE, TRUE)
        if isinstance(expr, (And, Or)):
            conjunction = isinstance(expr, And)
            refs = [self.build(child) for child in expr.children]
            # deepest top variable first: an operand that sits wholly above
            # the result so far is joined in one apply step per node of its
            # own (the children, built first, fix the variable order)
            bottom = len(self.order)  # the level of the sinks
            refs.sort(key=lambda ref: self._nodes[ref][0] if ref > TRUE else bottom,
                      reverse=True)
            result = refs[0]
            for ref in refs[1:]:
                result = self.ite(result, ref, FALSE) if conjunction else self.ite(result, TRUE, ref)
            return result
        raise TypeError(f"not a BoolExpr: {expr!r}")

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        """Follow low/high edges to a sink; missing ports count as inactive."""
        ref = node
        while ref > TRUE:
            level, low, high = self._nodes[ref]
            ref = high if assignment.get(self.order[level], False) else low
        return ref == TRUE

    def first_satisfying(self, node: int) -> list[tuple[str, bool]] | None:
        """Lexicographically smallest satisfying assignment over the variable
        order (false preferred). Only decision-path variables are listed;
        everything omitted may be taken as false."""
        if node == FALSE:
            return None
        path: list[tuple[str, bool]] = []
        ref = node
        while ref > TRUE:
            level, low, high = self._nodes[ref]
            # every stored non-FALSE ref can reach TRUE, so prefer the low edge
            if low != FALSE:
                path.append((self.order[level], False))
                ref = low
            else:
                path.append((self.order[level], True))
                ref = high
        return path
