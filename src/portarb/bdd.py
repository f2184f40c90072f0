"""Reduced ordered binary decision diagrams with hash-consing and a memoized
apply, used to evaluate rule constraints and decide satisfiability."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .model import And, BoolExpr, FalseExpr, Lit, Not, Or, TrueExpr

FALSE = 0
TRUE = 1

AND = "and"
OR = "or"


class BddManager:
    """Canonical ROBDD store.

    Node references are plain ints: 0 and 1 are the constant sinks, any
    other ref indexes an internal (level, low, high) triple. The unique
    table guarantees that equal functions get equal refs, so reference
    equality coincides with functional equality.

    Variable order is `order` (if given) followed by first-appearance order
    of the ports that `var` and `build` meet; there is no reordering. The
    order grows with the model: the rules of a 1,024-leaf model order 1,024
    variables and name about 240 of them each, so the recursions below
    keep an explicit stack and a cube is built as one chain of nodes.
    """

    def __init__(self, order: Iterable[str] = ()):
        self.order: list[str] = []
        self._var_index: dict[str, int] = {}
        for port in order:
            self._level(port)
        self._nodes: list[tuple[int, int, int] | None] = [None, None]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}

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
            self._nodes.append(key)
            ref = len(self._nodes) - 1
            self._unique[key] = ref
        return ref

    def _top_level(self, ref: int) -> int:
        """Level of a ref's top variable; the constants sit below every level."""
        return self._nodes[ref][0] if ref > TRUE else len(self.order)

    # negate and combine are the memoized Shannon recursions, run on an
    # explicit stack (as in the apply of Brace, Rudell and Bryant, DAC 1990)
    # so their depth is bounded by memory, not by Python's recursion limit. A
    # frame is either a pending operand (key None) or, once both cofactors
    # are pending above it, the reduction that pops their two results.

    def negate(self, a: int) -> int:
        nodes, cache, mk = self._nodes, self._cache, self._mk
        results: list[int] = []
        work: list[tuple[int, tuple | None]] = [(a, None)]
        while work:
            ref, key = work.pop()
            if key is not None:
                high = results.pop()
                low = results.pop()
                result = cache[key] = mk(nodes[ref][0], low, high)
                results.append(result)
                continue
            if ref <= TRUE:
                results.append(FALSE if ref == TRUE else TRUE)
                continue
            key = ("not", ref)
            result = cache.get(key)
            if result is not None:
                results.append(result)
                continue
            _, low, high = nodes[ref]
            work += ((ref, key), (high, None), (low, None))
        return results[0]

    def combine(self, op: str, a: int, b: int) -> int:
        """Shannon-expansion apply for AND/OR; result is reduced and ordered."""
        if op == AND:
            absorbing, unit = FALSE, TRUE
        elif op == OR:
            absorbing, unit = TRUE, FALSE
        else:
            raise ValueError(f"unknown operation {op!r}")
        nodes, cache, mk = self._nodes, self._cache, self._mk
        results: list[int] = []
        work: list[tuple[int, int, tuple | None]] = [(a, b, None)]
        while work:
            a, b, key = work.pop()
            if key is not None:  # a is the level here
                high = results.pop()
                low = results.pop()
                result = cache[key] = mk(a, low, high)
                results.append(result)
                continue
            if a == absorbing or b == absorbing:
                results.append(absorbing)
                continue
            if a == unit or a == b:
                results.append(b)
                continue
            if b == unit:
                results.append(a)
                continue
            key = (op, a, b) if a <= b else (op, b, a)
            result = cache.get(key)
            if result is not None:
                results.append(result)
                continue
            level_a, a_low, a_high = nodes[a]
            level_b, b_low, b_high = nodes[b]
            if level_a < level_b:
                level, b_low, b_high = level_a, b, b
            elif level_b < level_a:
                level, a_low, a_high = level_b, a, a
            else:
                level = level_a
            work += ((level, 0, key), (a_high, b_high, None), (a_low, b_low, None))
        return results[0]

    def build(self, expr: BoolExpr) -> int:
        """Bottom-up construction of an expression's BDD."""
        if isinstance(expr, TrueExpr):
            return TRUE
        if isinstance(expr, FalseExpr):
            return FALSE
        if isinstance(expr, Lit):
            return self.var(expr.port)
        if isinstance(expr, Not):
            if isinstance(expr.child, Lit):
                return self._mk(self._level(expr.child.port), TRUE, FALSE)
            return self.negate(self.build(expr.child))
        if isinstance(expr, (And, Or)):
            if isinstance(expr, And):
                cube = self._cube(expr.children)
                if cube is not None:
                    return cube
            op = AND if isinstance(expr, And) else OR
            refs = [self.build(child) for child in expr.children]
            # deepest top variable first: an operand that sits wholly above
            # the result so far is joined in one apply step per node of its
            # own (the children, built first, fix the variable order)
            refs.sort(key=self._top_level, reverse=True)
            result = refs[0]
            for ref in refs[1:]:
                result = self.combine(op, result, ref)
            return result
        raise TypeError(f"not a BoolExpr: {expr!r}")

    def _cube(self, children: tuple[BoolExpr, ...]) -> int | None:
        """The conjunction of `children` if each is a literal or a negated
        literal, else None. The ports are registered in child order, as the
        general path would; the result is one chain of nodes made bottom up,
        deepest level first, so nothing else is made on the way. A repeated
        literal counts once, and `p and not p` gives FALSE."""
        values: dict[int, bool] = {}
        contradiction = False
        for child in children:
            if isinstance(child, Lit):
                level, value = self._level(child.port), True
            elif isinstance(child, Not) and isinstance(child.child, Lit):
                level, value = self._level(child.child.port), False
            else:
                return None
            if values.setdefault(level, value) != value:
                contradiction = True
        if contradiction:
            return FALSE
        mk = self._mk
        result = TRUE
        for level in sorted(values, reverse=True):
            result = mk(level, FALSE, result) if values[level] else mk(level, result, FALSE)
        return result

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        """Follow low/high edges to a sink; missing ports count as inactive."""
        ref = node
        while ref > TRUE:
            level, low, high = self._nodes[ref]
            ref = high if assignment.get(self.order[level], False) else low
        return ref == TRUE

    def evaluate_mask(self, node: int, mask: int) -> bool:
        """`evaluate` with the assignment packed into an int: bit i holds the
        value of the variable at level i, and levels past the mask's highest
        bit read false."""
        ref = node
        nodes = self._nodes
        while ref > TRUE:
            level, low, high = nodes[ref]
            ref = high if mask >> level & 1 else low
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
