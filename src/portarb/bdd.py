"""Reduced ordered binary decision diagrams with hash-consing and a memoized
apply, used to evaluate rule constraints and decide satisfiability."""

from __future__ import annotations

from typing import Mapping

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

    Variable order is first-appearance order of `var` calls; there is no
    reordering (rule sets stay at tens of variables).
    """

    def __init__(self, use_cache: bool = True):
        self.order: list[str] = []
        self._var_index: dict[str, int] = {}
        self._nodes: list[tuple[int, int, int] | None] = [None, None]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}
        self._use_cache = use_cache

    def __len__(self) -> int:
        return len(self._nodes) - 2

    def var(self, port: str) -> int:
        """Node for the single-variable function; unseen ports extend the order."""
        if port not in self._var_index:
            self._var_index[port] = len(self.order)
            self.order.append(port)
        return self._mk(self._var_index[port], FALSE, TRUE)

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

    def negate(self, a: int) -> int:
        if a == TRUE:
            return FALSE
        if a == FALSE:
            return TRUE
        key = ("not", a)
        if self._use_cache and key in self._cache:
            return self._cache[key]
        level, low, high = self._nodes[a]
        result = self._mk(level, self.negate(low), self.negate(high))
        if self._use_cache:
            self._cache[key] = result
        return result

    def combine(self, op: str, a: int, b: int) -> int:
        """Shannon-expansion apply for AND/OR; result is reduced and ordered."""
        if op == AND:
            if a == FALSE or b == FALSE:
                return FALSE
            if a == TRUE:
                return b
            if b == TRUE:
                return a
            if a == b:
                return a
        elif op == OR:
            if a == TRUE or b == TRUE:
                return TRUE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == b:
                return a
        else:
            raise ValueError(f"unknown operation {op!r}")
        key = (op, a, b) if a <= b else (op, b, a)
        if self._use_cache and key in self._cache:
            return self._cache[key]
        level_a = self._nodes[a][0]
        level_b = self._nodes[b][0]
        level = min(level_a, level_b)
        a_low, a_high = (self._nodes[a][1], self._nodes[a][2]) if level_a == level else (a, a)
        b_low, b_high = (self._nodes[b][1], self._nodes[b][2]) if level_b == level else (b, b)
        result = self._mk(
            level, self.combine(op, a_low, b_low), self.combine(op, a_high, b_high)
        )
        if self._use_cache:
            self._cache[key] = result
        return result

    def build(self, expr: BoolExpr) -> int:
        """Bottom-up construction of an expression's BDD."""
        if isinstance(expr, TrueExpr):
            return TRUE
        if isinstance(expr, FalseExpr):
            return FALSE
        if isinstance(expr, Lit):
            return self.var(expr.port)
        if isinstance(expr, Not):
            return self.negate(self.build(expr.child))
        if isinstance(expr, (And, Or)):
            op = AND if isinstance(expr, And) else OR
            refs = [self.build(child) for child in expr.children]
            # deepest top variable first: each later operand then sits wholly
            # above the result so far, so a cube of k literals takes O(k) apply
            # steps and no intermediate nodes (the children, built first, fix
            # the variable order)
            refs.sort(key=self._top_level, reverse=True)
            result = refs[0]
            for ref in refs[1:]:
                result = self.combine(op, result, ref)
            return result
        raise TypeError(f"not a BoolExpr: {expr!r}")

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

    def satisfiable(self, node: int) -> bool:
        return node != FALSE

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

    def size(self, node: int) -> int:
        """Number of internal nodes reachable from `node`."""
        seen: set[int] = set()

        def visit(ref: int) -> None:
            if ref <= TRUE or ref in seen:
                return
            seen.add(ref)
            _, low, high = self._nodes[ref]
            visit(low)
            visit(high)

        visit(node)
        return len(seen)

    def to_dot(self, node: int) -> str:
        """GraphViz rendering for debugging (dashed edge = low/false branch)."""
        lines = ["digraph bdd {"]
        seen: set[int] = set()

        def visit(ref: int) -> None:
            if ref in seen:
                return
            seen.add(ref)
            if ref <= TRUE:
                lines.append(f'  n{ref} [label="{ref}", shape=box];')
                return
            level, low, high = self._nodes[ref]
            lines.append(f'  n{ref} [label="{self.order[level]}"];')
            visit(low)
            visit(high)
            lines.append(f"  n{ref} -> n{low} [style=dashed];")
            lines.append(f"  n{ref} -> n{high};")

        visit(node)
        lines.append("}")
        return "\n".join(lines) + "\n"
