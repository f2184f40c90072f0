"""BDD engine against an exhaustive truth-table oracle."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import EXPR_PORTS, expressions
from portarb import And, BddManager, Lit, Not, Or
from portarb.bdd import FALSE, TRUE
from portarb.model import FALSE as FALSE_EXPR, TRUE as TRUE_EXPR

R = "/RestArm/pos:o"
O = "/Object/pos:o"
C = "/collision:o"


def tt_eval(expr, assignment):
    """Independent recursive evaluator used as the oracle."""
    if expr == TRUE_EXPR:
        return True
    if expr == FALSE_EXPR:
        return False
    if isinstance(expr, Lit):
        return assignment.get(expr.port, False)
    if isinstance(expr, Not):
        return not tt_eval(expr.child, assignment)
    if isinstance(expr, And):
        return all(tt_eval(c, assignment) for c in expr.children)
    if isinstance(expr, Or):
        return any(tt_eval(c, assignment) for c in expr.children)
    raise TypeError(expr)


def expr_ports(expr, out=None):
    if out is None:
        out = []
    if isinstance(expr, Lit):
        if expr.port not in out:
            out.append(expr.port)
    elif isinstance(expr, Not):
        expr_ports(expr.child, out)
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            expr_ports(child, out)
    return out


def assignments_over(ports):
    for values in itertools.product((False, True), repeat=len(ports)):
        yield dict(zip(ports, values))


def test_var_is_hash_consed():
    m = BddManager()
    assert m.var("/a:o") == m.var("/a:o")


def test_var_evaluates_to_its_assignment():
    m = BddManager()
    node = m.var("/a:o")
    assert m.evaluate(node, {"/a:o": True}) is True
    assert m.evaluate(node, {"/a:o": False}) is False
    assert m.evaluate(node, {}) is False  # missing means inactive


def test_contradiction_and_absorption():
    m = BddManager()
    x = m.var("/x:o")
    assert m.ite(x, m.ite(x, FALSE, TRUE), FALSE) == FALSE
    assert m.ite(x, TRUE, TRUE) == TRUE


def fold_left(m, expr):
    """Reference build: children first, then combined left to right by `ite`."""
    if expr == TRUE_EXPR:
        return TRUE
    if expr == FALSE_EXPR:
        return FALSE
    if isinstance(expr, Lit):
        return m.var(expr.port)
    if isinstance(expr, Not):
        return m.ite(fold_left(m, expr.child), FALSE, TRUE)
    refs = [fold_left(m, child) for child in expr.children]
    result = refs[0]
    for ref in refs[1:]:
        result = m.ite(result, ref, FALSE) if isinstance(expr, And) else m.ite(result, TRUE, ref)
    return result


@settings(max_examples=200, deadline=None)
@given(expressions(max_leaves=12), st.booleans())
@example(And((Lit("/x:o"), Not(Lit("/y:o")))), False)
def test_build_equals_manual_combine(expr, reference_first):
    m = BddManager()
    if reference_first:
        manual = fold_left(m, expr)
        built = m.build(expr)
    else:
        built = m.build(expr)
        manual = fold_left(m, expr)
    assert built == manual


_CUBE_PORTS = ("/a:o", "/b:o", "/c:o", "/d:o", "/e:o")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_CUBE_PORTS), st.booleans()), min_size=1, max_size=8),
    st.lists(st.sampled_from(_CUBE_PORTS), unique=True),
    st.booleans(),
)
@example([("/a:o", True), ("/a:o", True), ("/b:o", False)], [], True)
@example([("/a:o", True), ("/b:o", False), ("/a:o", False)], ["/b:o"], False)
def test_cube_build_equals_the_negate_combine_fold(literals, registered, cube_first):
    # a conjunction of literals and negated literals, some repeated or
    # contradictory, over ports some of which the manager already knows
    cube = And(tuple(Lit(p) if positive else Not(Lit(p)) for p, positive in literals))

    def manager():
        m = BddManager()
        for port in registered:
            m.var(port)
        return m

    m = manager()
    if cube_first:
        built = m.build(cube)
        folded = fold_left(m, cube)
    else:
        folded = fold_left(m, cube)
        built = m.build(cube)
    assert built == folded
    # the same variable order as the fold makes in a manager of its own
    alone, fresh = manager(), manager()
    fold_left(alone, cube)
    fresh.build(cube)
    assert fresh.order == alone.order


def _deep_and_of_negations(m, n):
    return m.build(And(tuple(Not(Lit(f"/p{i}:o")) for i in range(n))))


def _deep_or(m, n):
    return m.build(Or(tuple(Lit(f"/p{i}:o") for i in range(n))))


def _deep_reversed_and(m, n):
    return m.build(And(tuple(Lit(f"/p{i}:o") for i in reversed(range(n)))))


@pytest.mark.parametrize("build", [_deep_and_of_negations, _deep_or, _deep_reversed_and])
def test_deep_flat_conditions_build_in_linear_size(build):
    # a left-to-right fold recursed once per literal already in the result
    n = 5000
    m = BddManager()
    node = build(m, n)
    assert len(m) <= 3 * n
    # each of these functions has one node per variable on its first
    # satisfying path
    assert len(m.first_satisfying(node)) == n


def test_apply_and_negate_walk_deep_chains():
    # both recursed once per level: a variable below a 5,000-node chain
    # made them walk the whole chain
    n = 5000
    m = BddManager()
    chain = m.build(And(tuple(Lit(f"/p{i}:o") for i in range(n))))
    below = m.var("/z:o")
    both = m.ite(chain, below, FALSE)
    assert m.first_satisfying(both) == [(f"/p{i}:o", True) for i in range(n)] + [("/z:o", True)]
    negated = m.ite(both, FALSE, TRUE)
    assert m.first_satisfying(negated) == [("/p0:o", False)]
    assert m.ite(both, TRUE, negated) == TRUE
    assert m.ite(negated, both, FALSE) == FALSE
    assert m.ite(negated, FALSE, TRUE) == both


def test_build_constants():
    m = BddManager()
    assert m.build(TRUE_EXPR) == TRUE
    assert m.build(FALSE_EXPR) == FALSE


def test_restarm_rule_is_a_three_variable_chain():
    # true only at (RestArm=1, Object=0, collision=0)
    m = BddManager()
    node = m.build(And((Lit(R), Not(Lit(O)), Not(Lit(C)))))
    # the chain R -> O -> not-C and nothing else: a cube is built as one
    # chain, with no node per conjunct on the way
    assert len(m) == 3
    assert m.first_satisfying(node) == [(R, True), (O, False), (C, False)]
    for sigma in assignments_over([R, O, C]):
        expected = sigma[R] and not sigma[O] and not sigma[C]
        assert m.evaluate(node, sigma) == expected


def test_object_rule_truth_points():
    m = BddManager()
    node = m.build(And((Lit(O), Not(Lit(C)))))
    assert m.evaluate(node, {O: True, C: True}) is False
    assert m.evaluate(node, {O: True, C: False}) is True


def test_satisfiable():
    m = BddManager()
    assert m.first_satisfying(FALSE) is None
    assert m.first_satisfying(m.var("/x:o")) == [("/x:o", True)]


def test_arm_rules_are_mutually_exclusive():
    # both arm constraints plus both candidates active: jointly unsatisfiable
    m = BddManager()
    joint = m.build(And((
        Lit(R), Lit(O),
        Not(Lit(O)), Not(Lit(C)),  # RestArm constraint (variant form)
        Not(Lit(C)),               # Object constraint
    )))
    assert joint == FALSE and m.first_satisfying(joint) is None
    # cross-check by enumeration over the three variables
    expr = And((Lit(R), Lit(O), Not(Lit(O)), Not(Lit(C))))
    assert not any(tt_eval(expr, sigma) for sigma in assignments_over([R, O, C]))


def test_no_redundant_nodes_ever_stored():
    m = BddManager()
    for _ in range(3):
        m.build(Or((And((Lit("/a:o"), Lit("/b:o"))), Not(Lit("/c:o")), Lit("/a:o"))))
        m.ite(m.var("/d:o"), FALSE, TRUE)
    for node in m._nodes[2:]:
        _, low, high = node
        assert low != high


def test_first_satisfying_prefers_false():
    m = BddManager()
    node = m.ite(m.var("/a:o"), TRUE, m.var("/b:o"))
    # lexicographically smallest satisfying assignment: a=false, b=true
    assert m.first_satisfying(node) == [("/a:o", False), ("/b:o", True)]
    assert m.first_satisfying(FALSE) is None
    assert m.first_satisfying(TRUE) == []


@settings(max_examples=200, deadline=None)
@given(expressions(max_leaves=12))
def test_evaluate_matches_truth_table(expr):
    m = BddManager()
    node = m.build(expr)
    for sigma in assignments_over(expr_ports(expr)):
        assert m.evaluate(node, sigma) == tt_eval(expr, sigma)


@settings(max_examples=200, deadline=None)
@given(expressions(max_leaves=8), expressions(max_leaves=8))
def test_canonicity(e1, e2):
    m = BddManager()
    n1, n2 = m.build(e1), m.build(e2)
    ports = expr_ports(e1)
    for p in expr_ports(e2):
        if p not in ports:
            ports.append(p)
    equal = all(tt_eval(e1, sigma) == tt_eval(e2, sigma) for sigma in assignments_over(ports))
    assert (n1 == n2) == equal


ITE_PORTS = EXPR_PORTS[:5]
_A, _B = (Lit(p) for p in ITE_PORTS[:2])


@settings(max_examples=300, deadline=None)
@given(*[expressions(max_leaves=6, ports=ITE_PORTS)] * 3, st.permutations(ITE_PORTS))
@example(TRUE_EXPR, _A, _B, ITE_PORTS)  # constant operands
@example(FALSE_EXPR, _A, _B, ITE_PORTS)
@example(_A, TRUE_EXPR, FALSE_EXPR, ITE_PORTS)
@example(_A, FALSE_EXPR, TRUE_EXPR, ITE_PORTS)
@example(_A, TRUE_EXPR, _B, ITE_PORTS)
@example(_A, _B, FALSE_EXPR, ITE_PORTS)
@example(FALSE_EXPR, TRUE_EXPR, FALSE_EXPR, ITE_PORTS)
@example(_A, _B, _B, ITE_PORTS)  # g == h
@example(_A, FALSE_EXPR, FALSE_EXPR, ITE_PORTS)
@example(Or((_A, Not(_B))), And((_A, _B)), And((_A, _B)), ITE_PORTS)
@example(_A, _A, _B, ITE_PORTS)  # f == g, f == h
@example(_A, _B, _A, ITE_PORTS)
# h's top variable above those of f and g, which share theirs
@example(_A, And((_A, _B)), Lit(ITE_PORTS[4]), ITE_PORTS[4:] + ITE_PORTS[:4])
def test_ite_is_if_then_else(f, g, h, order):
    # the order is drawn, so any operand's top variable may be the highest
    m = BddManager(order)
    result = m.ite(m.build(f), m.build(g), m.build(h))
    assert result == m.build(Or((And((f, g)), And((Not(f), h)))))
    for sigma in assignments_over(ITE_PORTS):
        chosen = g if tt_eval(f, sigma) else h
        assert m.evaluate(result, sigma) == tt_eval(chosen, sigma)
