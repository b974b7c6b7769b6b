import functools
import re

import pytest

from p4spec.constructions import CASE_IV_KINDS, FAMILY_IDS, case_iv_graph, family, standard, \
    thick_spider, thin_spider
from p4spec.dsl import MAX_DEPTH, DslError, parse_dsl
from p4spec.graphs import complement, disjoint_union, join


def test_atoms():
    assert parse_dsl("K3") == standard("complete", 3)
    assert parse_dsl("E4") == standard("empty", 4)
    assert parse_dsl("P4") == standard("path", 4)
    assert parse_dsl("C6") == standard("cycle", 6)


def test_constructor_calls():
    assert parse_dsl("path(4)") == standard("path", 4)
    assert parse_dsl("cycle(6)") == standard("cycle", 6)
    assert parse_dsl("complete(3)") == standard("complete", 3)
    assert parse_dsl("empty(2)") == standard("empty", 2)


def test_union_and_join():
    assert parse_dsl("union(K2,K2)") == disjoint_union(
        standard("complete", 2), standard("complete", 2))
    assert parse_dsl("join(E2,E2)") == join(standard("empty", 2), standard("empty", 2))
    three = parse_dsl("union(K1,K1,K1)")
    assert three == standard("empty", 3)


def test_nesting():
    got = parse_dsl("join(K1, union(K1, K1))")
    assert got == join(standard("complete", 1), standard("empty", 2))


def test_spider_expressions():
    assert parse_dsl("spider(thin,k=4,head=K3)") == thin_spider(4, standard("complete", 3))
    assert parse_dsl("spider(thick,k=3)") == thick_spider(3, None)
    assert parse_dsl("spider(thin, k=2, head=cycle(5))") == thin_spider(
        2, standard("cycle", 5))


def test_family_expressions():
    assert parse_dsl("family(F3)") == family("F3")
    assert parse_dsl("family(P4)") == family("P4")


def test_caseiv_expressions():
    assert parse_dsl("caseiv(F5,head=E2)") == case_iv_graph("F5", standard("empty", 2))
    assert parse_dsl("caseiv(F3)") == case_iv_graph("F3")


def test_whitespace_tolerated():
    assert parse_dsl("  union( K2 ,  K2 )  ") == parse_dsl("union(K2,K2)")


def test_errors_carry_position():
    with pytest.raises(DslError) as exc:
        parse_dsl("union(K2")
    assert "position" in str(exc.value)


# Each input holds one fault, and the error names it: message and position.
_MALFORMED = {
    "": "expected an expression, got 'end of input' (at position 0)",
    "union()": "union needs at least two operands (at position 0)",
    "union(K2)": "union needs at least two operands (at position 0)",
    "union(K2,k=K1)": "union takes no keywords (at position 0)",
    "spider(k=2)": "expected 1 positional argument(s), got 0 (at position 0)",
    "spider(thin)": "spider needs k=<int> (at position 0)",
    "spider(fat,k=2)": "spider kind must be thin or thick, got 'fat' (at position 7)",
    "spider(3,k=2)": "spider kind must be a bare name (at position 7)",
    "spider(thin,k=K2)": "k must be an integer (at position 14)",
    "spider(thin,k=1)": "a spider needs k >= 2 (at position 0)",
    # the duplicate is reported at its value
    "spider(thin,k=2,head=K3,head=K3)": "duplicate keyword 'head' (at position 29)",
    "spider(thin,k=2,legs=K3)": "unknown keyword 'legs' (at position 21)",
    "spider(thin,head=K1,k=2,K3)":
        "positional argument after keyword argument (at position 24)",
    "family(F9)": "unknown family id 'F9' (at position 7)",
    "caseiv(F0)": "unknown seed kind 'F0' (at position 7)",
    "caseiv(F3,tail=K1)": "unknown keyword 'tail' (at position 15)",
    "foo(K1)": "unknown constructor 'foo' (at position 0)",
    "cycle(2)": "a cycle needs at least 3 vertices (at position 0)",
    "path()": "expected 1 positional argument(s), got 0 (at position 0)",
    "path(4,5)": "expected 1 positional argument(s), got 2 (at position 0)",
    "path(1,k=2)": "unknown keyword 'k' (at position 9)",
    "K0": "a complete graph needs at least 1 vertex (at position 0)",
    "Q5": "unknown graph atom 'Q5' (at position 0)",
    "join(K1,Q5)": "unknown graph atom 'Q5' (at position 8)",
    "union(K2,K2))": "trailing input ')' (at position 12)",
    "union(K2 K2)": "expected ')', got 'K2' (at position 9)",
    "union(K2": "expected ')', got 'end of input' (at position 8)",
    "join(K2,)": "expected an expression, got ')' (at position 8)",
    "path(x)": "path size must be an integer (at position 5)",
    "4": "expected a graph expression, got a number (at position 0)",
    "K1 $": "unexpected character '$' (at position 3)",
    # more digits than int() converts under the interpreter's default limit
    "path(" + "9" * 5000 + ")": "integer of 5000 digits is too long (at position 5)",
    "K" + "9" * 5000: "integer of 5000 digits is too long (at position 0)",
}


@pytest.mark.parametrize("bad", list(_MALFORMED))
def test_rejects_malformed(bad):
    with pytest.raises(DslError) as exc:
        parse_dsl(bad)
    assert str(exc.value) == _MALFORMED[bad]
    assert exc.value.pos == int(_MALFORMED[bad].rsplit(" ", 1)[1][:-1])


@pytest.mark.parametrize("text, message", [
    # a call is checked when its ")" is read, after the calls nested in it
    ("union(family(F9))", "unknown family id 'F9' (at position 13)"),
    ("join(K1)=", "join needs at least two operands (at position 0)"),
    ("foo(K1 K1)", "expected ')', got 'K1' (at position 7)"),
    # within a call, the positional argument is checked before a keyword value
    ("spider(fat,k=2,head=K99)", "spider kind must be thin or thick, got 'fat' (at position 7)"),
])
def test_reports_the_first_fault_reading_left_to_right(text, message):
    with pytest.raises(DslError) as exc:
        parse_dsl(text)
    assert str(exc.value) == message


def test_atom_vs_call_equivalence():
    assert parse_dsl("K5") == parse_dsl("complete(5)")
    assert parse_dsl("C5") == parse_dsl("cycle(5)")
    assert parse_dsl("P3") == parse_dsl("path(3)")
    assert parse_dsl("E1") == parse_dsl("empty(1)")


def test_complement_expressions():
    assert parse_dsl("complement(P4)") == complement(standard("path", 4))
    # the complement of a union is the join of the complements
    assert parse_dsl("complement(union(K2,K2))") == join(standard("empty", 2),
                                                         standard("empty", 2))
    assert parse_dsl("complement(complement(C5))") == standard("cycle", 5)
    assert parse_dsl("complement(K3)") == standard("empty", 3)
    assert parse_dsl("join(K1, complement(E2))") == standard("complete", 3)


_COMPLEMENT_ERRORS = {
    "complement()": "expected 1 positional argument(s), got 0 (at position 0)",
    "complement(K2,K3)": "expected 1 positional argument(s), got 2 (at position 0)",
    "complement(g=K2)": "unknown keyword 'g' (at position 13)",
    "complement(3)": "expected a graph expression, got a number (at position 11)",
}


@pytest.mark.parametrize("text", list(_COMPLEMENT_ERRORS))
def test_complement_errors(text):
    with pytest.raises(DslError) as exc:
        parse_dsl(text)
    assert str(exc.value) == _COMPLEMENT_ERRORS[text]


def test_nesting_depth_is_bounded():
    def nested(depth):
        return "complement(" * depth + "P4" + ")" * depth

    assert parse_dsl(nested(MAX_DEPTH)) == standard("path", 4)
    with pytest.raises(DslError, match="nested deeper"):
        parse_dsl(nested(MAX_DEPTH + 1))
    with pytest.raises(DslError, match="nested deeper"):
        parse_dsl("union(" * 3000 + "K1,K1" + ")" * 3000)


# --------------------------------------------------- property: DSL vs API

_LETTERS = {"K": "complete", "E": "empty", "P": "path", "C": "cycle"}
_SMALLEST = {"complete": 1, "empty": 0, "path": 1, "cycle": 3}


def _trees(st):
    """Construction trees: nested tuples that _render writes as DSL text and
    _build constructs through the constructions API.

    Every size is at least its kind's smallest, so the only fault a tree can
    hold is a graph over the vertex cap.  A too-small atom would be checked
    by the DSL after the calls beside it, and by _build in tree order.
    """
    leaves = st.one_of(
        st.tuples(st.just("atom"), st.sampled_from(sorted(_LETTERS)), st.integers(0, 5)),
        st.tuples(st.just("standard"), st.sampled_from(sorted(_SMALLEST)), st.integers(0, 5)),
        st.tuples(st.just("family"), st.sampled_from(FAMILY_IDS)),
    ).filter(lambda t: t[0] == "family"
             or t[2] >= _SMALLEST[_LETTERS.get(t[1], t[1])])
    return st.recursive(leaves, lambda children: st.one_of(
        st.tuples(st.sampled_from(("union", "join")), st.lists(children, min_size=2, max_size=3)),
        st.tuples(st.just("complement"), children),
        st.tuples(st.just("spider"), st.sampled_from(("thin", "thick")), st.integers(2, 3),
                  st.none() | children),
        st.tuples(st.just("caseiv"), st.sampled_from(CASE_IV_KINDS), st.none() | children),
    ), max_leaves=6)


def _render(tree, sep: str) -> str:
    op = tree[0]
    if op == "atom":
        return f"{tree[1]}{tree[2]}"
    if op == "standard":
        return f"{tree[1]}({tree[2]})"
    if op == "family":
        return f"family({tree[1]})"
    if op in ("union", "join"):
        return f"{op}({sep.join(_render(t, sep) for t in tree[1])})"
    if op == "complement":
        return f"complement({_render(tree[1], sep)})"
    args = [str(a) for a in tree[1:-1]]
    if op == "spider":
        args[1] = f"k={args[1]}"
    if tree[-1] is not None:
        args.append(f"head={_render(tree[-1], sep)}")
    return f"{op}({sep.join(args)})"


def _build(tree):
    op = tree[0]
    if op == "atom":
        return standard(_LETTERS[tree[1]], tree[2])
    if op == "standard":
        return standard(tree[1], tree[2])
    if op == "family":
        return family(tree[1])
    if op in ("union", "join"):
        return functools.reduce(disjoint_union if op == "union" else join, map(_build, tree[1]))
    if op == "complement":
        return complement(_build(tree[1]))
    head = None if tree[-1] is None else _build(tree[-1])
    if op == "spider":
        return (thin_spider if tree[1] == "thin" else thick_spider)(tree[2], head)
    return case_iv_graph(tree[1], head)


def test_dsl_builds_what_the_constructions_api_builds():
    # A tree the API rejects (too many vertices) must be a DslError that
    # carries the API's message.  On a mismatch Hypothesis shrinks the tree
    # to a minimal expression.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_trees(st), st.sampled_from((",", ", ")))
    def check(tree, sep):
        text = _render(tree, sep)
        try:
            want = _build(tree)
        except ValueError as exc:
            with pytest.raises(DslError, match=re.escape(str(exc))):
                parse_dsl(text)
        else:
            assert parse_dsl(text) == want, text

    check()
