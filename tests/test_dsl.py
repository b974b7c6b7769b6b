import pytest

from p4spec.constructions import case_iv_graph, family, standard, thick_spider, thin_spider
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


@pytest.mark.parametrize("bad", [
    "",
    "union()",
    "union(K2)",
    "spider(k=2)",
    "spider(thin)",
    "spider(fat,k=2)",
    "spider(thin,k=2,head=K3,head=K3)",
    "spider(thin,k=2,legs=K3)",
    "family(F9)",
    "caseiv(F0)",
    "cycle(2)",
    "path()",
    "path(4,5)",
    "K0",
    "Q5",
    "union(K2,K2))",
    "union(K2 K2)",
    "join(K2,)",
    "path(x)",
    "4",
])
def test_rejects_malformed(bad):
    with pytest.raises(DslError):
        parse_dsl(bad)


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


@pytest.mark.parametrize("text", ["complement()", "complement(K2,K3)",
                                  "complement(g=K2)", "complement(3)"])
def test_complement_errors(text):
    with pytest.raises(DslError):
        parse_dsl(text)


def test_nesting_depth_is_bounded():
    def nested(depth):
        return "complement(" * depth + "P4" + ")" * depth

    assert parse_dsl(nested(MAX_DEPTH)) == standard("path", 4)
    with pytest.raises(DslError, match="nested deeper"):
        parse_dsl(nested(MAX_DEPTH + 1))
    with pytest.raises(DslError, match="nested deeper"):
        parse_dsl("union(" * 3000 + "K1,K1" + ")" * 3000)
