import random
import warnings

import pytest

from p4spec.constructions import mask_to_graph, standard
from p4spec.formats import (
    GraphDocument,
    ParseError,
    detect_format,
    load_document,
    parse_edge_list,
    parse_graph6,
    serialize,
    serialize_edge_list,
    serialize_graph6,
)
from p4spec.graphs import max_vertices


# ---------------------------------------------------------------- edge lists

def test_parse_edge_list_basic():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g == standard("path", 4)


def test_parse_edge_list_ignores_blank_lines():
    g = parse_edge_list("\n3 1\n\n0 2\n\n")
    assert g.n == 3 and g.has_edge(0, 2)


def test_parse_edge_list_errors():
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("4\n")
    with pytest.raises(ParseError):
        parse_edge_list("4 2\n0 1\n")  # missing edge line
    with pytest.raises(ParseError):
        parse_edge_list("4 1\n0 1\n1 2\n")  # extra edge line
    with pytest.raises(ParseError):
        parse_edge_list("4 1\n0 4\n")  # vertex out of range
    with pytest.raises(ParseError):
        parse_edge_list("4 1\n1 1\n")  # self loop
    with pytest.raises(ParseError):
        parse_edge_list("4 1\n0 one\n")


def test_parse_edge_list_warns_on_duplicates():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = parse_edge_list("3 2\n0 1\n1 0\n")
    assert g.edge_count == 1
    assert any("duplicate" in str(w.message) for w in caught)


def _seeded_graph(rng, n):
    pairs = n * (n - 1) // 2
    density = rng.choice((0.1, 0.5, 0.9))
    return mask_to_graph(n, sum(1 << i for i in range(pairs) if rng.random() < density))


def test_edge_list_round_trip():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(0, 9)
        g = mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        assert parse_edge_list(serialize_edge_list(g)) == g


# ------------------------------------------------------------------- graph6

def test_graph6_goldens():
    assert parse_graph6("A_") == standard("complete", 2)
    assert parse_graph6("C~") == standard("complete", 4)
    assert serialize_graph6(standard("complete", 2)) == "A_"
    assert serialize_graph6(standard("complete", 4)) == "C~"
    assert serialize_graph6(standard("cycle", 6)) == "EhEG"


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<A_") == standard("complete", 2)


def test_graph6_empty_graphs():
    assert parse_graph6("?").n == 0
    assert serialize_graph6(standard("empty", 0)) == "?"
    assert parse_graph6("@").n == 1


def test_graph6_round_trip_exhaustive_small():
    for n in range(0, 7):
        step = 11 if n == 6 else 1
        for mask in range(0, 1 << (n * (n - 1) // 2), step):
            g = mask_to_graph(n, mask)
            assert parse_graph6(serialize_graph6(g)) == g


def test_graph6_round_trip_sampled_n7():
    rng = random.Random(22)
    for _ in range(300):
        g = mask_to_graph(7, rng.getrandbits(21))
        assert parse_graph6(serialize_graph6(g)) == g


def test_graph6_matches_networkx():
    # n = 63 and 64 take the long form, "~" and three bytes of n
    nx = pytest.importorskip("networkx")
    rng = random.Random(24)
    for n in range(0, 65):
        for _ in range(3):
            g = _seeded_graph(rng, n)
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(g.edges())
            text = serialize_graph6(g)
            assert text.startswith("~") == (n >= 63)
            assert nx.to_graph6_bytes(ref, header=False) == (text + "\n").encode()
            assert parse_graph6(nx.to_graph6_bytes(ref).decode()) == g  # >>graph6<< header
            back = nx.from_graph6_bytes(text.encode())
            assert sorted(back.nodes) == list(range(n))
            assert {frozenset(e) for e in back.edges} == {frozenset(e) for e in g.edges()}


def test_round_trips_up_to_the_vertex_cap():
    rng = random.Random(25)
    for n in range(0, max_vertices() + 1):
        g = _seeded_graph(rng, n)
        assert parse_graph6(serialize_graph6(g)) == g
        assert parse_edge_list(serialize_edge_list(g)) == g
        assert load_document(serialize(g, "g6")).graph == g
        assert load_document(serialize(g, "edges")).graph == g


def test_graph6_long_form(monkeypatch):
    monkeypatch.setenv("P4SPEC_MAX_N", "100")
    g = standard("path", 70)
    s = serialize_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_vertex_cap_enforced():
    with pytest.raises(ValueError):
        standard("path", 70)


def test_graph6_errors():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("B\x19")  # byte below 63
    with pytest.raises(ParseError):
        parse_graph6("Bw\x7f")  # byte above 126
    with pytest.raises(ParseError):
        parse_graph6("Bé")  # not read as "B?", the empty graph on 3 vertices
    with pytest.raises(ParseError):
        parse_graph6("C")  # truncated body
    with pytest.raises(ParseError):
        parse_graph6("A_~")  # trailing bytes
    with pytest.raises(ParseError):
        parse_graph6("A")  # n=2 needs one body byte
    with pytest.raises(ParseError):
        parse_graph6("EhEG\nC~\n")  # two graphs
    with pytest.raises(ParseError):
        parse_graph6(">>graph6<<A_\n>>graph6<<A_")
    assert parse_graph6("C~\n") == parse_graph6("\n C~ \n\n")


def test_graph6_rejects_nonzero_padding():
    # K2 body byte with a stray low bit set: 0b100001 + 63
    bad = "A" + chr(63 + 0b100001)
    with pytest.raises(ParseError):
        parse_graph6(bad)


# ----------------------------------------------------------- format dispatch

def test_detect_format():
    assert detect_format("3 1\n0 1\n") == "edges"
    assert detect_format("EhEG") == "graph6"
    assert detect_format(">>graph6<<A_") == "graph6"


def test_load_document():
    doc = load_document("A_")
    assert isinstance(doc, GraphDocument)
    assert doc.graph == standard("complete", 2)
    doc = load_document("2 1\n0 1\n")
    assert doc.graph == standard("complete", 2)
    with pytest.raises(ParseError):
        load_document("A_", fmt="nonsense")


def test_serialize_dispatch():
    g = standard("complete", 2)
    assert serialize(g, "edges") == "2 1\n0 1\n"
    assert serialize(g, "g6") == "A_\n"
    assert serialize(g, "graph6") == "A_\n"
    with pytest.raises(ValueError):
        serialize(g, "dot")


def test_cross_format_round_trip():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        via_edges = load_document(serialize(g, "edges")).graph
        via_g6 = load_document(serialize(g, "g6")).graph
        assert via_edges == via_g6 == g


# ------------------------------------------------- property-based front ends
#
# test_front_ends_fuzz (test_cli.py) runs a seeded corpus through the
# command line; these strategies reach the same parsers in-process, and on a
# failure Hypothesis shrinks the text to a minimal input.

def _graphs(st):
    """Graphs on 0..12 vertices, one coin per vertex pair: an integer
    strategy would favour small masks, which leave the high vertices bare."""
    return st.integers(0, 12).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        .map(lambda coins: mask_to_graph(n, sum(c << i for i, c in enumerate(coins)))))


def _damaged(st, text, g):
    """(text, g), or (damaged text, None): one character replaced, dropped
    or inserted, a second copy on its own line, or a header or stray
    whitespace added around it."""
    char = st.characters(max_codepoint=200)
    at = st.integers(0, len(text))
    damaged = st.one_of(
        st.tuples(at, char).map(lambda t: text[:t[0]] + t[1] + text[t[0] + 1:]),
        at.map(lambda i: text[:i] + text[i + 1:]),
        st.tuples(at, char).map(lambda t: text[:t[0]] + t[1] + text[t[0]:]),
        st.sampled_from((f"{text}\n{text}", f">>graph6<<{text}", f" \n{text} \n\n")),
    )
    return st.just((text, g)) | damaged.map(lambda t: (t, None))


def _graph6_texts(st):
    valid = _graphs(st).flatmap(lambda g: _damaged(st, serialize_graph6(g), g))
    raw = st.text(st.characters(min_codepoint=32, max_codepoint=130), max_size=16)
    return st.one_of(valid, raw.map(lambda text: (text, None)))


def _edge_list_texts(st):
    valid = _graphs(st).flatmap(lambda g: _damaged(st, serialize_edge_list(g), g))
    # a header and edge lines that need not agree: endpoints out of range,
    # self-loops, duplicates and an edge count off by one
    raw = st.tuples(st.integers(-2, 70) | st.integers(0, 10 ** 9),
                    st.lists(st.tuples(st.integers(-1, 13), st.integers(-1, 13)), max_size=12),
                    st.sampled_from((0, 0, -1, 1))).map(
        lambda t: "".join([f"{t[0]} {len(t[1]) + t[2]}\n"] + [f"{u} {v}\n" for u, v in t[1]]))
    return st.one_of(valid, raw.map(lambda text: (text, None)))


@pytest.mark.parametrize("texts, fmt", [(_graph6_texts, "g6"), (_edge_list_texts, "edges")])
def test_load_document_property(texts, fmt):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # load_document raises ParseError or returns a graph that round-trips
    # through serialize in both formats; an undamaged text loads its graph
    @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @hypothesis.given(texts(st), st.sampled_from(("auto", fmt)))
    def check(case, fmt):
        text, expected = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicate edges
            try:
                g = load_document(text, fmt).graph
            except ParseError:
                assert expected is None, text
                return
        if expected is not None:
            assert g == expected, text
        for out in ("edges", "g6"):
            assert load_document(serialize(g, out), out).graph == g, text

    check()
