"""A tiny expression language for building graphs on the command line.

Examples:
    spider(thin, k=4, head=K3)
    family(F3)
    caseiv(F5, head=E2)
    union(cycle(5), complete(3))
    join(K2, E3)
    complement(P4)

Atoms: Kn complete, En edgeless, Pn path, Cn cycle.  Each call's graph is
built as soon as its `)` is read, so there is no syntax tree, and an error
names the first fault found reading left to right.
"""

from __future__ import annotations

import re
from functools import reduce

from .constructions import CASE_IV_KINDS, FAMILY_IDS, case_iv_graph, family, \
    standard, thick_spider, thin_spider
from .graphs import Graph, complement, disjoint_union, join

# after any whitespace: a token, the end of the text, or a bad character
_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)"
                    r"|(?P<punct>[(),=])|(?P<end>\Z)|(?P<bad>.))", re.S)
_ATOM = re.compile(r"^([KEPC])(\d+)$")
_ATOM_KINDS = {"K": "complete", "E": "empty", "P": "path", "C": "cycle"}
# Deepest allowed nesting of constructor calls; only parsing recurses, once
# per level, so this keeps it well inside the stack limit.
MAX_DEPTH = 100

# constructor -> (the type and name of its one positional argument, its
# keywords), the type being Graph, int or str (a bare name); None for union
# and join, which take two or more graphs and no keyword
_SIGNATURES = {
    **{kind: ((int, f"{kind} size"), ()) for kind in ("path", "cycle", "complete", "empty")},
    "union": None,
    "join": None,
    "complement": ((Graph, ""), ()),
    "spider": ((str, "spider kind"), ("k", "head")),
    "family": ((str, "family id"), ()),
    "caseiv": ((str, "seed kind"), ("head",)),
}


class DslError(ValueError):
    """Parse or evaluation error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise DslError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
        if kind == "end":
            return tokens


def _integer(digits: str, pos: int) -> int:
    """The value of the decimal digits read at pos."""
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise DslError(f"integer of {len(digits)} digits is too long", pos) from None


def _as(v, pos: int, kind: type = Graph, what: str = ""):
    """v, the value read at pos, as an argument of type kind."""
    if kind is not Graph:
        if not isinstance(v, kind):
            raise DslError(f"{what} must be {'an integer' if kind is int else 'a bare name'}",
                           pos)
        return v
    if isinstance(v, Graph):
        return v
    if isinstance(v, int):
        raise DslError("expected a graph expression, got a number", pos)
    m = _ATOM.match(v)
    if m is None:
        raise DslError(f"unknown graph atom {v!r}", pos)
    return _call(_ATOM_KINDS[m.group(1)], [(None, _integer(m.group(2), pos), pos)], pos)


def _call(name: str, args: list, pos: int) -> Graph:
    """The graph of the call at pos, given its (keyword or None, value,
    position) arguments."""
    if name not in _SIGNATURES:
        raise DslError(f"unknown constructor {name!r}", pos)
    try:
        if _SIGNATURES[name] is None:
            if len(args) < 2:
                raise DslError(f"{name} needs at least two operands", pos)
            graphs = [_as(v, p) for key, v, p in args if key is None]
            if len(graphs) != len(args):
                raise DslError(f"{name} takes no keywords", pos)
            return reduce(disjoint_union if name == "union" else join, graphs)
        param, keywords = _SIGNATURES[name]
        given = []
        kw = {}
        for key, v, p in args:
            if key is None:
                if kw:
                    raise DslError("positional argument after keyword argument", p)
                given.append((v, p))
            elif key not in keywords:
                raise DslError(f"unknown keyword {key!r}", p)
            elif key in kw:
                raise DslError(f"duplicate keyword {key!r}", p)
            else:
                kw[key] = (v, p)
        if len(given) != 1:
            raise DslError(f"expected 1 positional argument(s), got {len(given)}", pos)
        (v, p), = given
        first = _as(v, p, *param)
        # keywords are read after the positional passes; head is (v, p) or None
        head = kw.get("head")
        if name == "complement":
            return complement(first)
        if name == "spider":
            if first not in ("thin", "thick"):
                raise DslError(f"spider kind must be thin or thick, got {first!r}", p)
            if "k" not in kw:
                raise DslError("spider needs k=<int>", pos)
            k = _as(*kw["k"], int, "k")
            build = thin_spider if first == "thin" else thick_spider
            return build(k, None if head is None else _as(*head))
        if name == "family":
            if first not in FAMILY_IDS:
                raise DslError(f"unknown family id {first!r}", p)
            return family(first)
        if name == "caseiv":
            if first not in CASE_IV_KINDS:
                raise DslError(f"unknown seed kind {first!r}", p)
            return case_iv_graph(first, None if head is None else _as(*head))
        return standard(name, first)
    except DslError:
        raise
    except ValueError as exc:
        raise DslError(str(exc), pos) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def value(self):
        """(v, pos): v is an int, a bare name, or the Graph a call builds."""
        kind, text, pos = self.take()
        if kind == "int":
            return _integer(text, pos), pos
        if kind != "name":
            raise DslError(f"expected an expression, got {text or 'end of input'!r}", pos)
        if self.peek()[1] != "(":
            return text, pos
        self.take()
        if self.depth == MAX_DEPTH:
            raise DslError(f"expression nested deeper than {MAX_DEPTH} calls", pos)
        self.depth += 1
        args = []
        if self.peek()[1] != ")":
            args.append(self.argument())
            while self.peek()[1] == ",":
                self.take()
                args.append(self.argument())
        kind, close, end = self.take()
        if close != ")":
            raise DslError(f"expected ')', got {close or 'end of input'!r}", end)
        self.depth -= 1
        return _call(text, args, pos), pos

    def argument(self):
        """(keyword or None, v, pos) of one call argument."""
        v, pos = self.value()
        if isinstance(v, str) and self.peek()[1] == "=":
            self.take()
            return (v, *self.value())
        return (None, v, pos)


def parse_dsl(text: str) -> Graph:
    """Parse and evaluate a construction expression."""
    parser = _Parser(text)
    v, pos = parser.value()
    kind, rest, end = parser.peek()
    if kind != "end":
        raise DslError(f"trailing input {rest!r}", end)
    return _as(v, pos)
