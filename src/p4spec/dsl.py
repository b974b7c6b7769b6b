"""A tiny expression language for building graphs on the command line.

Examples:
    spider(thin, k=4, head=K3)
    family(F3)
    caseiv(F5, head=E2)
    union(cycle(5), complete(3))
    join(K2, E3)
    complement(P4)

Atoms: Kn complete, En edgeless, Pn path, Cn cycle.
"""

from __future__ import annotations

import re

from .constructions import CASE_IV_KINDS, FAMILY_IDS, case_iv_graph, family, \
    standard, thick_spider, thin_spider
from .graphs import Graph, complement, disjoint_union, join

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)"
                    r"|(?P<punct>[(),=]))")
_ATOM = re.compile(r"^([KEPC])(\d+)$")
# Deepest allowed nesting of constructor calls; parsing and evaluation both
# recurse once per level, so this keeps them well inside the stack limit.
MAX_DEPTH = 100


class DslError(ValueError):
    """Parse or evaluation error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            if text[pos:].strip():
                bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise DslError(f"unexpected character {text[bad]!r}", bad)
            break
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# AST nodes: ("call", name, args, pos) with args a list of (keyword|None, node),
# ("name", text, pos), ("int", value, pos)

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.take()
        if text != value:
            raise DslError(f"expected {value!r}, got {text or 'end of input'!r}", pos)

    def parse(self):
        node = self.value()
        kind, text, pos = self.peek()
        if kind != "end":
            raise DslError(f"trailing input {text!r}", pos)
        return node

    def value(self):
        kind, text, pos = self.take()
        if kind == "int":
            return ("int", int(text), pos)
        if kind != "name":
            raise DslError(f"expected an expression, got {text or 'end of input'!r}", pos)
        if self.peek()[1] == "(":
            self.take()
            if self.depth == MAX_DEPTH:
                raise DslError(f"expression nested deeper than {MAX_DEPTH} calls", pos)
            self.depth += 1
            args = []
            if self.peek()[1] != ")":
                while True:
                    args.append(self.argument())
                    if self.peek()[1] == ",":
                        self.take()
                        continue
                    break
            self.expect(")")
            self.depth -= 1
            return ("call", text, args, pos)
        return ("name", text, pos)

    def argument(self):
        kind, text, pos = self.peek()
        if kind == "name" and self.tokens[self.i + 1][1] == "=":
            self.take()
            self.take()
            return (text, self.value())
        return (None, self.value())


def _as_graph(node) -> Graph:
    if node[0] == "int":
        raise DslError("expected a graph expression, got a number", node[2])
    if node[0] == "name":
        m = _ATOM.match(node[1])
        if m is None:
            raise DslError(f"unknown graph atom {node[1]!r}", node[2])
        kind = {"K": "complete", "E": "empty", "P": "path", "C": "cycle"}[m.group(1)]
        try:
            return standard(kind, int(m.group(2)))
        except ValueError as exc:
            raise DslError(str(exc), node[2]) from None
    return _eval_call(node)


def _as_int(node, what: str) -> int:
    if node[0] != "int":
        raise DslError(f"{what} must be an integer", node[-1])
    return node[1]


def _as_word(node, what: str) -> str:
    if node[0] != "name":
        raise DslError(f"{what} must be a bare name", node[-1])
    return node[1]


def _split_args(args, pos, *, positional: int, keywords: tuple[str, ...]):
    pos_args = []
    kw_args = {}
    for key, node in args:
        if key is None:
            if kw_args:
                raise DslError("positional argument after keyword argument", node[-1])
            pos_args.append(node)
        else:
            if key not in keywords:
                raise DslError(f"unknown keyword {key!r}", node[-1])
            if key in kw_args:
                raise DslError(f"duplicate keyword {key!r}", node[-1])
            kw_args[key] = node
    if len(pos_args) != positional:
        raise DslError(f"expected {positional} positional argument(s), got {len(pos_args)}", pos)
    return pos_args, kw_args


def _eval_call(node) -> Graph:
    _, name, args, pos = node
    try:
        if name in ("path", "cycle", "complete", "empty"):
            pos_args, _ = _split_args(args, pos, positional=1, keywords=())
            return standard(name, _as_int(pos_args[0], f"{name} size"))
        if name in ("union", "join"):
            if len(args) < 2:
                raise DslError(f"{name} needs at least two operands", pos)
            graphs = [_as_graph(n) for key, n in args if key is None]
            if len(graphs) != len(args):
                raise DslError(f"{name} takes no keywords", pos)
            acc = graphs[0]
            op = disjoint_union if name == "union" else join
            for g in graphs[1:]:
                acc = op(acc, g)
            return acc
        if name == "complement":
            pos_args, _ = _split_args(args, pos, positional=1, keywords=())
            return complement(_as_graph(pos_args[0]))
        if name == "spider":
            pos_args, kw = _split_args(args, pos, positional=1, keywords=("k", "head"))
            kind = _as_word(pos_args[0], "spider kind")
            if kind not in ("thin", "thick"):
                raise DslError(f"spider kind must be thin or thick, got {kind!r}",
                               pos_args[0][-1])
            if "k" not in kw:
                raise DslError("spider needs k=<int>", pos)
            k = _as_int(kw["k"], "k")
            head = _as_graph(kw["head"]) if "head" in kw else None
            return thin_spider(k, head) if kind == "thin" else thick_spider(k, head)
        if name == "family":
            pos_args, _ = _split_args(args, pos, positional=1, keywords=())
            fid = _as_word(pos_args[0], "family id")
            if fid not in FAMILY_IDS:
                raise DslError(f"unknown family id {fid!r}", pos_args[0][-1])
            return family(fid)
        if name == "caseiv":
            pos_args, kw = _split_args(args, pos, positional=1, keywords=("head",))
            kind = _as_word(pos_args[0], "seed kind")
            if kind not in CASE_IV_KINDS:
                raise DslError(f"unknown seed kind {kind!r}", pos_args[0][-1])
            head = _as_graph(kw["head"]) if "head" in kw else None
            return case_iv_graph(kind, head)
        raise DslError(f"unknown constructor {name!r}", pos)
    except DslError:
        raise
    except ValueError as exc:
        raise DslError(str(exc), pos) from None


def parse_dsl(text: str) -> Graph:
    """Parse and evaluate a construction expression."""
    return _as_graph(_Parser(text).parse())
