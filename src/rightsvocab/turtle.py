"""Turtle subset reader and deterministic writer.

Supported syntax: ``@prefix`` directives, ``<IRI>``, prefixed names, the
``a`` keyword, ``;`` predicate lists, ``,`` object lists, anonymous blank
node property lists ``[ ... ]`` nested at most ``MAX_NESTING`` deep, labeled
blank nodes ``_:x``, quoted string literals with ``\\" \\\\ \\n \\t \\r``
escapes, ``@lang`` tags, ``^^`` datatypes and ``#`` comments.  Collections,
numeric/boolean shorthand and multi-line literals are rejected.  Every
input either parses to a ``Graph`` or raises ``TurtleSyntaxError``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

from .model import BlankNode, Graph, Iri, Literal, SubjectTerm, Term, Triple, display_names
from .namespaces import NAMESPACE_TABLE, RDF_TYPE


class TurtleSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_PNAME = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*)?:([A-Za-z0-9][A-Za-z0-9_.-]*)?$")
_LOCAL_OK = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")
# One named alternative per token kind, tried in order at a position of the
# whole text (matching a slice ``text[i:]`` would copy the rest of the
# document for every token).  The kinds in ``_REJECTED`` are forms the
# subset refuses; the last four match what starts no token at all.
_TOKEN = re.compile(r"""
    (?P<space>(?:[ \t\r\n]|\#[^\n]*)+)
  | (?P<iri><[^>\n]*>)
  | (?P<multiline>\"\"\")
  # unrolled: one class runs between escapes, no alternation per character
  | (?P<string>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
  | (?P<prefix>@prefix(?![A-Za-z0-9-]))
  | (?P<base>@base(?![A-Za-z0-9-]))
  | (?P<langtag>@[A-Za-z][A-Za-z0-9-]*)
  | (?P<punct>\^\^|[.;,\[\]])
  | (?P<collection>[()])
  | (?P<bnode>_:[A-Za-z0-9][A-Za-z0-9_-]*)
  | (?P<nolabel>_:)
  | (?P<numeric>[0-9])
  | (?P<boolean>(?:true|false)(?![A-Za-z0-9_.:-]))
  | (?P<a>a(?![A-Za-z0-9_.:-]))
  | (?P<pname>[A-Za-z_][A-Za-z0-9_.-]*:(?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?|:)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.-]*)
  | (?P<open_iri><)
  | (?P<open_string>")
  | (?P<bad_at>@)
  | (?P<other>.)
""", re.VERBOSE)
_REJECTED = {
    "multiline": "multi-line literals are not supported",
    "base": "@base is not supported",
    "collection": "RDF collections are not supported",
    "nolabel": "bad blank node label",
    "numeric": "numeric shorthand literals are not supported",
    "boolean": "boolean shorthand literals are not supported",
    "word": "unexpected token {!r}",
    "open_iri": "unterminated IRI",
    "open_string": "unterminated string literal",
    "bad_at": "bad @ token",
    "other": "unexpected character {!r}",
}
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
_A = Iri(RDF_TYPE)


# Deepest nesting of ``[ ... ]`` the reader takes.  It spends 2 stack frames
# per level, and the writer 1, so both stay far below Python's default limit
# of 1000 frames on such a graph.
MAX_NESTING = 100


@dataclass(slots=True)
class _Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, line_start = 0, 1, 0
    while i < len(text):
        col = i - line_start + 1
        m = _TOKEN.match(text, i)
        kind, value = m.lastgroup, m.group()
        i = m.end()
        if kind == "space":
            if "\n" in value:
                line += value.count("\n")
                line_start = text.rindex("\n", 0, i) + 1
            continue
        if kind in _REJECTED:
            raise TurtleSyntaxError(_REJECTED[kind].format(value), line, col)
        if kind == "string":
            value = value[1:-1]
            if "\\" in value:
                try:
                    value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], value)
                except KeyError as exc:
                    raise TurtleSyntaxError(
                        f"unsupported escape: \\{exc.args[0]}", line, col
                    ) from None
        elif kind == "iri":
            value = value[1:-1]
        elif kind == "prefix":
            kind, value = "@prefix", "prefix"
        elif kind == "langtag":
            value = value[1:]
        elif kind == "bnode":
            value = value[2:]
        elif kind == "punct":
            kind = value
        tokens.append(_Token(kind, value, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        # an ``end`` token where the last one starts: every read finds a token
        line, col = (tokens[-1].line, tokens[-1].col) if tokens else (1, 1)
        self.tokens = tokens + [_Token("end", "", line, col)]
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.triples: set[Triple] = set()
        self._fresh = itertools.count()
        # a plain dict: a default factory bound to ``self`` would form a cycle
        # that keeps each parse's tokens alive until the cyclic collector runs
        self._labels: dict[str, BlankNode] = {}
        # each distinct IRI token is resolved once per parse; a prefixed name
        # is resolved again after an ``@prefix``, which may redeclare its prefix
        self._iris: dict[str, Iri] = {}
        self._pnames: dict[str, Iri] = {}
        self._depth = 0

    def _next(self, kind: Optional[str] = None) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind == "end":
            raise TurtleSyntaxError("unexpected end of input", tok.line, tok.col)
        if kind is not None and tok.kind != kind:
            raise TurtleSyntaxError(
                f"expected {kind}, got {tok.kind} {tok.value!r}", tok.line, tok.col
            )
        self.pos += 1
        return tok

    def _fresh_bnode(self) -> BlankNode:
        return BlankNode(f"b{next(self._fresh)}")

    def _iri(self, tok: _Token) -> Iri:
        if tok.kind == "iri":
            iri = self._iris.get(tok.value)
            if iri is None:
                iri = self._iris[tok.value] = Iri(tok.value)
            return iri
        iri = self._pnames.get(tok.value)
        if iri is None:
            m = _PNAME.match(tok.value)
            if not m:
                raise TurtleSyntaxError(f"bad prefixed name {tok.value!r}", tok.line, tok.col)
            prefix = m.group(1) or ""
            if prefix not in self.prefixes:
                raise TurtleSyntaxError(f"unknown prefix {prefix!r}", tok.line, tok.col)
            iri = self._pnames[tok.value] = Iri(self.prefixes[prefix] + (m.group(2) or ""))
        return iri

    def parse(self) -> Graph:
        while self.tokens[self.pos].kind != "end":
            if self.tokens[self.pos].kind == "@prefix":
                self.pos += 1
                name = self._next("pname")
                if not name.value.endswith(":"):
                    raise TurtleSyntaxError(
                        "expected prefix declaration", name.line, name.col
                    )
                iri = self._next("iri")
                self._next(".")
                self.prefixes[name.value[:-1]] = iri.value
                self._pnames.clear()
            else:
                # only a non-empty ``[ p o ]`` may lack predicates (W3C ``triples``)
                alone = self.tokens[self.pos].kind == "[" and self.tokens[self.pos + 1].kind != "]"
                subject = self._term("subject")
                if not alone and self.tokens[self.pos].kind == ".":
                    self._term("predicate")  # refuses the "."
                self._predicate_object_list(subject)
                self._next(".")
        return Graph(self.triples)

    def _predicate_object_list(self, subject: SubjectTerm) -> None:
        while self.tokens[self.pos].kind not in (".", "]"):
            predicate = self._term("predicate")
            sep = ","
            while sep == ",":  # a "," adds an object, a ";" the next predicate
                self.triples.add(Triple(subject, predicate, self._term("object")))
                sep = self.tokens[self.pos].kind
                self.pos += sep in (",", ";")
            if sep != ";":
                return

    def _term(self, role: str) -> Term:
        """The next subject, predicate or object, as ``role`` names it."""
        tok = self._next()
        if tok.kind in ("iri", "pname"):
            return self._iri(tok)
        if role == "predicate":
            if tok.kind == "a":
                return _A
        elif tok.kind == "bnode":
            if tok.value not in self._labels:
                self._labels[tok.value] = self._fresh_bnode()
            return self._labels[tok.value]
        elif tok.kind == "[":
            if self._depth == MAX_NESTING:
                raise TurtleSyntaxError(
                    f"blank node property lists nest deeper than {MAX_NESTING}",
                    tok.line, tok.col,
                )
            self._depth += 1
            node = self._fresh_bnode()
            self._predicate_object_list(node)
            self._next("]")
            self._depth -= 1
            return node
        elif tok.kind == "string" and role == "object":
            nxt = self.tokens[self.pos]
            if nxt.kind == "langtag":
                self.pos += 1
                return Literal(tok.value, lang=nxt.value)
            if nxt.kind == "^^":
                self.pos += 1
                dt = self._next()
                if dt.kind not in ("iri", "pname"):
                    raise TurtleSyntaxError("expected datatype IRI", dt.line, dt.col)
                return Literal(tok.value, datatype=self._iri(dt))
            return Literal(tok.value)
        raise TurtleSyntaxError(f"expected {role}, got {tok.value!r}", tok.line, tok.col)


def parse_turtle(text: str) -> Graph:
    parser = _Parser(_tokenize(text))
    try:
        return parser.parse()
    except TurtleSyntaxError:
        raise
    except ValueError as exc:
        # a term the model rejects, such as <foo> or "x"@zh-Hant, is built
        # from the token consumed last
        tok = parser.tokens[parser.pos - 1]
        raise TurtleSyntaxError(str(exc), tok.line, tok.col) from None


# --- serialization -----------------------------------------------------

def _escape(s: str) -> str:
    """``s`` escaped for a quoted string; the backslash goes first."""
    s = s.replace("\\", "\\\\").replace('"', '\\"')
    return s.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def _shrink_iri(iri: str) -> str:
    for prefix, ns in NAMESPACE_TABLE.items():
        if iri.startswith(ns):
            local = iri[len(ns):]
            if local and _LOCAL_OK.match(local):
                return f"{prefix}:{local}"
    return f"<{iri}>"


class ShrunkIris(dict):
    """IRI string -> its ``_shrink_iri`` form, each computed on first lookup.
    A document makes its own unless given one; ``generate_site`` gives one
    table to every document of a build."""

    def __missing__(self, iri: str) -> str:
        self[iri] = form = _shrink_iri(iri)
        return form


def _inlinable(g: Graph) -> set[BlankNode]:
    """Blank nodes referenced exactly once as object, except those on a
    cycle of such nodes, which nothing outside the cycle would write, and
    those that would nest deeper than ``MAX_NESTING``, which are written
    with a label and start their own subtree at depth 1."""
    # the subject that refers to a blank node, or None if more than one does
    parent: dict[BlankNode, Optional[SubjectTerm]] = {}
    for t in g:
        if isinstance(t.object, BlankNode):
            parent[t.object] = None if t.object in parent else t.subject
    candidates = {b for b, p in parent.items() if p is not None}

    # each candidate has one parent, so one walk up from each finds every
    # cycle of candidates; ``visited`` stops a walk at an earlier one's path
    inline = set(candidates)
    visited: set[BlankNode] = set()
    for start in candidates:
        path: dict[BlankNode, int] = {}
        node = start
        while node in candidates and node not in visited:
            visited.add(node)
            path[node] = len(path)
            node = parent[node]
        if node in path:
            inline.difference_update(itertools.islice(path, path[node], None))

    # nesting depth below the nearest labelled ancestor; 0 marks a node that
    # would pass the cap and is labelled instead
    depth: dict[BlankNode, int] = {}
    for start in inline:
        chain = []
        node = start
        while node in inline and node not in depth:
            chain.append(node)
            node = parent[node]
        d = depth.get(node, 0)
        for node in reversed(chain):
            d = d + 1 if d < MAX_NESTING else 0
            depth[node] = d
    return {b for b in inline if depth[b]}


PREFIXES = "\n".join(f"@prefix {p}: <{ns}> ." for p, ns in NAMESPACE_TABLE.items())


def turtle_blocks(g: Graph, shrink: Optional[ShrunkIris] = None) -> list[str]:
    """Each subject's block, in subject order, except the blank nodes written
    inline: the subject, its predicate-object list and the closing `` .``."""
    if shrink is None:
        shrink = ShrunkIris()
    names = display_names(g)
    inline = _inlinable(g)
    out: list[str] = []  # every nesting level appends here, so no text is copied twice

    def predicates(triples: list[Triple], indent: int) -> None:
        pad = "    " * indent
        for i, t in enumerate(triples):
            # ``a`` stands for rdf:type in predicate position only
            p = "a" if t.predicate.value == RDF_TYPE else shrink[t.predicate.value]
            out.append(f"{' ;' if i else ''}\n{pad}{p} ")
            obj = t.object
            if isinstance(obj, Iri):
                out.append(shrink[obj.value])
            elif isinstance(obj, Literal):
                out.append(f'"{_escape(obj.lexical)}"')
                if obj.lang:
                    out.append(f"@{obj.lang}")
                elif obj.datatype:
                    out.append(f"^^{shrink[obj.datatype.value]}")
            elif obj not in inline:
                out.append(f"_:{names[obj]}")
            elif nested := g.triples_about(obj):
                out.append("[")
                predicates(nested, indent + 1)
                out.append(f"\n{pad}]")
            else:
                out.append("[]")

    blocks = []
    for subject in [s for s in g.subjects() if s not in inline]:
        out[:] = [shrink[subject.value] if isinstance(subject, Iri) else f"_:{names[subject]}"]
        predicates(g.triples_about(subject), 1)
        blocks.append("".join(out) + " .")
    return blocks


def serialize_turtle(g: Graph, shrink: Optional[ShrunkIris] = None) -> str:
    return "\n\n".join([PREFIXES, *turtle_blocks(g, shrink)]) + "\n"
