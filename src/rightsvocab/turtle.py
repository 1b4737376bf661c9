"""Turtle subset reader and deterministic writer.

Supported syntax: ``@prefix`` directives, ``<IRI>``, prefixed names, the
``a`` keyword, ``;`` predicate lists, ``,`` object lists, anonymous blank
node property lists ``[ ... ]``, labeled blank nodes ``_:x``, quoted string
literals with ``\\" \\\\ \\n \\t`` escapes, ``@lang`` tags, ``^^`` datatypes
and ``#`` comments.  Collections, numeric/boolean shorthand and multi-line
literals are rejected.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

from .model import (
    BlankNode, Graph, Iri, Literal, Term, Triple, display_names, term_sort_key,
)
from .namespaces import NAMESPACE_TABLE, RDF_TYPE


class TurtleSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_PNAME = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*)?:([A-Za-z0-9][A-Za-z0-9_.-]*)?$")
_LOCAL_OK = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")
# Matched at a position in the whole text: matching a slice ``text[i:]``
# would copy the rest of the document for every token.
_AT_WORD = re.compile(r"@([A-Za-z][A-Za-z0-9-]*)")
_BNODE_LABEL = re.compile(r"_:([A-Za-z0-9][A-Za-z0-9_-]*)")
_WORD = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*:?[A-Za-z0-9_.-]*|:")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg: str) -> TurtleSyntaxError:
        return TurtleSyntaxError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == "<":
            j = text.find(">", i + 1)
            if j < 0 or "\n" in text[i:j]:
                raise err("unterminated IRI")
            tokens.append(_Token("iri", text[i + 1 : j], start_line, start_col))
            col += j - i + 1
            i = j + 1
            continue
        if ch == '"':
            if text[i : i + 3] == '"""':
                raise err("multi-line literals are not supported")
            buf = []
            j = i + 1
            while True:
                if j >= n or text[j] == "\n":
                    raise err("unterminated string literal")
                c = text[j]
                if c == "\\":
                    if j + 1 >= n:
                        raise err("unterminated escape")
                    esc = text[j + 1]
                    if esc not in _ESCAPES:
                        raise err(f"unsupported escape: \\{esc}")
                    buf.append(_ESCAPES[esc])
                    j += 2
                    continue
                if c == '"':
                    break
                buf.append(c)
                j += 1
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
            col += j - i + 1
            i = j + 1
            continue
        if ch == "@":
            m = _AT_WORD.match(text, i)
            if not m:
                raise err("bad @ token")
            word = m.group(1)
            if word == "prefix":
                tokens.append(_Token("@prefix", word, start_line, start_col))
            elif word == "base":
                raise err("@base is not supported")
            else:
                tokens.append(_Token("langtag", word, start_line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        if text[i : i + 2] == "^^":
            tokens.append(_Token("^^", "^^", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in ".;,[]":
            tokens.append(_Token(ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch in "()":
            raise err("RDF collections are not supported")
        if text[i : i + 2] == "_:":
            m = _BNODE_LABEL.match(text, i)
            if not m:
                raise err("bad blank node label")
            tokens.append(_Token("bnode", m.group(1), start_line, start_col))
            col += m.end() - i
            i = m.end()
            continue
        m = _WORD.match(text, i)
        if m:
            word = m.group(0)
            if word == "a":
                tokens.append(_Token("a", word, start_line, start_col))
            elif re.match(r"^[0-9.+-]", word):
                raise err("numeric shorthand literals are not supported")
            elif word in ("true", "false"):
                raise err("boolean shorthand literals are not supported")
            elif ":" in word:
                tokens.append(_Token("pname", word, start_line, start_col))
            else:
                raise err(f"unexpected token {word!r}")
            col += m.end() - i
            i = m.end()
            continue
        raise err(f"unexpected character {ch!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.triples: set[Triple] = set()
        self._fresh = itertools.count()
        self._labels: dict[str, BlankNode] = {}

    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, kind: Optional[str] = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise TurtleSyntaxError("unexpected end of input", last.line, last.col)
        if kind is not None and tok.kind != kind:
            raise TurtleSyntaxError(
                f"expected {kind}, got {tok.kind} {tok.value!r}", tok.line, tok.col
            )
        self.pos += 1
        return tok

    def _fresh_bnode(self) -> BlankNode:
        return BlankNode(f"b{next(self._fresh)}")

    def _labeled_bnode(self, label: str) -> BlankNode:
        if label not in self._labels:
            self._labels[label] = self._fresh_bnode()
        return self._labels[label]

    def _resolve_pname(self, tok: _Token) -> Iri:
        m = _PNAME.match(tok.value)
        if not m:
            raise TurtleSyntaxError(f"bad prefixed name {tok.value!r}", tok.line, tok.col)
        prefix = m.group(1) or ""
        local = m.group(2) or ""
        if prefix not in self.prefixes:
            raise TurtleSyntaxError(f"unknown prefix {prefix!r}", tok.line, tok.col)
        return Iri(self.prefixes[prefix] + local)

    def parse(self) -> Graph:
        while self._peek() is not None:
            tok = self._peek()
            if tok.kind == "@prefix":
                self._next()
                name = self._next("pname")
                if not name.value.endswith(":"):
                    raise TurtleSyntaxError(
                        "expected prefix declaration", name.line, name.col
                    )
                iri = self._next("iri")
                self._next(".")
                self.prefixes[name.value[:-1]] = iri.value
            else:
                self._parse_triples()
        return Graph(self.triples)

    def _parse_triples(self) -> None:
        tok = self._peek()
        if tok.kind == "[":
            subject = self._parse_bnode_property_list()
            if self._peek() is not None and self._peek().kind != ".":
                self._parse_predicate_object_list(subject)
        else:
            subject = self._parse_subject()
            self._parse_predicate_object_list(subject)
        self._next(".")

    def _parse_subject(self):
        tok = self._next()
        if tok.kind == "iri":
            return Iri(tok.value)
        if tok.kind == "pname":
            return self._resolve_pname(tok)
        if tok.kind == "bnode":
            return self._labeled_bnode(tok.value)
        raise TurtleSyntaxError(
            f"expected subject, got {tok.value!r}", tok.line, tok.col
        )

    def _parse_predicate_object_list(self, subject) -> None:
        while True:
            tok = self._peek()
            if tok is None:
                self._next()  # raises
            if tok.kind in (".", "]"):
                return
            predicate = self._parse_predicate()
            while True:
                obj = self._parse_object()
                self.triples.add(Triple(subject, predicate, obj))
                if self._peek() is not None and self._peek().kind == ",":
                    self._next()
                    continue
                break
            if self._peek() is not None and self._peek().kind == ";":
                self._next()
                continue
            return

    def _parse_predicate(self) -> Iri:
        tok = self._next()
        if tok.kind == "a":
            return Iri(RDF_TYPE)
        if tok.kind == "iri":
            return Iri(tok.value)
        if tok.kind == "pname":
            return self._resolve_pname(tok)
        raise TurtleSyntaxError(
            f"expected predicate, got {tok.value!r}", tok.line, tok.col
        )

    def _parse_object(self) -> Term:
        tok = self._next()
        if tok.kind == "iri":
            return Iri(tok.value)
        if tok.kind == "pname":
            return self._resolve_pname(tok)
        if tok.kind == "bnode":
            return self._labeled_bnode(tok.value)
        if tok.kind == "[":
            self.pos -= 1
            return self._parse_bnode_property_list()
        if tok.kind == "string":
            nxt = self._peek()
            if nxt is not None and nxt.kind == "langtag":
                self._next()
                return Literal(tok.value, lang=nxt.value)
            if nxt is not None and nxt.kind == "^^":
                self._next()
                dt = self._next()
                if dt.kind == "iri":
                    return Literal(tok.value, datatype=Iri(dt.value))
                if dt.kind == "pname":
                    return Literal(tok.value, datatype=self._resolve_pname(dt))
                raise TurtleSyntaxError("expected datatype IRI", dt.line, dt.col)
            return Literal(tok.value)
        raise TurtleSyntaxError(f"expected object, got {tok.value!r}", tok.line, tok.col)

    def _parse_bnode_property_list(self) -> BlankNode:
        self._next("[")
        node = self._fresh_bnode()
        if self._peek() is not None and self._peek().kind != "]":
            self._parse_predicate_object_list(node)
        self._next("]")
        return node


def parse_turtle(text: str) -> Graph:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return _Parser(_tokenize(text)).parse()


# --- serialization -----------------------------------------------------

_STR_ESC = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _escape(s: str) -> str:
    return "".join(_STR_ESC.get(c, c) for c in s)


def _shrink_iri(iri: Iri) -> str:
    if iri.value == RDF_TYPE:
        return "a"
    for prefix, ns in NAMESPACE_TABLE.items():
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if local and _LOCAL_OK.match(local):
                return f"{prefix}:{local}"
    return f"<{iri.value}>"


def _inlinable(g: Graph) -> set[BlankNode]:
    """Blank nodes referenced exactly once as object and free of cycles."""
    as_object: dict[BlankNode, int] = {}
    for t in g:
        if isinstance(t.object, BlankNode):
            as_object[t.object] = as_object.get(t.object, 0) + 1
    candidates = {b for b, c in as_object.items() if c == 1}

    # drop any candidate that can reach itself through object links
    edges: dict[BlankNode, set[BlankNode]] = {}
    for t in g:
        if isinstance(t.subject, BlankNode) and isinstance(t.object, BlankNode):
            edges.setdefault(t.subject, set()).add(t.object)

    def reaches(start: BlankNode, target: BlankNode, seen: set) -> bool:
        for nxt in edges.get(start, ()):
            if nxt == target or (nxt not in seen and reaches(nxt, target, seen | {nxt})):
                return True
        return False

    return {b for b in candidates if not reaches(b, b, set())}


def serialize_turtle(g: Graph) -> str:
    lines = [f"@prefix {p}: <{ns}> ." for p, ns in NAMESPACE_TABLE.items()]
    names = display_names(g)
    inline = _inlinable(g)

    def term_str(term: Term, indent: int) -> str:
        if isinstance(term, Iri):
            return _shrink_iri(term)
        if isinstance(term, Literal):
            s = f'"{_escape(term.lexical)}"'
            if term.lang:
                s += f"@{term.lang}"
            elif term.datatype:
                s += f"^^{_shrink_iri(term.datatype)}"
            return s
        if term in inline:
            return property_list(term, indent)
        return f"_:{names[term]}"

    def property_list(node: BlankNode, indent: int) -> str:
        pad = "    " * (indent + 1)
        parts = []
        for t in g.triples_about(node):
            parts.append(f"{pad}{_shrink_iri(t.predicate)} {term_str(t.object, indent + 1)}")
        if not parts:
            return "[]"
        return "[\n" + " ;\n".join(parts) + "\n" + "    " * indent + "]"

    top_subjects = sorted(
        (s for s in g.subjects() if not (isinstance(s, BlankNode) and s in inline)),
        key=term_sort_key,
    )
    for subject in top_subjects:
        if lines:
            lines.append("")
        subj_str = (
            _shrink_iri(subject)
            if isinstance(subject, Iri)
            else f"_:{names[subject]}"
        )
        parts = []
        for t in g.triples_about(subject):
            parts.append(f"    {_shrink_iri(t.predicate)} {term_str(t.object, 1)}")
        lines.append(subj_str)
        lines.append(" ;\n".join(parts) + " .")
    return "\n".join(lines) + "\n"
