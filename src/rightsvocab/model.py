"""Minimal RDF abstract-syntax values: terms, triples and graphs."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

_IRI_FORBIDDEN = re.compile(r"[\s<>]")
_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
_LANG = re.compile(r"^[a-z]{2,3}(-[A-Z]{2})?$")


@dataclass(frozen=True, order=True)
class Iri:
    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("IRI must be non-empty")
        if _IRI_FORBIDDEN.search(self.value):
            raise ValueError(f"IRI contains whitespace or angle brackets: {self.value!r}")
        if not _SCHEME.match(self.value):
            raise ValueError(f"IRI has no scheme: {self.value!r}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class BlankNode:
    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("blank node label must be non-empty")


def normalize_lang(tag: str) -> str:
    """Lowercase the primary subtag, uppercase an optional region subtag."""
    parts = tag.split("-")
    out = [parts[0].lower()]
    if len(parts) > 1:
        out.append(parts[1].upper())
    out.extend(p for p in parts[2:])
    return "-".join(out)


@dataclass(frozen=True)
class Literal:
    lexical: str
    lang: Optional[str] = None
    datatype: Optional[Iri] = None

    def __post_init__(self) -> None:
        if self.lang is not None and self.datatype is not None:
            raise ValueError("literal cannot carry both a language tag and a datatype")
        # a tag the pattern takes as it is is already normalized
        if self.lang is not None and not _LANG.match(self.lang):
            norm = normalize_lang(self.lang)
            if not _LANG.match(norm):
                raise ValueError(f"malformed language tag: {self.lang!r}")
            object.__setattr__(self, "lang", norm)


Term = Union[Iri, BlankNode, Literal]
SubjectTerm = Union[Iri, BlankNode]


@dataclass(frozen=True)
class Triple:
    subject: SubjectTerm
    predicate: Iri
    object: Term

    def __post_init__(self) -> None:
        if not isinstance(self.subject, (Iri, BlankNode)):
            raise TypeError("triple subject must be an IRI or blank node")
        if not isinstance(self.predicate, Iri):
            raise TypeError("triple predicate must be an IRI")
        if not isinstance(self.object, (Iri, BlankNode, Literal)):
            raise TypeError("triple object must be an IRI, blank node or literal")


def term_sort_key(t: Term) -> tuple:
    """Deterministic ordering: IRIs, then literals, then blank nodes."""
    if isinstance(t, Iri):
        return (0, t.value, "", "")
    if isinstance(t, Literal):
        return (1, t.lexical, t.lang or "", t.datatype.value if t.datatype else "")
    return (2, t.label, "", "")


def triple_sort_key(t: Triple) -> tuple:
    return (term_sort_key(t.subject), t.predicate.value, term_sort_key(t.object))


def _predicate_object_key(t: Triple) -> tuple:
    return (t.predicate.value, term_sort_key(t.object))


class Graph:
    """An immutable, duplicate-free set of triples, indexed by subject and
    kept in one order: subjects by ``term_sort_key``, each subject's triples
    by ``triple_sort_key``.  Iteration and every lookup read that order, so no
    caller sorts, and a lookup costs O(triples of that subject).
    """

    __slots__ = ("_triples", "_by_subject")

    def __init__(self, triples: Iterable[Triple] = ()):
        ts = frozenset(triples)
        groups: dict[SubjectTerm, list[Triple]] = {}
        for t in ts:
            if not isinstance(t, Triple):
                raise TypeError(f"not a Triple: {t!r}")
            groups.setdefault(t.subject, []).append(t)
        # one sort per subject: sorting the whole graph at once costs more, and
        # within a subject triple_sort_key's first part is the same for every triple
        by_subject = {s: sorted(groups[s], key=_predicate_object_key)
                      for s in sorted(groups, key=term_sort_key)}
        object.__setattr__(self, "_triples", ts)
        object.__setattr__(self, "_by_subject", by_subject)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __iter__(self) -> Iterator[Triple]:
        return itertools.chain.from_iterable(self._by_subject.values())

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples)"

    def subjects(self) -> list[SubjectTerm]:
        return list(self._by_subject)

    def triples_about(self, subject: SubjectTerm) -> list[Triple]:
        return list(self._by_subject.get(subject, ()))

    def objects(self, subject: SubjectTerm, predicate: Iri) -> list[Term]:
        # predicates are ``Iri``s: equal strings are equal terms, compared without ``__eq__``
        value = predicate.value
        return [t.object for t in self._by_subject.get(subject, ()) if t.predicate.value == value]

    def union(self, other: "Graph") -> "Graph":
        return Graph(self._triples | other._triples)


def display_names(triples: Iterable[Triple]) -> dict[BlankNode, str]:
    """Renumber blank nodes by first appearance in ``triples``, in sorted order."""
    names: dict[BlankNode, str] = {}
    for t in triples:
        for term in (t.subject, t.object):
            if isinstance(term, BlankNode) and term not in names:
                names[term] = f"b{len(names)}"
    return names
