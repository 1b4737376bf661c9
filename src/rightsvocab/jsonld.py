"""Deterministic JSON-LD writer with a fixed inline context.  It writes the text of
``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)``, whose encoder is pure Python."""

from __future__ import annotations

from json.encoder import encode_basestring as _str, encode_basestring_ascii
from typing import Optional

from .model import BlankNode, Graph, Iri, Literal, Term, Triple, display_names
from .namespaces import NAMESPACE_TABLE, RDF_TYPE


def _compact(iri: str) -> str:
    for prefix, ns in NAMESPACE_TABLE.items():
        if iri.startswith(ns) and len(iri) > len(ns):
            return f"{prefix}:{iri[len(ns):]}"
    return iri


class CompactIris(dict):
    """IRI string -> its ``_compact`` form, each computed on first lookup.
    A document makes its own unless given one; ``generate_site`` gives one
    table to every document of a build."""

    def __missing__(self, iri: str) -> str:
        self[iri] = form = _compact(iri)
        return form


def _node_id(term, names) -> str:
    if isinstance(term, BlankNode):
        return f"_:{names[term]}"
    return term.value


def _members(term: Term, names, compact: CompactIris) -> tuple:
    """The value object of ``term`` as its ``(key, value)`` pairs, sorted by key."""
    if not isinstance(term, Literal):
        return (("@id", _node_id(term, names)),)
    value = ("@value", term.lexical)
    if term.lang:
        return ("@language", term.lang), value
    return (("@type", compact[term.datatype.value]), value) if term.datatype else (value,)


def _value_key(v) -> object:
    """Orders as ``json.dumps(v, sort_keys=True)`` text, so ``"x!y"`` < ``"x"``."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    return [(k, encode_basestring_ascii(x)) for k, x in v]


def _value_text(v) -> str:
    if isinstance(v, str):
        return _str(v)
    return "{\n          " + ",\n          ".join([f"{_str(k)}: {_str(x)}" for k, x in v]) + "\n        }"


_CONTEXT = ",\n".join(f"    {_str(p)}: {_str(ns)}" for p, ns in sorted(NAMESPACE_TABLE.items()))
_HEAD, _TAIL = '{\n  "@context": {\n' + _CONTEXT + '\n  },\n  "@graph": [', "\n  ]\n}\n"
_HEAD_BYTES, _TAIL_BYTES = (_HEAD + "\n").encode(), _TAIL.encode()


def key_text(key: str, values: list) -> str:
    """A node's ``key`` and its values, as they follow its ``@id``.  The
    values are strings, or value objects as ``_members`` gives them, in
    ``_value_key`` order."""
    return f",\n      {_str(key)}: [\n        " + ",\n        ".join(map(_value_text, values)) + "\n      ]"


def node_text(node_id: str, keys: dict[str, str]) -> str:
    """A node's text in the ``@graph`` array; ``keys`` maps every key but
    ``@id`` to its ``key_text``."""
    # every other key is "@type" or an IRI, which starts with a letter, so "@id" sorts first
    return '    {\n      "@id": ' + _str(node_id) + "".join([keys[k] for k in sorted(keys)]) + "\n    }"


def graph_nodes(triples: list[Triple], compact: Optional[CompactIris] = None) -> dict[str, str]:
    """Each node's text in the ``@graph`` array, by ``@id``."""
    if compact is None:
        compact = CompactIris()
    names = display_names(triples)
    nodes: dict[str, dict] = {}
    for t in triples:
        node = nodes.setdefault(_node_id(t.subject, names), {})
        obj = t.object
        if t.predicate.value == RDF_TYPE and isinstance(obj, Iri):
            node.setdefault("@type", []).append(compact[obj.value])
        else:
            node.setdefault(compact[t.predicate.value], []).append(_members(obj, names, compact))
    return {node_id: node_text(node_id, {key: key_text(key, sorted(values, key=_value_key))
                                         for key, values in node.items()})
            for node_id, node in nodes.items()}


def encoded_document(texts: dict[str, bytes]) -> bytes:
    """The UTF-8 document whose ``@graph`` holds the UTF-8 node texts
    ``texts``, by ``@id``, which are not empty: a document spliced from
    nodes encoded once."""
    return _HEAD_BYTES + b",\n".join([texts[k] for k in sorted(texts)]) + _TAIL_BYTES


def jsonld_document(triples: list[Triple], compact: Optional[CompactIris] = None) -> str:
    """The document of ``triples``, given in sorted triple order."""
    texts = graph_nodes(triples, compact)
    if not texts:
        return _HEAD + "]\n}\n"
    return _HEAD + "\n" + ",\n".join([texts[k] for k in sorted(texts)]) + _TAIL


def serialize_jsonld(g: Graph, compact: Optional[CompactIris] = None) -> str:
    """The document of ``g``."""
    return jsonld_document(list(g), compact)
