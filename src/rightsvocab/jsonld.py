"""Deterministic JSON-LD writer with a fixed inline context."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .model import BlankNode, Graph, Iri, Literal, Term, Triple, display_names
from .namespaces import NAMESPACE_TABLE, RDF_TYPE


def _compact(iri: str) -> str:
    for prefix, ns in NAMESPACE_TABLE.items():
        if iri.startswith(ns) and len(iri) > len(ns):
            return f"{prefix}:{iri[len(ns):]}"
    return iri


def _node_id(term, names) -> str:
    if isinstance(term, BlankNode):
        return f"_:{names[term]}"
    return term.value


def _object_json(term: Term, names) -> object:
    if not isinstance(term, Literal):
        return {"@id": _node_id(term, names)}
    out: dict = {"@value": term.lexical}
    if term.lang:
        out["@language"] = term.lang
    elif term.datatype:
        out["@type"] = _compact(term.datatype.value)
    return out


def _value_key(v) -> object:
    """Orders as ``json.dumps(v, sort_keys=True)`` text, so ``"x!y"`` < ``"x"``."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    return [(k, encode_basestring_ascii(v[k])) for k in sorted(v)]


def jsonld_document(triples: list[Triple]) -> str:
    """The document of ``triples``, given in sorted triple order."""
    names = display_names(triples)
    nodes: dict[str, dict] = {}
    for t in triples:
        node = nodes.setdefault(_node_id(t.subject, names), {})
        if t.predicate.value == RDF_TYPE and isinstance(t.object, Iri):
            node.setdefault("@type", []).append(_compact(t.object.value))
            continue
        key = _compact(t.predicate.value)
        node.setdefault(key, []).append(_object_json(t.object, names))
    graph = []
    for node_id, node in sorted(nodes.items()):
        for values in node.values():
            values.sort(key=_value_key)
        graph.append({"@id": node_id, **node})
    doc = {"@context": dict(sorted(NAMESPACE_TABLE.items())), "@graph": graph}
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def serialize_jsonld(g: Graph) -> str:
    return jsonld_document(g.sorted_triples())
