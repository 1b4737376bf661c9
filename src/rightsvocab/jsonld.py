"""Deterministic JSON-LD writer with a fixed inline context."""

from __future__ import annotations

import json

from .model import BlankNode, Graph, Iri, Literal, Term, display_names
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
    if isinstance(term, Iri):
        return {"@id": term.value}
    if isinstance(term, BlankNode):
        return {"@id": f"_:{names[term]}"}
    out: dict = {"@value": term.lexical}
    if term.lang:
        out["@language"] = term.lang
    elif term.datatype:
        out["@type"] = _compact(term.datatype.value)
    return out


def serialize_jsonld(g: Graph) -> str:
    names = display_names(g)
    nodes: dict[str, dict] = {}
    for t in g.sorted_triples():
        node = nodes.setdefault(_node_id(t.subject, names), {})
        if t.predicate.value == RDF_TYPE and isinstance(t.object, Iri):
            node.setdefault("@type", []).append(_compact(t.object.value))
            continue
        key = _compact(t.predicate.value)
        node.setdefault(key, []).append(_object_json(t.object, names))
    graph = []
    for node_id in sorted(nodes):
        node = {"@id": node_id}
        for key in sorted(nodes[node_id]):
            values = nodes[node_id][key]
            node[key] = sorted(values, key=lambda v: json.dumps(v, sort_keys=True))
        graph.append(node)
    doc = {"@context": dict(sorted(NAMESPACE_TABLE.items())), "@graph": graph}
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
