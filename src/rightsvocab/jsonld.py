"""Deterministic JSON-LD writer with a fixed inline context.  It writes the text of
``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)``, whose encoder is pure Python."""

from __future__ import annotations

from json.encoder import encode_basestring as _str, encode_basestring_ascii

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


def _members(term: Term, names) -> tuple:
    """The value object of ``term`` as its ``(key, value)`` pairs, sorted by key."""
    if not isinstance(term, Literal):
        return (("@id", _node_id(term, names)),)
    value = ("@value", term.lexical)
    if term.lang:
        return ("@language", term.lang), value
    return (("@type", _compact(term.datatype.value)), value) if term.datatype else (value,)


def _value_key(v) -> object:
    """Orders as ``json.dumps(v, sort_keys=True)`` text, so ``"x!y"`` < ``"x"``."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    return [(k, encode_basestring_ascii(x)) for k, x in v]


def _value_text(v) -> str:
    if isinstance(v, str):
        return _str(v)
    return "{\n          " + ",\n          ".join(f"{_str(k)}: {_str(x)}" for k, x in v) + "\n        }"


_CONTEXT = ",\n".join(f"    {_str(p)}: {_str(ns)}" for p, ns in sorted(NAMESPACE_TABLE.items()))


def jsonld_document(triples: list[Triple]) -> str:
    """The document of ``triples``, given in sorted triple order."""
    names = display_names(triples)
    nodes: dict[str, dict] = {}
    for t in triples:
        node = nodes.setdefault(_node_id(t.subject, names), {})
        if t.predicate.value == RDF_TYPE and isinstance(t.object, Iri):
            node.setdefault("@type", []).append(_compact(t.object.value))
            continue
        node.setdefault(_compact(t.predicate.value), []).append(_members(t.object, names))
    out = ['{\n  "@context": {\n', _CONTEXT, '\n  },\n  "@graph": [']
    # every other key is "@type" or an IRI, which starts with a letter, so "@id" sorts first
    for i, (node_id, node) in enumerate(sorted(nodes.items())):
        out.append((",\n" if i else "\n") + '    {\n      "@id": ' + _str(node_id))
        for key, values in sorted(node.items()):
            if len(values) > 1:
                values.sort(key=_value_key)
            out.append(f",\n      {_str(key)}: [\n        " + ",\n        ".join(map(_value_text, values)) + "\n      ]")
        out.append("\n    }")
    out.append("\n  ]\n}\n" if nodes else "]\n}\n")
    return "".join(out)


def serialize_jsonld(g: Graph) -> str:
    return jsonld_document(list(g))
