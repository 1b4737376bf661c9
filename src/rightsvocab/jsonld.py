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
    return "{\n          " + ",\n          ".join(f"{_str(k)}: {_str(x)}" for k, x in v) + "\n        }"


_CONTEXT = ",\n".join(f"    {_str(p)}: {_str(ns)}" for p, ns in sorted(NAMESPACE_TABLE.items()))


def _node_texts(
    triples: list[Triple], compact: Optional[CompactIris], keep: Optional[dict[str, str]]
) -> dict[str, str]:
    """Each node's text in the ``@graph`` array, by ``@id``.  ``keep``, if
    given, also receives the text of each node that neither is a blank node
    nor refers to one: that text is the same in any document."""
    if compact is None:
        compact = CompactIris()
    names = display_names(triples)
    nodes: dict[str, dict] = {}
    blank: set[str] = set()  # nodes whose text depends on the blank-node names
    for t in triples:
        node_id = _node_id(t.subject, names)
        node = nodes.setdefault(node_id, {})
        obj = t.object
        if t.predicate.value == RDF_TYPE and isinstance(obj, Iri):
            node.setdefault("@type", []).append(compact[obj.value])
            continue
        if isinstance(obj, BlankNode):
            blank.add(node_id)
        node.setdefault(compact[t.predicate.value], []).append(_members(obj, names, compact))
    texts = {}
    for node_id, node in nodes.items():
        out = ['    {\n      "@id": ' + _str(node_id)]
        # every other key is "@type" or an IRI, which starts with a letter, so "@id" sorts first
        for key, values in sorted(node.items()):
            if len(values) > 1:
                values.sort(key=_value_key)
            out.append(f",\n      {_str(key)}: [\n        " + ",\n        ".join(map(_value_text, values)) + "\n      ]")
        out.append("\n    }")
        texts[node_id] = text = "".join(out)
        # an IRI has a scheme, so only a blank node's id starts with "_:"
        if keep is not None and node_id not in blank and not node_id.startswith("_:"):
            keep[node_id] = text
    return texts


def _document(texts: dict[str, str]) -> str:
    head = '{\n  "@context": {\n' + _CONTEXT + '\n  },\n  "@graph": ['
    if not texts:
        return head + "]\n}\n"
    return head + "\n" + ",\n".join([texts[k] for k in sorted(texts)]) + "\n  ]\n}\n"


def jsonld_document(
    triples: list[Triple],
    reuse: Optional[dict[str, str]] = None,
    compact: Optional[CompactIris] = None,
) -> str:
    """The document of ``triples``, given in sorted triple order, and of the
    nodes whose finished text ``reuse`` gives by ``@id``.  Those nodes hold
    no blank node, so leaving their triples out names every blank node the
    same."""
    texts = _node_texts(triples, compact, None)
    if reuse:
        texts.update(reuse)
    return _document(texts)


def serialize_jsonld(
    g: Graph, keep: Optional[dict[str, str]] = None, compact: Optional[CompactIris] = None
) -> str:
    """The document of ``g``; ``keep``, if given, receives the text of each
    node that neither is a blank node nor refers to one, for a later
    ``jsonld_document`` to reuse."""
    return _document(_node_texts(list(g), compact, keep))
