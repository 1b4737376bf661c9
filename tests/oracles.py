"""Test oracles: readers and comparisons that check the documents the
package builds, kept apart from the package because no command needs them.

- ``extract_rdfa`` reads RDFa back out of the markup the generator writes.
  Recognized attributes: ``prefix``, ``about``, ``typeof``, ``property``,
  ``resource``, ``content``, ``datatype`` and ``lang``.  An element carrying
  ``property`` together with ``typeof`` introduces a fresh blank node that
  becomes the subject for its descendants; ``lang=""`` suppresses an
  inherited language tag.
- ``graphs_isomorphic`` is blank-node-aware graph equality by colour
  refinement, with no size limit.
- ``restrict_to_language`` is the graph a page in one language must carry.
- ``jsonld_document`` is the JSON-LD writer as it was before it wrote its
  text itself: the same node objects, encoded by ``json.dumps``.
- ``old_reader`` puts back the read path as it was before the string
  alternative of the token pattern was unrolled (``OLD_TOKEN``, whose other
  alternatives are ``_TOKEN``'s), before ``Graph.objects`` compared
  predicates by string and before ``load_vocabulary`` grouped a subject's
  triples by predicate in place of one ``Graph.objects`` call per
  predicate; ``old_load_vocabulary`` also finds the ConceptScheme by the old
  loop over every triple, sorted here rather than by ``Graph``.
- ``old_negotiate`` is ``negotiate`` as it was before each snapshot memoized
  what it resolved: every call parses the URI and the headers.
- ``render_statement_html`` and ``render_overview_html`` are the page
  writers as they were before ``generate_site`` escaped a statement's
  language-independent markup once for all of its pages.
- ``html_forbids`` is the set of code points ``model.HTML_TEXT`` leaves out,
  spelled as the HTML standard lists them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import html as html_mod
import itertools
import json
import re
from collections import Counter, defaultdict
from html.parser import HTMLParser
from json.encoder import encode_basestring_ascii
from typing import Mapping, Optional
from unittest import mock

from rightsvocab import load_vocabulary, turtle, vocab
from rightsvocab.jsonld import _compact, _node_id
from rightsvocab.model import (
    BlankNode, Graph, Iri, Literal, SubjectTerm, Term, Triple, display_names, term_sort_key,
    triple_sort_key,
)
from rightsvocab.namespaces import NAMESPACE_TABLE, RDF_TYPE
from rightsvocab.server import (
    _DOC_SUFFIX, _NOT_FOUND, VARY, Response, Snapshot, _field, parse_accept,
    parse_accept_language, select_language, select_media_type,
)
from rightsvocab.site import statement_dir
from rightsvocab.uris import DEFAULT_CONFIG, NamespaceConfig, build_statement_uri
from rightsvocab.vocab import (
    CONCEPT_SCHEME_CLASS, TITLE, StatementRecord, ValidationReport, Vocabulary,
    lookup_statement,
)


# --- RDFa extraction, scoped to the markup the generator writes ----------

_VOID = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}


class RdfaError(ValueError):
    pass


class _Element:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict):
        self.tag = tag
        self.attrs = attrs
        self.children: list = []  # _Element or str


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Element("#document", {})
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        el = _Element(tag, dict(attrs))
        self.stack[-1].children.append(el)
        if tag not in _VOID:
            self.stack.append(el)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1].children.append(_Element(tag, dict(attrs)))

    def handle_endtag(self, tag):
        if tag in _VOID:
            return
        if len(self.stack) < 2 or self.stack[-1].tag != tag:
            raise RdfaError(f"mismatched closing tag </{tag}>")
        self.stack.pop()

    def handle_data(self, data):
        self.stack[-1].children.append(data)


def _text_of(el: _Element) -> str:
    out = []
    for child in el.children:
        if isinstance(child, str):
            out.append(child)
        else:
            out.append(_text_of(child))
    return "".join(out)


class _Extractor:
    def __init__(self):
        self.triples: set[Triple] = set()
        self.prefixes: dict[str, str] = {}
        self._fresh = itertools.count()

    def _expand(self, curie: str) -> Iri:
        if ":" in curie:
            prefix, local = curie.split(":", 1)
            if prefix in self.prefixes:
                return Iri(self.prefixes[prefix] + local)
            if "//" in curie:
                return Iri(curie)
            raise RdfaError(f"unknown prefix in {curie!r}")
        raise RdfaError(f"not an absolute IRI or CURIE: {curie!r}")

    def walk(self, el: _Element, subject, lang: Optional[str]) -> None:
        attrs = el.attrs
        if "prefix" in attrs:
            parts = attrs["prefix"].split()
            if len(parts) % 2:
                raise RdfaError("odd prefix attribute")
            for name, ns in zip(parts[0::2], parts[1::2]):
                if not name.endswith(":"):
                    raise RdfaError(f"bad prefix mapping {name!r}")
                self.prefixes[name[:-1]] = ns
        if "lang" in attrs:
            lang = attrs["lang"] or None

        if "about" in attrs:
            subject = Iri(attrs["about"])
            for ty in attrs.get("typeof", "").split():
                self.triples.add(Triple(subject, Iri(RDF_TYPE), self._expand(ty)))

        if "property" in attrs:
            if subject is None:
                raise RdfaError("property attribute with no subject in scope")
            pred = self._expand(attrs["property"])
            if "resource" in attrs:
                self.triples.add(Triple(subject, pred, Iri(attrs["resource"])))
            elif "typeof" in attrs and "about" not in attrs:
                node = BlankNode(f"r{next(self._fresh)}")
                self.triples.add(Triple(subject, pred, node))
                for ty in attrs["typeof"].split():
                    self.triples.add(Triple(node, Iri(RDF_TYPE), self._expand(ty)))
                for child in el.children:
                    if isinstance(child, _Element):
                        self.walk(child, node, lang)
                return
            elif "content" in attrs:
                self.triples.add(
                    Triple(subject, pred, self._literal(attrs["content"], attrs, lang))
                )
            else:
                self.triples.add(
                    Triple(subject, pred, self._literal(_text_of(el), attrs, lang))
                )
                return

        for child in el.children:
            if isinstance(child, _Element):
                self.walk(child, subject, lang)

    def _literal(self, value: str, attrs: dict, lang: Optional[str]) -> Literal:
        if "datatype" in attrs and attrs["datatype"]:
            return Literal(value, datatype=self._expand(attrs["datatype"]))
        return Literal(value, lang=lang)


def extract_rdfa(html: str) -> Graph:
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    if len(builder.stack) != 1:
        raise RdfaError("unclosed elements at end of document")
    extractor = _Extractor()
    extractor.walk(builder.root, None, None)
    return Graph(extractor.triples)


# --- graph isomorphism ----------------------------------------------------

def _links(g: Graph) -> dict[BlankNode, list[tuple[str, str, object]]]:
    """Each blank node's (role, predicate, partner) for every triple it is in,
    the nodes in label order."""
    links: dict[BlankNode, list] = defaultdict(list)
    for t in g:
        if isinstance(t.subject, BlankNode):
            links[t.subject].append(("s", t.predicate.value, t.object))
        if isinstance(t.object, BlankNode):
            links[t.object].append(("o", t.predicate.value, t.subject))
    return {n: links[n] for n in sorted(links, key=lambda n: n.label)}


def _refine(colours: tuple[dict, dict], links: tuple[dict, dict]) -> tuple[dict, dict]:
    """Split every colour, over both graphs at once, by the multiset of its
    nodes' links, a blank partner counted by its colour, until none splits.
    One colour table serves both graphs, so an isomorphism maps each node to
    one of the same colour."""
    while True:
        table: dict = {}
        refined = tuple(
            {n: table.setdefault((c[n], frozenset(Counter(
                (r, p, c[m] if isinstance(m, BlankNode) else m) for r, p, m in ls[n]
            ).items())), len(table)) for n in c}
            for c, ls in zip(colours, links)
        )
        if len(table) == len(set(colours[0].values()) | set(colours[1].values())):
            return refined
        colours = refined


def _individualized(ca: dict, cb: dict, x: BlankNode, ys: list, fresh: int):
    """The colourings that give ``x`` and each of ``ys`` in turn a colour of
    their own."""
    for y in ys:
        yield {**ca, x: fresh}, {**cb, y: fresh}


def _classes(colours: dict) -> dict[int, list[BlankNode]]:
    classes: dict[int, list[BlankNode]] = defaultdict(list)
    for n, c in colours.items():
        classes[c].append(n)
    return classes


def graphs_isomorphic(a: Graph, b: Graph) -> bool:
    """Whether a bijection of blank nodes maps ``a`` onto ``b``.

    Colour refinement runs first; while a colour still holds several nodes
    with a blank partner, the first of them in ``a`` is paired with each
    node of that colour in ``b`` in turn, on an explicit stack, and the
    colours are refined again.  Tied nodes whose partners are all ground
    have identical links, so they pair in label order.  The mapping so
    forced is then checked triple by triple, ground triples included."""
    links = (_links(a), _links(b))
    if len(a) != len(b) or len(links[0]) != len(links[1]):
        return False
    stack = [iter([tuple(dict.fromkeys(ls, 0) for ls in links)])]
    while stack:
        colours = next(stack[-1], None)
        if colours is None:
            stack.pop()
            continue
        ca, cb = _refine(colours, links)
        if Counter(ca.values()) != Counter(cb.values()):
            continue
        classes_a, classes_b = _classes(ca), _classes(cb)
        tied = next((c for c, ns in classes_a.items() if len(ns) > 1 and any(
            isinstance(m, BlankNode) for _, _, m in links[0][ns[0]])), None)
        if tied is not None:
            stack.append(_individualized(ca, cb, classes_a[tied][0], classes_b[tied],
                                         len(classes_a)))
            continue
        mapping = {x: y for c, xs in classes_a.items() for x, y in zip(xs, classes_b[c])}
        if all(Triple(mapping.get(t.subject, t.subject), t.predicate,
                      mapping.get(t.object, t.object)) in b for t in a):
            return True
    return False


# --- per-language view of a statement graph -------------------------------

def restrict_to_language(g: Graph, lang: str) -> Graph:
    """Language-neutral triples plus literals tagged with ``lang``."""
    return Graph(
        t for t in g
        if not (isinstance(t.object, Literal) and t.object.lang)
        or t.object.lang == lang
    )


# --- JSON-LD through the json module --------------------------------------

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


# --- the read path before the string pattern was unrolled, predicates were
# compared by string and load_vocabulary stopped sorting every triple ------

OLD_TOKEN = re.compile(r"""
    (?P<space>(?:[ \t\r\n]|\#[^\n]*)+)
  | (?P<iri><[^>\n]*>)
  | (?P<multiline>\"\"\")
  | (?P<string>"(?:[^"\\\n]|\\.)*")
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


def _objects_by_term(self, subject: SubjectTerm, predicate: Iri) -> list[Term]:
    return sorted(
        (t.object for t in self._by_subject.get(subject, ()) if t.predicate == predicate),
        key=term_sort_key,
    )


def _by_predicate_via_objects(g: Graph, subject: SubjectTerm) -> dict[str, list[Term]]:
    """``vocab._by_predicate`` as one ``Graph.objects`` call per predicate of
    ``subject``, the way ``load_vocabulary`` read a subject before."""
    predicates = dict.fromkeys(t.predicate for t in g.triples_about(subject))
    return {p.value: g.objects(subject, p) for p in predicates}


@contextlib.contextmanager
def old_reader():
    """``_tokenize`` with ``OLD_TOKEN``, ``Graph.objects`` comparing
    predicates as terms, and ``load_vocabulary`` reading each predicate of a
    subject through it, until the block ends."""
    with mock.patch.object(turtle, "_TOKEN", OLD_TOKEN), \
            mock.patch.object(Graph, "objects", _objects_by_term), \
            mock.patch.object(vocab, "_by_predicate", _by_predicate_via_objects):
        yield


def token_outcome(text: str) -> list[tuple] | tuple:
    """``_tokenize(text)`` as ``(kind, value, line, col)`` tuples, or its
    error as ``(message, line, col)``."""
    try:
        tokens = turtle._tokenize(text)
    except turtle.TurtleSyntaxError as exc:
        return (str(exc), exc.line, exc.col)
    out, line, line_start, seen = [], 1, 0, 0
    for t in tokens:  # in text order: only the newlines since the last token are counted
        line += text.count("\n", seen, t.offset)
        line_start = text.rfind("\n", seen, t.offset) + 1 or line_start
        seen = t.offset
        out.append((t.kind, t.value, line, t.offset - line_start + 1))
    return out


def old_token_outcome(text: str) -> list[tuple] | tuple:
    """``token_outcome(text)`` with ``OLD_TOKEN`` in place of ``_TOKEN``."""
    with old_reader():
        return token_outcome(text)


def old_load_vocabulary(
    g: Graph, cfg: NamespaceConfig = DEFAULT_CONFIG
) -> tuple[Vocabulary, ValidationReport]:
    """``load_vocabulary`` under ``old_reader``, with the scheme and title
    found by the old loop: the last IRI subject typed ``skos:ConceptScheme``
    in sorted triple order wins, and the tagged titles of every such subject
    merge in that order."""
    with old_reader():
        vocab, report = load_vocabulary(g, cfg)
        scheme_uri, title = Iri(cfg.scheme_uri()), {}
        for t in sorted(g, key=triple_sort_key):
            if t.predicate.value == RDF_TYPE and t.object == CONCEPT_SCHEME_CLASS:
                scheme_uri = t.subject if isinstance(t.subject, Iri) else scheme_uri
                for obj in g.objects(t.subject, TITLE):
                    if isinstance(obj, Literal) and obj.lang:
                        title[obj.lang] = obj.lexical
    return dataclasses.replace(vocab, scheme_uri=scheme_uri, title=title), report


# --- the code points whose presence in an HTML input stream is a parse error

def html_forbids(c: str) -> bool:
    """Whether ``c`` is a control other than ASCII whitespace or a noncharacter
    (HTML Living Standard, "Preprocessing the input stream")."""
    o = ord(c)
    control = o <= 0x1F or 0x7F <= o <= 0x9F
    return (control and c not in "\t\n\x0c\r") or 0xFDD0 <= o <= 0xFDEF or o & 0xFFFE == 0xFFFE


# --- negotiation without the snapshot's memo tables -------------------------

def old_negotiate(rel: str, headers: Mapping[str, str], snapshot: Snapshot) -> Response:
    """The 303 for the scheme URI or a statement URI at ``rel`` (no
    leading slash, no query), or 404.  A header is read only once the
    URI resolves, and Accept-Language only when HTML is chosen."""
    if rel.rstrip("/") == "rs":
        base, langs = "rs/", snapshot.overview_langs
    else:
        cfg = snapshot.cfg
        record = lookup_statement(snapshot.vocabulary, cfg.base + "/" + rel, cfg)
        if record is None:
            return _NOT_FOUND
        base, langs = statement_dir(record), record.languages()
    doc = _DOC_SUFFIX.get(select_media_type(parse_accept(_field(headers, "accept"))))
    if doc is None:
        ranges = parse_accept_language(_field(headers, "accept-language"))
        doc = f"index.{select_language(langs, ranges)}.html"
    return 303, (("Vary", VARY), ("Location", f"/{base}{doc}"), ("Content-Length", "0")), b""


# --- the HTML pages before a statement's parts were shared by its pages ----

_PREFIX_ATTR = " ".join(f"{p}: {ns}" for p, ns in NAMESPACE_TABLE.items())


def _esc(s: str) -> str:
    return html_mod.escape(s, quote=True)


def _head(lang: str, title: str) -> list[str]:
    return ["<!DOCTYPE html>", f'<html lang="{_esc(lang)}" prefix="{_esc(_PREFIX_ATTR)}">',
            "<head>", '<meta charset="utf-8">', f"<title>{_esc(title)}</title>", "</head>", "<body>"]


def _iri_link(prop: str, iri: Iri) -> str:
    v = _esc(iri.value)
    return f'<a property="{prop}" resource="{v}" href="{v}">{v}</a>'


def render_statement_html(
    r: StatementRecord, lang: str, cfg: NamespaceConfig = DEFAULT_CONFIG
) -> str:
    if lang not in r.pref_labels:
        raise KeyError(f"no {lang!r} translation for {r.uri.name}")
    uri = build_statement_uri(r.uri, cfg)
    label = r.pref_labels[lang]
    lines = _head(lang, label) + [
        f'<article about="{_esc(uri)}" typeof="dcterms:RightsStatement">',
        f'<h1 property="skos:prefLabel" lang="{_esc(lang)}">{_esc(label)}</h1>',
        f'<p property="skos:definition" lang="{_esc(lang)}">{_esc(r.definitions[lang])}</p>'
        if lang in r.definitions else "",
    ]
    if lang in r.notes:
        lines.append(
            f'<p property="skos:scopeNote" lang="{_esc(lang)}">{_esc(r.notes[lang])}</p>'
        )
    lines.append("<dl>")
    # None marks a row left out; an empty creator or jurisdiction is unset
    for term, prop, value in (
        ("Identifier", "dc:identifier", r.uri.name),
        ("Version", "dcterms:hasVersion", r.uri.version),
        ("Creator", "dc:creator", r.creator or None),
        ("Modified", "dcterms:modified", r.modified),
        ("Jurisdiction", "dcterms:coverage", r.jurisdiction or None),
    ):
        if value is not None:
            lines.append(f'<dt>{term}</dt><dd property="{prop}" lang="">{_esc(value)}</dd>')
    if not r.jurisdiction:
        lines.append("<dt>Jurisdiction</dt><dd>worldwide</dd>")
    lines.append("</dl>")
    if r.matches:
        lines.append("<section><h2>Related rights expressions</h2><ul>")
        for m in r.matches:
            lines.append(f'<li>{_iri_link("skos:" + m.relation, m.target)}</li>')
        lines.append("</ul></section>")
    for perm in r.permissions:
        lines.append('<div property="odrl:permission" typeof="">')
        lines.append(f'<span>Permitted action: {_iri_link("odrl:action", perm.action)}</span>')
        for c in perm.constraints:
            lines.append('<div property="odrl:constraint" typeof="">')
            lines.append(f'<span>{_iri_link("odrl:operator", c.operator)}</span>')
            lines.append(f'<span>{_iri_link("odrl:purpose", c.purpose)}</span>')
            lines.append("</div>")
        lines.append("</div>")
    others = [l for l in r.languages() if l != lang]
    lines.append("<section><h2>Other translations</h2><ul>")
    for other in others:
        lines.append(f'<li><a href="index.{_esc(other)}.html">{_esc(other)}</a></li>')
    lines.append("</ul></section>")
    lines.extend(["</article>", "</body>", "</html>"])
    return "\n".join(line for line in lines if line) + "\n"


def render_overview_html(v: Vocabulary, lang: str) -> str:
    title_lang = lang if lang in v.title else "en"
    title = v.title.get(title_lang, "Rights statements")
    lines = _head(lang, title)
    lines.append(f'<main about="{_esc(v.scheme_uri.value)}" typeof="skos:ConceptScheme">')
    if title_lang in v.title:
        lines.append(
            f'<h1 property="dcterms:title" lang="{_esc(title_lang)}">{_esc(title)}</h1>'
        )
    else:
        lines.append(f"<h1>{_esc(title)}</h1>")
    lines.append("<ul>")
    for key in sorted(v.statements, key=lambda k: (v.statements[k].uri.name, k)):
        r = v.statements[key]
        label = r.pref_labels.get(lang, r.pref_labels.get("en", r.uri.name))
        href = "/" + statement_dir(r)
        lines.append(f'<li><a href="{_esc(href)}">{_esc(label)}</a> ({_esc(key)})</li>')
    lines.extend(["</ul>", "</main>", "</body>", "</html>"])
    return "\n".join(lines) + "\n"
