"""Render a validated vocabulary into the static document tree.

Layout: ``rs/{name}/{version}/[{JUR}/]`` holds ``data.ttl``,
``data.jsonld`` and one ``index.{lang}.html`` per translation; ``rs/``
holds the concept-scheme overview in the same three families.
"""

from __future__ import annotations

import functools
import html as html_mod
import itertools
import os
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Optional

from .jsonld import CompactIris, _value_key, encoded_document, graph_nodes, key_text, node_text
from .model import BlankNode, Graph, Iri, Literal, Triple
from .namespaces import NAMESPACE_TABLE, ODRL, RDF_TYPE, SKOS
from .turtle import PREFIXES, ShrunkIris, _escape, turtle_blocks
# the generic writers, named here as well: a build no longer calls them, but
# perfbench/spans.py traces them under these names
from .jsonld import serialize_jsonld  # noqa: F401
from .turtle import serialize_turtle  # noqa: F401
from .uris import DEFAULT_CONFIG, NamespaceConfig, build_statement_uri
from .vocab import (
    CONCEPT_SCHEME_CLASS,
    COVERAGE,
    CREATOR,
    DEFINITION,
    HAS_VERSION,
    IDENTIFIER,
    MODIFIED,
    PREF_LABEL,
    RIGHTS_STATEMENT_CLASS,
    SCOPE_NOTE,
    TITLE,
    StatementRecord,
    Vocabulary,
)

@dataclass(frozen=True)
class SiteEntry:
    content: bytes
    media_type: str
    language: Optional[str] = None


@dataclass
class SiteManifest:
    entries: dict[str, SiteEntry] = field(default_factory=dict)

    def add(self, path: str, content: str | bytes, media_type: str,
            language: Optional[str] = None) -> None:
        """Add ``content``, given as text or as its UTF-8 encoding."""
        if path.startswith("/") or ".." in path.split("/"):
            raise ValueError(f"bad manifest path {path!r}")
        if isinstance(content, str):
            content = content.encode("utf-8")
        self.entries[path] = SiteEntry(content, media_type, language)


_TYPE = Iri(RDF_TYPE)
_PERMISSION, _ACTION, _CONSTRAINT, _OPERATOR, _PURPOSE = (
    Iri(ODRL + local) for local in ("permission", "action", "constraint", "operator", "purpose")
)


def record_to_graph(
    r: StatementRecord,
    cfg: NamespaceConfig = DEFAULT_CONFIG,
    counter=None,
) -> Graph:
    """Re-express a record's fields as triples."""
    if counter is None:
        counter = itertools.count()
    subject = Iri(build_statement_uri(r.uri, cfg))
    triples = [Triple(subject, _TYPE, RIGHTS_STATEMENT_CLASS)]
    for lang, text in r.pref_labels.items():
        triples.append(Triple(subject, PREF_LABEL, Literal(text, lang=lang)))
    for lang, text in r.definitions.items():
        triples.append(Triple(subject, DEFINITION, Literal(text, lang=lang)))
    for lang, text in r.notes.items():
        triples.append(Triple(subject, SCOPE_NOTE, Literal(text, lang=lang)))
    if r.creator:
        triples.append(Triple(subject, CREATOR, Literal(r.creator)))
    triples.append(Triple(subject, HAS_VERSION, Literal(r.uri.version)))
    triples.append(Triple(subject, MODIFIED, Literal(r.modified)))
    triples.append(Triple(subject, IDENTIFIER, Literal(r.uri.name)))
    if r.jurisdiction:
        triples.append(Triple(subject, COVERAGE, Literal(r.jurisdiction)))
    for m in r.matches:
        triples.append(Triple(subject, Iri(SKOS + m.relation), m.target))
    for perm in r.permissions:
        pnode = BlankNode(f"p{next(counter)}")
        triples.append(Triple(subject, _PERMISSION, pnode))
        triples.append(Triple(pnode, _ACTION, perm.action))
        for c in perm.constraints:
            cnode = BlankNode(f"p{next(counter)}")
            triples.append(Triple(pnode, _CONSTRAINT, cnode))
            triples.append(Triple(cnode, _OPERATOR, c.operator))
            triples.append(Triple(cnode, _PURPOSE, c.purpose))
    return Graph(triples)


def _scheme_graph(v: Vocabulary) -> Graph:
    return Graph([Triple(v.scheme_uri, _TYPE, CONCEPT_SCHEME_CLASS)] + [
        Triple(v.scheme_uri, TITLE, Literal(text, lang=lang)) for lang, text in v.title.items()
    ])


def vocabulary_to_graph(v: Vocabulary, cfg: NamespaceConfig = DEFAULT_CONFIG) -> Graph:
    """The whole vocabulary as one graph, whose documents are ``rs/data.*``."""
    counter = itertools.count()
    triples = list(_scheme_graph(v))
    for key in sorted(v.statements):
        triples.extend(record_to_graph(v.statements[key], cfg, counter))
    return Graph(triples)


# --- statement documents straight from the record --------------------------

@functools.lru_cache(maxsize=256)
def _lang_tag(tag: str) -> str:
    """``tag`` as a ``Literal`` holds it: normalized, or refused with ``ValueError``."""
    return Literal("", lang=tag).lang


@dataclass(frozen=True)
class _Node:
    """A statement's subject or one of its blank nodes, as both writers need it."""

    ref: str  # the subject's IRI, or the blank node's ``p{n}`` label
    turtle: str  # the predicate-object list, each line led by a newline and the indent
    keys: dict[str, str]  # JSON-LD key -> its ``key_text``, but for keys of blank nodes
    blank: dict[str, tuple["_Node", ...]]  # JSON-LD key -> blank nodes, in label order


def _write_node(ref: str, rows: dict[str, list], indent: int,
                shrink: ShrunkIris, compact: CompactIris) -> _Node:
    """``rows`` maps each predicate IRI to its objects, in ``term_sort_key``
    order and without repeats: ``Iri``s, ``(text, language or None)``
    literals, or the blank ``_Node``s written one level deeper."""
    pad = "\n" + "    " * indent
    items: list[str] = []
    keys: dict[str, str] = {}
    blank: dict[str, tuple[_Node, ...]] = {}
    for p in sorted(rows):  # Turtle's predicate order; the JSON-LD writer sorts its keys itself
        objs = rows[p]
        head, key = ("a", "@type") if p == RDF_TYPE else (shrink[p], compact[p])
        if isinstance(objs[0], _Node):
            items += [f"{head} [{o.turtle}{pad}]" for o in objs]
            blank[key] = tuple(objs)
        elif isinstance(objs[0], Iri):
            items += [f"{head} {shrink[o.value]}" for o in objs]
            values = [compact[o.value] if p == RDF_TYPE else (("@id", o.value),) for o in objs]
            keys[key] = key_text(key, sorted(values, key=_value_key))
        else:
            items += [f'{head} "{_escape(text)}"' + (f"@{lang}" if lang else "") for text, lang in objs]
            keys[key] = key_text(key, _literal_values(objs))
    return _Node(ref, pad + f" ;{pad}".join(items), keys, blank)


def _literal_values(objs: list[tuple[str, Optional[str]]]) -> list[tuple]:
    """The JSON-LD values of the ``(text, language)`` literals ``objs``, in
    ``_value_key`` order: by language, then by text.  A valid tag is ASCII
    letters and "-", which order as their JSON text does, so the texts are
    encoded to be ordered only when two literals share a tag."""
    values = [(("@language", lang), ("@value", text)) if lang else (("@value", text),)
              for text, lang in objs]
    if len(values) > 1:
        distinct = len({lang for _, lang in objs}) == len(values)
        values.sort(key=itemgetter(0) if distinct else _value_key)
    return values


_TURTLE_HEAD = (PREFIXES + "\n\n").encode()


class StatementDocuments:
    """A statement's Turtle block and JSON-LD nodes, UTF-8 encoded and
    written straight from its record: the documents ``serialize_turtle`` and
    ``serialize_jsonld`` give ``record_to_graph(r, cfg, counter)``, whose
    ``p{n}`` labels are drawn from ``counter`` in the same order."""

    def __init__(self, r: StatementRecord, cfg: NamespaceConfig = DEFAULT_CONFIG,
                 counter=None, shrink: Optional[ShrunkIris] = None,
                 compact: Optional[CompactIris] = None):
        counter = itertools.count() if counter is None else counter
        shrink = ShrunkIris() if shrink is None else shrink
        compact = CompactIris() if compact is None else compact
        rows: dict[str, list] = {RDF_TYPE: [RIGHTS_STATEMENT_CLASS]}
        for pred, texts in ((PREF_LABEL, r.pref_labels), (DEFINITION, r.definitions),
                            (SCOPE_NOTE, r.notes)):
            if texts:  # a set: two spellings of one tag with one text make one triple
                rows[pred.value] = sorted({(text, _lang_tag(lang)) for lang, text in texts.items()})
        # None marks a literal left out; an empty creator or jurisdiction is unset
        for pred, text in ((CREATOR, r.creator or None), (HAS_VERSION, r.uri.version),
                           (MODIFIED, r.modified), (IDENTIFIER, r.uri.name),
                           (COVERAGE, r.jurisdiction or None)):
            if text is not None:
                rows[pred.value] = [(text, None)]
        targets: dict[str, set[Iri]] = {}
        for m in r.matches:
            targets.setdefault(Iri(SKOS + m.relation).value, set()).add(m.target)
        for pred, iris in targets.items():
            rows[pred] = sorted(iris, key=str)
        perms = []
        for perm in r.permissions:
            label = f"p{next(counter)}"  # before its constraints', as record_to_graph draws them
            prow: dict[str, list] = {_ACTION.value: [perm.action]}
            constraints = [_write_node(f"p{next(counter)}", {_OPERATOR.value: [c.operator],
                                                              _PURPOSE.value: [c.purpose]},
                                       3, shrink, compact)
                           for c in perm.constraints]
            if constraints:
                prow[_CONSTRAINT.value] = sorted(constraints, key=attrgetter("ref"))
            perms.append(_write_node(label, prow, 2, shrink, compact))
        if perms:
            rows[_PERMISSION.value] = sorted(perms, key=attrgetter("ref"))
        self.iri = Iri(build_statement_uri(r.uri, cfg)).value
        self.root = _write_node(self.iri, rows, 1, shrink, compact)
        self.block = (shrink[self.iri] + self.root.turtle + " .").encode()

    @property
    def blank_nodes(self) -> bool:
        """Whether the statement has blank nodes: if not, its JSON-LD is the
        same under any names."""
        return bool(self.root.blank)

    def turtle(self) -> bytes:
        """The statement's own ``data.ttl``: its one block, blank nodes inlined."""
        return _TURTLE_HEAD + self.block + b"\n"

    def jsonld_nodes(self, names: dict[str, str]) -> dict[str, bytes]:
        """The text of each JSON-LD node by ``@id``, under ``names``, which
        maps each ``p{n}`` label to its display name."""
        texts: dict[str, bytes] = {}

        def add(n: _Node, node_id: str) -> None:
            keys = n.keys
            if n.blank:
                keys = dict(keys)
                for key, children in n.blank.items():
                    ids = ["_:" + names[c.ref] for c in children]
                    keys[key] = key_text(key, sorted([(("@id", i),) for i in ids], key=_value_key))
                    for c, i in zip(children, ids):
                        add(c, i)
            texts[node_id] = node_text(node_id, keys).encode()

        add(self.root, self.iri)
        return texts


def blank_names(docs: list[StatementDocuments]) -> dict[str, str]:
    """``display_names`` of the graph of ``docs``, given in IRI order, by
    ``p{n}`` label.  In that graph's triple order each subject's blank nodes
    come in its own triples, and every blank subject, in label order as
    text, after every IRI subject."""
    names: dict[str, str] = {}
    subjects: dict[str, _Node] = {}

    def name(n: _Node) -> None:
        if n.ref not in names:
            names[n.ref] = f"b{len(names)}"

    def visit(n: _Node) -> None:
        for children in n.blank.values():
            for c in children:
                subjects[c.ref] = c
                visit(c)

    for d in docs:
        for children in d.root.blank.values():
            for c in children:
                name(c)
        visit(d.root)
    for label in sorted(subjects):
        n = subjects[label]
        name(n)
        for children in n.blank.values():
            for c in children:
                name(c)
    return names


def statement_dir(r: StatementRecord) -> str:
    path = f"rs/{r.uri.name}/{r.uri.version}/"
    if r.uri.jurisdiction:
        path += f"{r.uri.jurisdiction}/"
    return path


def _esc(s: str) -> str:
    return html_mod.escape(s, quote=True)


_PREFIX_ATTR = _esc(" ".join(f"{p}: {ns}" for p, ns in NAMESPACE_TABLE.items()))


def _head(lang_attr: str, title: str) -> str:
    """The page up to ``<body>``; ``lang_attr`` is the escaped language."""
    return (f'<!DOCTYPE html>\n<html lang="{lang_attr}" prefix="{_PREFIX_ATTR}">\n<head>\n'
            f'<meta charset="utf-8">\n<title>{_esc(title)}</title>\n</head>\n<body>')


def _iri_link(prop: str, iri: Iri) -> str:
    v = _esc(iri.value)
    return f'<a property="{prop}" resource="{v}" href="{v}">{v}</a>'


@dataclass(frozen=True)
class StatementParts:
    """The markup of a statement's page that no language changes, escaped
    once for all of its pages."""

    about: str  # the opening ``<article>`` tag
    body: str  # the ``<dl>`` rows, the matches and the permissions
    translations: dict[str, str]  # language -> the ``<li>`` linking its page


def statement_parts(r: StatementRecord, cfg: NamespaceConfig = DEFAULT_CONFIG) -> StatementParts:
    lines = ["<dl>"]
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
    return StatementParts(
        about=(f'<article about="{_esc(build_statement_uri(r.uri, cfg))}"'
               ' typeof="dcterms:RightsStatement">'),
        body="\n".join(lines),
        translations={
            lang: f'<li><a href="index.{_esc(lang)}.html">{_esc(lang)}</a></li>'
            for lang in r.languages()
        },
    )


def render_statement_html(
    r: StatementRecord,
    lang: str,
    cfg: NamespaceConfig = DEFAULT_CONFIG,
    parts: Optional[StatementParts] = None,
) -> str:
    """The page of ``r`` in ``lang``; ``parts``, if given, is
    ``statement_parts(r, cfg)``, computed once for all of ``r``'s pages."""
    if lang not in r.pref_labels:
        raise KeyError(f"no {lang!r} translation for {r.uri.name}")
    if parts is None:
        parts = statement_parts(r, cfg)
    lang_attr = _esc(lang)
    label = r.pref_labels[lang]
    lines = [
        _head(lang_attr, label),
        parts.about,
        f'<h1 property="skos:prefLabel" lang="{lang_attr}">{_esc(label)}</h1>',
    ]
    if lang in r.definitions:
        lines.append(
            f'<p property="skos:definition" lang="{lang_attr}">{_esc(r.definitions[lang])}</p>'
        )
    if lang in r.notes:
        lines.append(f'<p property="skos:scopeNote" lang="{lang_attr}">{_esc(r.notes[lang])}</p>')
    lines.append(parts.body)
    lines.append("<section><h2>Other translations</h2><ul>")
    lines.extend(li for other, li in parts.translations.items() if other != lang)
    lines.append("</ul></section>\n</article>\n</body>\n</html>\n")
    return "\n".join(lines)


def overview_rows(v: Vocabulary) -> list[tuple[StatementRecord, str, str]]:
    """The overview's statements in page order, each with its link and key
    escaped, computed once for every language's overview."""
    rows = []
    for key in sorted(v.statements, key=lambda k: (v.statements[k].uri.name, k)):
        r = v.statements[key]
        rows.append((r, _esc("/" + statement_dir(r)), _esc(key)))
    return rows


def render_overview_html(
    v: Vocabulary, lang: str, rows: Optional[list[tuple[StatementRecord, str, str]]] = None
) -> str:
    """The overview in ``lang``; ``rows``, if given, is ``overview_rows(v)``."""
    if rows is None:
        rows = overview_rows(v)
    title_lang = lang if lang in v.title else "en"
    title = v.title.get(title_lang, "Rights statements")
    lines = [_head(_esc(lang), title)]
    lines.append(f'<main about="{_esc(v.scheme_uri.value)}" typeof="skos:ConceptScheme">')
    if title_lang in v.title:
        lines.append(
            f'<h1 property="dcterms:title" lang="{_esc(title_lang)}">{_esc(title)}</h1>'
        )
    else:
        lines.append(f"<h1>{_esc(title)}</h1>")
    lines.append("<ul>")
    for r, href, key in rows:
        label = r.pref_labels.get(lang, r.pref_labels.get("en", r.uri.name))
        lines.append(f'<li><a href="{href}">{_esc(label)}</a> ({key})</li>')
    lines.extend(["</ul>", "</main>", "</body>", "</html>"])
    return "\n".join(lines) + "\n"


def generate_site(v: Vocabulary, cfg: NamespaceConfig = DEFAULT_CONFIG) -> SiteManifest:
    """Every document.  A statement's ``data.ttl`` and ``data.jsonld`` are
    written straight from its record; ``rs/data.*`` are spliced from the same
    Turtle blocks, and from JSON-LD nodes under the whole document's names.

    Work repeated across documents is done once per call: each statement's
    language-independent markup, the overview's rows and each IRI's short
    forms.  Two keys whose records have one statement URI raise
    ``ValueError``.
    """
    manifest = SiteManifest()
    counter = itertools.count()
    shrink, compact = ShrunkIris(), CompactIris()
    all_langs: set[str] = set(v.title) | {"en"}
    scheme = _scheme_graph(v)
    blocks = {v.scheme_uri.value: turtle_blocks(scheme, shrink)[0].encode()}
    nodes = {i: text.encode() for i, text in graph_nodes(list(scheme), compact).items()}
    key_of: dict[str, str] = {}  # statement IRI -> its key
    blank: dict[str, StatementDocuments] = {}  # the statements with blank nodes, by IRI
    for key in sorted(v.statements):
        r = v.statements[key]
        d = StatementDocuments(r, cfg, counter, shrink, compact)
        if d.iri in key_of:
            raise ValueError(f"keys {key_of[d.iri]!r} and {key!r} hold one statement URI {d.iri}")
        key_of[d.iri] = key
        base = statement_dir(r)
        manifest.add(base + "data.ttl", d.turtle(), "text/turtle")
        own = d.jsonld_nodes(blank_names([d]))
        manifest.add(base + "data.jsonld", encoded_document(own), "application/ld+json")
        blocks[d.iri] = d.block
        if d.blank_nodes:
            blank[d.iri] = d
        else:
            nodes.update(own)
        parts = statement_parts(r, cfg)
        for lang in r.languages():
            manifest.add(
                base + f"index.{lang}.html",
                render_statement_html(r, lang, cfg, parts),
                "text/html",
                language=lang,
            )
        all_langs.update(r.languages())
    turtle = [PREFIXES.encode()] + [blocks[s] for s in sorted(blocks)]
    manifest.add("rs/data.ttl", b"\n\n".join(turtle) + b"\n", "text/turtle")
    # the other statements name no blank node, and their nodes are in place
    ordered = [blank[iri] for iri in sorted(blank)]
    names = blank_names(ordered)
    for d in ordered:
        nodes.update(d.jsonld_nodes(names))
    manifest.add("rs/data.jsonld", encoded_document(nodes), "application/ld+json")
    rows = overview_rows(v)
    for lang in sorted(all_langs):
        manifest.add(
            f"rs/index.{lang}.html",
            render_overview_html(v, lang, rows),
            "text/html",
            language=lang,
        )
    return manifest


def write_manifest(manifest: SiteManifest, out_dir: Path) -> int:
    """Write every entry in place, then delete the files under ``rs/`` that
    no entry names and the directories that leaves empty."""
    parents = {rel.rpartition("/")[0] for rel in manifest.entries}
    for parent in parents:
        os.makedirs(os.path.join(out_dir, parent), exist_ok=True)
    for rel, entry in manifest.entries.items():
        # no O_TRUNC: freeing and reallocating an existing file's blocks costs more than the write
        fd = os.open(os.path.join(out_dir, rel), os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            data = entry.content
            written = os.write(fd, data)
            while written < len(data):  # a write may take only part of what it is given
                written += os.write(fd, memoryview(data)[written:])
            os.ftruncate(fd, written)
        finally:
            os.close(fd)
    rs = os.path.join(out_dir, "rs")
    for root, _, files in os.walk(rs, topdown=False):
        rel = ("rs" + root[len(rs):]).replace(os.sep, "/")
        for name in files:
            if f"{rel}/{name}" not in manifest.entries:
                os.unlink(os.path.join(root, name))
        if rel not in parents and not os.listdir(root):
            os.rmdir(root)
    return len(manifest.entries)
