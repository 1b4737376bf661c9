"""Render a validated vocabulary into the static document tree.

Layout: ``rs/{name}/{version}/[{JUR}/]`` holds ``data.ttl``,
``data.jsonld`` and one ``index.{lang}.html`` per translation; ``rs/``
holds the concept-scheme overview in the same three families.
"""

from __future__ import annotations

import html as html_mod
import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .jsonld import CompactIris, jsonld_document, serialize_jsonld
from .model import BlankNode, Graph, Iri, Literal, Triple, term_sort_key
from .namespaces import NAMESPACE_TABLE, ODRL, RDF_TYPE, SKOS
from .turtle import PREFIXES, ShrunkIris, serialize_turtle, turtle_blocks
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

    def add(self, path: str, content: str, media_type: str,
            language: Optional[str] = None) -> None:
        if path.startswith("/") or ".." in path.split("/"):
            raise ValueError(f"bad manifest path {path!r}")
        self.entries[path] = SiteEntry(content.encode("utf-8"), media_type, language)


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


def render_overview_html(v: Vocabulary, lang: str) -> str:
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
    for key in sorted(v.statements, key=lambda k: (v.statements[k].uri.name, k)):
        r = v.statements[key]
        label = r.pref_labels.get(lang, r.pref_labels.get("en", r.uri.name))
        href = "/" + statement_dir(r)
        lines.append(f'<li><a href="{_esc(href)}">{_esc(label)}</a> ({_esc(key)})</li>')
    lines.extend(["</ul>", "</main>", "</body>", "</html>"])
    return "\n".join(lines) + "\n"


def generate_site(v: Vocabulary, cfg: NamespaceConfig = DEFAULT_CONFIG) -> SiteManifest:
    """Every document; ``rs/data.*`` are spliced from the per-statement ones.

    Work repeated across documents is done once per call: each statement's
    language-independent markup, each IRI's short forms, and the JSON-LD
    text of each node free of blank nodes, which ``rs/data.jsonld`` reuses.
    """
    manifest = SiteManifest()
    counter = itertools.count()
    shrink, compact = ShrunkIris(), CompactIris()
    all_langs: set[str] = set(v.title) | {"en"}
    scheme = _scheme_graph(v)
    blocks = {v.scheme_uri: turtle_blocks(scheme, shrink)[0]}
    about = {v.scheme_uri: scheme.triples_about(v.scheme_uri)}
    nodes: dict[str, str] = {}  # @id -> JSON-LD text, of nodes free of blank nodes
    for key in sorted(v.statements):
        r = v.statements[key]
        base = statement_dir(r)
        g = record_to_graph(r, cfg, counter)
        ttl = serialize_turtle(g, shrink)
        manifest.add(base + "data.ttl", ttl, "text/turtle")
        kept: dict[str, str] = {}
        jsonld = serialize_jsonld(g, kept, compact)
        manifest.add(base + "data.jsonld", jsonld, "application/ld+json")
        # a record's blank nodes are all inlined: its document has one block
        blocks[Iri(build_statement_uri(r.uri, cfg))] = ttl[len(PREFIXES) + 2:-1]
        for s in g.subjects():  # the last graph to describe a subject gives its node
            if isinstance(s, Iri) and s.value in kept:
                about.pop(s, None)
            else:
                about[s] = g.triples_about(s)
                if isinstance(s, Iri):
                    nodes.pop(s.value, None)
        nodes.update(kept)
        parts = statement_parts(r, cfg)
        for lang in r.languages():
            manifest.add(
                base + f"index.{lang}.html",
                render_statement_html(r, lang, cfg, parts),
                "text/html",
                language=lang,
            )
        all_langs.update(r.languages())
    turtle = [PREFIXES] + [blocks[s] for s in sorted(blocks, key=term_sort_key)]
    manifest.add("rs/data.ttl", "\n\n".join(turtle) + "\n", "text/turtle")
    triples = [t for s in sorted(about, key=term_sort_key) for t in about[s]]
    manifest.add("rs/data.jsonld", jsonld_document(triples, nodes, compact), "application/ld+json")
    for lang in sorted(all_langs):
        manifest.add(
            f"rs/index.{lang}.html",
            render_overview_html(v, lang),
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
