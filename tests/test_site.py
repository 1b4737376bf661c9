import dataclasses
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rightsvocab import (
    BlankNode,
    Iri,
    StatementRecord,
    StatementUri,
    Vocabulary,
    build_statement_uri,
    load_vocabulary,
    parse_turtle,
    render_overview_html,
    render_statement_html,
    generate_site,
    serialize_jsonld,
    serialize_turtle,
)
from rightsvocab.jsonld import _value_key
from rightsvocab.namespaces import ODRL, SKOS
from rightsvocab.site import (
    SiteManifest,
    record_to_graph,
    statement_dir,
    statement_parts,
    vocabulary_to_graph,
    write_manifest,
)
from rightsvocab.uris import NamespaceConfig
from rightsvocab.vocab import MATCH_RELATIONS, ConstraintSpec, MatchSpec, PermissionSpec

import oracles
from conftest import fixture_text, jsonld_walk
from oracles import extract_rdfa, graphs_isomorphic, restrict_to_language


def test_single_statement_site_layout(ic_edu_graph):
    vocab, report = load_vocabulary(ic_edu_graph)
    manifest = generate_site(vocab)
    assert sorted(manifest.entries) == [
        "rs/data.jsonld",
        "rs/data.ttl",
        "rs/ic-edu/1.0/data.jsonld",
        "rs/ic-edu/1.0/data.ttl",
        "rs/ic-edu/1.0/index.en.html",
        "rs/index.en.html",
    ]


def test_every_statement_has_all_representations(vocabulary, manifest):
    for record in vocabulary.statements.values():
        base = statement_dir(record)
        assert base + "data.ttl" in manifest.entries
        assert base + "data.jsonld" in manifest.entries
        for lang in record.languages():
            assert base + f"index.{lang}.html" in manifest.entries


def test_empty_vocabulary_has_overview_only(vocabulary):
    empty = Vocabulary(vocabulary.scheme_uri, vocabulary.title, {})
    manifest = generate_site(empty)
    assert sorted(manifest.entries) == [
        "rs/data.jsonld", "rs/data.ttl", "rs/index.en.html", "rs/index.nl.html",
    ]


def test_generation_is_deterministic(vocabulary):
    a = generate_site(vocabulary)
    b = generate_site(vocabulary)
    assert {p: e.content for p, e in a.entries.items()} == \
        {p: e.content for p, e in b.entries.items()}


def test_refuses_unvalidated_vocabulary(ic_edu_text):
    broken = ic_edu_text.replace("@en ;", " ;")
    vocab, report = load_vocabulary(parse_turtle(broken))
    assert not report.accepted
    from rightsvocab.cli import CliConfig, run_build

    # the CLI path enforces the validation gate
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "broken.ttl"
        src.write_text(broken, encoding="utf-8")
        assert run_build(str(src), tmp, CliConfig()) == 1


def test_rdfa_fidelity_all_statements_and_languages(vocabulary):
    for record in vocabulary.statements.values():
        g = record_to_graph(record)
        for lang in record.languages():
            html = render_statement_html(record, lang)
            assert graphs_isomorphic(extract_rdfa(html), restrict_to_language(g, lang))


def test_format_agreement_turtle_vs_jsonld(vocabulary, manifest):
    for record in vocabulary.statements.values():
        base = statement_dir(record)
        ttl = parse_turtle(manifest.entries[base + "data.ttl"].content.decode())
        walked = jsonld_walk(manifest.entries[base + "data.jsonld"].content.decode())
        assert graphs_isomorphic(ttl, walked)


def test_whole_vocabulary_documents_at_stress_size(vocabulary):
    # 250 renamed copies of each record with a permission: over 500 blank nodes
    statements = dict(vocabulary.statements)
    for record in [r for r in vocabulary.statements.values() if r.permissions]:
        for i in range(250):
            uri = dataclasses.replace(record.uri, name=f"{record.uri.name}-copy{i}")
            statements[build_statement_uri(uri)] = dataclasses.replace(record, uri=uri)
    big = Vocabulary(vocabulary.scheme_uri, vocabulary.title, statements)
    full = vocabulary_to_graph(big)
    assert len({t.object for t in full if isinstance(t.object, BlankNode)}) >= 500
    entries = generate_site(big).entries
    ttl = parse_turtle(entries["rs/data.ttl"].content.decode())
    walked = jsonld_walk(entries["rs/data.jsonld"].content.decode())
    assert graphs_isomorphic(ttl, full)
    assert graphs_isomorphic(walked, full)
    assert graphs_isomorphic(ttl, walked)


def test_statement_page_content(vocabulary):
    record = vocabulary.statements["http://rightsstatements.org/rs/ic-edu/1.0/"]
    html = render_statement_html(record, "en")
    assert 'lang="en"' in html.splitlines()[1]
    assert "In Copyright - Educational Use Only" in html
    assert record.definitions["en"] in html
    assert "worldwide" in html  # no jurisdiction
    assert record.creator in html
    assert "1.0" in html and "2014-12-18" in html
    assert "index.nl.html" in html  # other translation linked


def test_jurisdiction_shown_from_data(vocabulary):
    record = vocabulary.statements["http://rightsstatements.org/rs/pd/1.0/US/"]
    html = render_statement_html(record, "en")
    assert ">US<" in html and "worldwide" not in html


def test_single_language_record_has_empty_translation_list(ic_edu_graph):
    vocab, _ = load_vocabulary(ic_edu_graph)
    record = vocab.statements["http://rightsstatements.org/rs/ic-edu/1.0/"]
    html = render_statement_html(record, "en")
    section = html.split("Other translations")[1]
    assert "<li>" not in section


def test_unknown_language_rejected(vocabulary):
    record = vocabulary.statements["http://rightsstatements.org/rs/ic/1.0/"]
    with pytest.raises(KeyError):
        render_statement_html(record, "fr")


def test_overview_lists_statements_sorted(vocabulary):
    html = render_overview_html(vocabulary, "en")
    pos_ic = html.index("/rs/ic/1.0/")
    pos_ic_edu = html.index("/rs/ic-edu/1.0/")
    pos_pd = html.index("/rs/pd/1.0/")
    assert pos_ic < pos_ic_edu < pos_pd


def test_overview_language_fallback(vocabulary):
    import dataclasses

    # drop the nl label from ic-edu and render the nl overview
    key = "http://rightsstatements.org/rs/ic-edu/1.0/"
    statements = dict(vocabulary.statements)
    record = statements[key]
    statements[key] = dataclasses.replace(
        record, pref_labels={"en": record.pref_labels["en"]},
        definitions={"en": record.definitions["en"]},
        notes={"en": record.notes["en"]},
    )
    v = Vocabulary(vocabulary.scheme_uri, vocabulary.title, statements)
    html = render_overview_html(v, "nl")
    assert 'lang="nl"' in html.splitlines()[1]
    assert record.pref_labels["en"] in html


def test_overview_types_concept_scheme(vocabulary):
    from rightsvocab.namespaces import RDF_TYPE, SKOS
    from rightsvocab import Iri, Triple

    g = extract_rdfa(render_overview_html(vocabulary, "en"))
    assert Triple(
        Iri("http://rightsstatements.org/rs/"),
        Iri(RDF_TYPE),
        Iri(SKOS + "ConceptScheme"),
    ) in g


def test_overview_describes_the_vocabularys_own_scheme():
    # a scheme IRI other than <base>/rs/: the overview's RDFa subject is the
    # ConceptScheme that rs/data.ttl describes
    text = fixture_text("vocabulary.ttl").replace(
        "<http://rightsstatements.org/rs/> a skos:ConceptScheme",
        "<http://rightsstatements.org/vocab/> a skos:ConceptScheme",
    )
    vocab, report = load_vocabulary(parse_turtle(text))
    assert report.accepted
    entries = generate_site(vocab).entries
    data = parse_turtle(entries["rs/data.ttl"].content.decode())
    rdfa = extract_rdfa(entries["rs/index.en.html"].content.decode())
    scheme = Iri(SKOS + "ConceptScheme")
    assert {t.subject for t in rdfa if t.object == scheme} == \
        {t.subject for t in data if t.object == scheme} == \
        {Iri("http://rightsstatements.org/vocab/")}
    assert {t.subject for t in rdfa} == {Iri("http://rightsstatements.org/vocab/")}


def test_written_tree_equals_manifest(manifest, tmp_path):
    count = write_manifest(manifest, tmp_path)
    assert count == len(manifest.entries)
    written = {
        p.relative_to(tmp_path).as_posix(): p.read_bytes()
        for p in tmp_path.rglob("*") if p.is_file()
    }
    assert written == {p: e.content for p, e in manifest.entries.items()}


def test_rewrite_with_shorter_content_leaves_no_stale_tail(tmp_path):
    site = SiteManifest()
    site.add("rs/data.ttl", "a longer first version\n", "text/turtle")
    write_manifest(site, tmp_path)
    site.add("rs/data.ttl", "short\n", "text/turtle")
    write_manifest(site, tmp_path)
    assert (tmp_path / "rs" / "data.ttl").read_bytes() == b"short\n"


def test_short_writes_are_continued(manifest, tmp_path, monkeypatch):
    # os.write may take only part of its buffer; three bytes at a time here
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:3])))
    write_manifest(manifest, tmp_path)
    for path, entry in manifest.entries.items():
        assert (tmp_path / path).read_bytes() == entry.content


def test_rewrite_removes_what_the_manifest_dropped(tmp_path):
    site = SiteManifest()
    for path in ("rs/data.ttl", "rs/a/1.0/data.ttl", "rs/b/1.0/US/data.ttl"):
        site.add(path, "x\n", "text/turtle")
    write_manifest(site, tmp_path)
    del site.entries["rs/b/1.0/US/data.ttl"]
    write_manifest(site, tmp_path)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "rs", "rs/a", "rs/a/1.0", "rs/a/1.0/data.ttl", "rs/data.ttl",
    ]


def test_manifest_paths_are_safe(manifest):
    for path in manifest.entries:
        assert not path.startswith("/")
        assert ".." not in path.split("/")


def _splice_vocabulary() -> Vocabulary:
    """Statement keys in the reverse of IRI order, a statement with eleven
    permissions (``_:b0`` to ``_:b10``, which sort as text), a jurisdiction,
    and two match IRIs of which one is the other followed by ``!y``."""

    def record(name, version, jurisdiction, permissions, matches=()):
        return StatementRecord(
            uri=StatementUri(name, version, jurisdiction),
            pref_labels={"en": name.upper(), "nl": f"{name} (nl)"},
            definitions={"en": f"The {name} statement."}, creator="Rights WG",
            modified="2015-05-02",
            matches=tuple(MatchSpec("closeMatch", Iri(m)) for m in matches),
            permissions=tuple(
                PermissionSpec(Iri(ODRL + "use"), (ConstraintSpec(
                    Iri(ODRL + "eq"), Iri(f"http://example.org/purpose/{k}")),))
                for k in range(permissions)
            ),
            jurisdiction=jurisdiction,
        )

    records = [
        record("aa", "1.0", None, 11, ["http://example.org/x", "http://example.org/x!y"]),
        record("aa", "1.0", "US", 1),
        record("mm", "1.0", None, 0, ["http://example.org/m"]),
        record("zz", "2.0", None, 1),
    ]
    keys = ["k4", "k3", "k2", "k1"]  # reverse of the IRI order
    return Vocabulary(Iri("http://rightsstatements.org/rs/"),
                      {"en": "Rights Statements", "nl": "Rechtenverklaringen"},
                      dict(zip(keys, records)))


def test_whole_vocabulary_documents_equal_the_full_graph_documents():
    v = _splice_vocabulary()
    manifest = generate_site(v)
    full = vocabulary_to_graph(v)
    jsonld = manifest.entries["rs/data.jsonld"].content.decode()
    node = next(n for n in json.loads(jsonld)["@graph"] if n["@id"].endswith("/aa/1.0/"))
    assert {"@id": "_:b9"} in node["odrl:permission"]
    assert {"@id": "_:b10"} in node["odrl:permission"]
    assert manifest.entries["rs/data.ttl"].content.decode() == serialize_turtle(full)
    assert jsonld == serialize_jsonld(full)


# strings the JSON text of a value sorts by: quotes, backslashes, control
# and non-ASCII characters escape, and "!" sorts before the closing quote
_json_text = st.text(alphabet=st.sampled_from('ab!"#\\/\n\x01é€😀'), max_size=6)
_json_values = st.one_of(
    st.builds(lambda i: {"@id": i}, _json_text),
    st.builds(lambda v: {"@value": v}, _json_text),
    st.builds(lambda v, lang: {"@value": v, "@language": lang}, _json_text, _json_text),
    st.builds(lambda v, t: {"@value": v, "@type": t}, _json_text, _json_text),
)


@given(st.lists(_json_values, max_size=8) | st.lists(_json_text, max_size=8))
@example([{"@id": "http://a/x"}, {"@id": "http://a/x!y"}])
def test_value_key_orders_as_the_json_text(values):
    def members(v):  # the writer holds a value object as its sorted (key, value) pairs
        return v if isinstance(v, str) else tuple(sorted(v.items()))

    assert sorted(values, key=lambda v: _value_key(members(v))) == \
        sorted(values, key=lambda v: json.dumps(v, sort_keys=True))


# --- the pages against the page writers before parts were shared ----------

# text with every character HTML escapes, and a non-ASCII one
_page_text = st.text(alphabet=st.sampled_from("ab &<>\"'é\n"), max_size=8)
_page_iris = st.builds(lambda t: Iri("http://example.org/" + t),
                       st.text(alphabet=st.sampled_from("a&\"'?="), max_size=5))
_configs = st.sampled_from([NamespaceConfig(), NamespaceConfig("http://example.org/a&b'c")])


@st.composite
def _records(draw, name=st.sampled_from(["ic", "in-copyright", "pd"])):
    """A record with 1-4 region and plain tags, some without a definition or
    note, an empty or set creator and jurisdiction, 0-3 matches and
    permissions with 0-3 constraints."""
    langs = draw(st.lists(st.sampled_from(["en", "nl", "pt-BR", "pt", "zh-TW", "fr"]),
                          min_size=1, max_size=4, unique=True))
    return StatementRecord(
        uri=StatementUri(draw(name), draw(st.sampled_from(["1.0", "2.0.1"])),
                         draw(st.sampled_from([None, "US"]))),
        pref_labels={lang: draw(_page_text) for lang in langs},
        definitions={lang: draw(_page_text) for lang in langs if draw(st.booleans())},
        notes={lang: draw(_page_text) for lang in langs if draw(st.booleans())},
        creator=draw(st.just("") | _page_text),
        modified=draw(_page_text),
        matches=tuple(draw(st.lists(
            st.builds(MatchSpec, st.sampled_from(MATCH_RELATIONS), _page_iris), max_size=3))),
        permissions=tuple(draw(st.lists(st.builds(
            PermissionSpec, _page_iris,
            st.lists(st.builds(ConstraintSpec, _page_iris, _page_iris), max_size=3).map(tuple),
        ), max_size=3))),
        jurisdiction=draw(st.none() | st.just("") | _page_text),
    )


@given(_records(), _configs)
def test_statement_pages_equal_the_old_writer(r, cfg):
    parts = statement_parts(r, cfg)
    for lang in r.languages():
        old = oracles.render_statement_html(r, lang, cfg)
        assert render_statement_html(r, lang, cfg) == old
        assert render_statement_html(r, lang, cfg, parts) == old


@settings(deadline=None)
@given(st.lists(_records(st.sampled_from(["aa", "b-b", "cc"])), max_size=3),
       st.dictionaries(st.sampled_from(["en", "nl", "pt-BR"]), _page_text, max_size=2),
       _page_iris, _configs)
def test_generated_pages_equal_the_old_writer(records, title, scheme, cfg):
    # keys with characters HTML escapes; "de" is a language no page has
    statements = {f"{r.uri.name}&<{r.uri.version}>": r for r in records}
    v = Vocabulary(scheme, title, statements)
    expected = {}
    for r in statements.values():
        for lang in r.languages():
            expected[statement_dir(r) + f"index.{lang}.html"] = \
                oracles.render_statement_html(r, lang, cfg)
    langs = {"en"} | set(title) | {lang for r in statements.values() for lang in r.languages()}
    for lang in langs:
        expected[f"rs/index.{lang}.html"] = oracles.render_overview_html(v, lang)
    assert render_overview_html(v, "de") == oracles.render_overview_html(v, "de")
    pages = {path: e.content.decode() for path, e in generate_site(v, cfg).entries.items()
             if path.endswith(".html")}
    assert pages == expected
