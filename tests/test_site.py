import pytest

from rightsvocab import (
    Vocabulary,
    extract_rdfa,
    graphs_isomorphic,
    load_vocabulary,
    parse_turtle,
    render_overview_html,
    render_statement_html,
    generate_site,
)
from rightsvocab.site import (
    record_to_graph,
    restrict_to_language,
    statement_dir,
    write_manifest,
)

from conftest import fixture_text, jsonld_walk


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
            html = render_statement_html(record, lang, vocabulary)
            assert graphs_isomorphic(extract_rdfa(html), restrict_to_language(g, lang))


def test_format_agreement_turtle_vs_jsonld(vocabulary, manifest):
    for record in vocabulary.statements.values():
        base = statement_dir(record)
        ttl = parse_turtle(manifest.entries[base + "data.ttl"].content.decode())
        walked = jsonld_walk(manifest.entries[base + "data.jsonld"].content.decode())
        assert graphs_isomorphic(ttl, walked)


def test_statement_page_content(vocabulary):
    record = vocabulary.statements["http://rightsstatements.org/rs/ic-edu/1.0/"]
    html = render_statement_html(record, "en", vocabulary)
    assert 'lang="en"' in html.splitlines()[1]
    assert "In Copyright - Educational Use Only" in html
    assert record.definitions["en"] in html
    assert "worldwide" in html  # no jurisdiction
    assert record.creator in html
    assert "1.0" in html and "2014-12-18" in html
    assert "index.nl.html" in html  # other translation linked


def test_jurisdiction_shown_from_data(vocabulary):
    record = vocabulary.statements["http://rightsstatements.org/rs/pd/1.0/US/"]
    html = render_statement_html(record, "en", vocabulary)
    assert ">US<" in html and "worldwide" not in html


def test_single_language_record_has_empty_translation_list(ic_edu_graph):
    vocab, _ = load_vocabulary(ic_edu_graph)
    html = render_statement_html(
        vocab.statements["http://rightsstatements.org/rs/ic-edu/1.0/"], "en", vocab
    )
    section = html.split("Other translations")[1]
    assert "<li>" not in section


def test_unknown_language_rejected(vocabulary):
    record = vocabulary.statements["http://rightsstatements.org/rs/ic/1.0/"]
    with pytest.raises(KeyError):
        render_statement_html(record, "fr", vocabulary)


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


def test_written_tree_equals_manifest(manifest, tmp_path):
    count = write_manifest(manifest, tmp_path)
    assert count == len(manifest.entries)
    written = {
        p.relative_to(tmp_path).as_posix(): p.read_bytes()
        for p in tmp_path.rglob("*") if p.is_file()
    }
    assert written == {p: e.content for p, e in manifest.entries.items()}


def test_manifest_paths_are_safe(manifest):
    for path in manifest.entries:
        assert not path.startswith("/")
        assert ".." not in path.split("/")
