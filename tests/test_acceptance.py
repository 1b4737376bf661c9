"""Acceptance suite: one test per criterion, each prints a pass line."""

import dataclasses
import hashlib
import http.client
import itertools
import re
import time

from rightsvocab import (
    NegotiationServer,
    Snapshot,
    StatementUri,
    Validity,
    build_statement_uri,
    check_object_references,
    diff_versions,
    load_vocabulary,
    parse_statement_uri,
    parse_turtle,
    render_statement_html,
    serialize_turtle,
)
from rightsvocab.cli import CliConfig, run_build
from rightsvocab.site import record_to_graph, statement_dir
from rightsvocab.vocab import Vocabulary

from conftest import FIXTURES, fixture_text, jsonld_walk, start_background
from oracles import extract_rdfa, graphs_isomorphic, restrict_to_language


def normalize_uri(uri: str) -> str:
    return build_statement_uri(parse_statement_uri(uri))


def _passline(number: int, description: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.monotonic() - started:.2f}s): {description}")


def _independent_triple_count(text: str) -> int:
    """Count predicate-object pairs straight off the Turtle text:
    each subject block (top-level statement or bracketed node) contributes
    its internal ';' count plus one."""
    body = "\n".join(
        line for line in text.splitlines()
        if not line.startswith("@prefix") and not line.startswith("#")
    )
    statements = len(re.findall(r"\.\s*$", body, flags=re.MULTILINE))
    blocks = statements + body.count("[")
    return body.count(";") + blocks


def test_criterion_1_fixture_fidelity(ic_edu_text, ic_edu_graph):
    started = time.monotonic()
    assert _independent_triple_count(ic_edu_text) == 13
    assert len(ic_edu_graph) == 13

    vocab, report = load_vocabulary(ic_edu_graph)
    assert report.accepted
    record = vocab.statements["http://rightsstatements.org/rs/ic-edu/1.0/"]
    assert record.pref_labels == {"en": "In Copyright - Educational Use Only"}
    assert record.definitions["en"].startswith(
        "This digital object is protected by copyright and/or related rights."
    )
    assert record.uri.name == "ic-edu"
    assert record.uri.version == "1.0"
    assert [(m.relation, m.target.value) for m in record.matches] == [
        ("relatedMatch", "http://id.loc.gov/vocabulary/preservation/copying/cpr")
    ]
    (perm,) = record.permissions
    assert perm.action.value.endswith("/use")
    ((operator, purpose),) = [
        (c.operator.value, c.purpose.value) for c in perm.constraints
    ]
    assert operator.endswith("/eq")
    assert purpose == "http://rightsstatements.org/purpose/education"

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passline(1, "verbatim fixture parses to 13 triples with full structure", started)


def test_criterion_2_round_trip_suite(vocabulary, manifest):
    started = time.monotonic()
    pairs = 0
    for record in vocabulary.statements.values():
        g = record_to_graph(record)
        assert graphs_isomorphic(g, parse_turtle(serialize_turtle(g)))
        base = statement_dir(record)
        walked = jsonld_walk(manifest.entries[base + "data.jsonld"].content.decode())
        assert graphs_isomorphic(g, walked)
        for lang in record.languages():
            html = render_statement_html(record, lang)
            assert graphs_isomorphic(
                extract_rdfa(html), restrict_to_language(g, lang)
            )
            pairs += 1
    assert pairs == sum(len(r.languages()) for r in vocabulary.statements.values())
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _passline(2, f"round trips hold for all {pairs} statement-language pairs", started)


PAPER_URIS = [
    "http://rightsstatements.org/rs/ic-donor-restrictions/1.0/US/",
    "http://rightsstatements.org/rs/pd/1.0/US/from/2025-05-02/",
    "http://rightsstatements.org/rs/ic/1.0/",
    "http://rightsstatements.org/rs/ic-edu/1.0",
]


def test_criterion_3_uri_grammar():
    started = time.monotonic()
    corpus = [
        StatementUri(name, version, jur,
                     Validity(kind, "2025-05-02") if kind else None)
        for name, version, jur, kind in itertools.product(
            ("ic", "pd", "ic-edu"),
            ("1.0", "2.0"),
            (None, "US", "DE"),
            (None, "from", "until"),
        )
    ]
    assert len(corpus) == 3 * 2 * 3 * 3
    for s in corpus:
        uri = build_statement_uri(s)
        assert parse_statement_uri(uri) == s
        assert normalize_uri(uri) == uri
        assert normalize_uri(normalize_uri(uri)) == uri
    for uri in PAPER_URIS:
        parsed = parse_statement_uri(uri)
        canonical = normalize_uri(uri)
        assert canonical.endswith("/")
        assert parse_statement_uri(canonical) == parsed
    _passline(3, "parse/build identity and normalize idempotence, zero failures", started)


ACCEPT_CASES = {
    None: "html",
    "text/html": "html",
    "text/turtle": "ttl",
    "application/ld+json": "jsonld",
    "*/*": "html",
    "application/pdf": "html",  # unacceptable falls back to HTML
}

LANG_CASES = {
    None: "en",
    "en": "en",
    "nl": "nl",
    "nl;q=0, en;q=0.5": "en",
    "xx": "en",
}


def _matrix(vocabulary):
    """(path, accept, accept-language, expected location) for every cell."""
    cells = []
    targets = [("rs/", "rs/")]
    for record in vocabulary.statements.values():
        base = statement_dir(record)
        targets.append((base, base))
        if record.uri.name == "pd" and record.uri.jurisdiction == "US":
            targets.append((base + "from/2025-05-02/", base))
    for (path, base), (accept, fmt), (lang_header, lang) in itertools.product(
        targets, ACCEPT_CASES.items(), LANG_CASES.items()
    ):
        if fmt == "ttl":
            location = base + "data.ttl"
        elif fmt == "jsonld":
            location = base + "data.jsonld"
        else:
            location = base + f"index.{lang}.html"
        cells.append((path, accept, lang_header, location))
    return cells


def _headers(accept, lang):
    headers = {}
    if accept is not None:
        headers["Accept"] = accept
    if lang is not None:
        headers["Accept-Language"] = lang
    return headers


def test_criterion_4_negotiation_matrix(vocabulary, manifest):
    from rightsvocab import handle_request

    started = time.monotonic()
    snapshot = Snapshot(manifest=manifest, vocabulary=vocabulary)
    cells = _matrix(vocabulary)
    for path, accept, lang, location in cells:
        status, headers, body = handle_request(
            "GET", "/" + path, _headers(accept, lang), snapshot
        )
        hmap = dict(headers)
        # M2: abstract URIs never answer 200 with a body
        assert status == 303 and not body, (path, accept, lang)
        assert hmap["Location"] == "/" + location, (path, accept, lang)
        assert hmap["Vary"] == "Accept, Accept-Language"

    # E2: distinct versions dereference to distinct documents
    for accept in ACCEPT_CASES:
        one = handle_request("GET", "/rs/pd/1.0/", _headers(accept, None), snapshot)
        two = handle_request("GET", "/rs/pd/2.0/", _headers(accept, None), snapshot)
        assert dict(one[1])["Location"] != dict(two[1])["Location"]

    # M1: every 303 target exists and parses back to the statement subgraph
    for record in vocabulary.statements.values():
        base = statement_dir(record)
        for accept in ("text/turtle", "application/ld+json"):
            status, headers, _ = handle_request(
                "GET", "/" + base, _headers(accept, None), snapshot
            )
            target = dict(headers)["Location"].lstrip("/")
            status2, headers2, body = handle_request("GET", "/" + target, {}, snapshot)
            assert status2 == 200
            if accept == "text/turtle":
                fetched = parse_turtle(body.decode())
            else:
                fetched = jsonld_walk(body.decode())
            assert graphs_isomorphic(fetched, record_to_graph(record))

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _passline(4, f"all {len(cells)} negotiation cells plus M1/M2/E2 checks", started)


def test_criterion_5_version_change_enforcement(vocabulary):
    started = time.monotonic()
    mutated_count = 0
    for key, record in vocabulary.statements.items():
        for field in ("pref_labels", "definitions", "notes"):
            texts = getattr(record, field)
            for lang in texts:
                statements = dict(vocabulary.statements)
                statements[key] = dataclasses.replace(
                    record, **{field: {**texts, lang: texts[lang] + " (edited)"}}
                )
                edited = Vocabulary(vocabulary.scheme_uri, vocabulary.title, statements)
                report = diff_versions(vocabulary, edited)
                assert len(report.violations) == 1, (key, field, lang)
                mutated_count += 1

    from rightsvocab.vocab import MatchSpec
    from rightsvocab import Iri

    key = "http://rightsstatements.org/rs/ic/1.0/"
    record = vocabulary.statements[key]
    statements = dict(vocabulary.statements)
    statements[key] = dataclasses.replace(
        record,
        matches=record.matches + (MatchSpec("exactMatch", Iri("http://example.org/x")),),
        modified="2015-01-01",
    )
    report = diff_versions(
        vocabulary, Vocabulary(vocabulary.scheme_uri, vocabulary.title, statements)
    )
    assert not report.violations and len(report.infos) >= 1
    _passline(5, f"each of {mutated_count} single-literal edits yields one violation",
              started)


def test_criterion_6_object_checks(vocabulary):
    started = time.monotonic()
    expectations = [
        ("objects_europeana.ttl", {"RESOLVED": 1, "FREE_TEXT": 1}),
        ("objects_dpla.ttl", {"RESOLVED": 1, "FREE_TEXT": 1}),
        ("objects_ucsd.ttl", {"RESOLVED": 1}),
    ]
    for name, expect in expectations:
        report = check_object_references(parse_turtle(fixture_text(name)), vocabulary)
        got = {k: v for k, v in report.counts().items() if v}
        assert got == expect, name
    _passline(6, "Europeana/DPLA/UCSD object examples classify exactly", started)


def test_criterion_7_build_determinism(tmp_path):
    started = time.monotonic()
    vocab_file = str(FIXTURES / "vocabulary.ttl")
    trees = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert run_build(vocab_file, str(out), CliConfig()) == 0
        trees.append({
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()
        })
    assert trees[0] == trees[1] and trees[0]
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _passline(7, "two consecutive builds are byte-identical", started)


def test_criterion_8_end_to_end_over_socket(vocabulary, manifest):
    started = time.monotonic()
    snapshot = Snapshot(manifest=manifest, vocabulary=vocabulary)
    server = NegotiationServer(snapshot)
    start_background(server)
    try:
        host, port = server.address
        conn = http.client.HTTPConnection(host, port)
        cells = _matrix(vocabulary)
        for path, accept, lang, location in cells:
            conn.request("GET", "/" + path, headers=_headers(accept, lang))
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 303, (path, accept, lang)
            assert resp.getheader("Location") == "/" + location
            assert resp.getheader("Vary") == "Accept, Accept-Language"
        # spot-check that redirect targets resolve over the wire
        conn.request("GET", "/rs/ic-edu/1.0/data.ttl")
        resp = conn.getresponse()
        assert resp.status == 200
        assert b"In Copyright - Educational Use Only" in resp.read()
    finally:
        server.shutdown()
    _passline(8, f"live HTTP replay of all {len(cells)} matrix cells", started)
