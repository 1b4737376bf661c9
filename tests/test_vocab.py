import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rightsvocab import (
    Graph,
    Iri,
    Literal,
    Triple,
    TurtleSyntaxError,
    check_object_references,
    diff_versions,
    generate_site,
    load_vocabulary,
    lookup_statement,
    parse_turtle,
)
from rightsvocab.namespaces import CC, ODRL, RDF_TYPE
from rightsvocab.site import vocabulary_to_graph
from rightsvocab.vocab import (
    ConstraintSpec,
    MatchSpec,
    PermissionSpec,
    Vocabulary,
)

from conftest import fixture_text
from oracles import graphs_isomorphic, html_forbids, old_load_vocabulary

IC_EDU_KEY = "http://rightsstatements.org/rs/ic-edu/1.0/"


def test_ic_edu_record_fields(ic_edu_graph):
    vocab, report = load_vocabulary(ic_edu_graph)
    assert report.accepted
    record = vocab.statements[IC_EDU_KEY]
    assert record.uri.name == "ic-edu"
    assert record.uri.version == "1.0"
    assert record.pref_labels["en"] == "In Copyright - Educational Use Only"
    assert record.matches == (
        MatchSpec("relatedMatch",
                  Iri("http://id.loc.gov/vocabulary/preservation/copying/cpr")),
    )
    assert record.permissions == (
        PermissionSpec(
            Iri("http://www.w3c.org/ns/odrl/2/use"),
            (ConstraintSpec(
                Iri("http://www.w3c.org/ns/odrl/2/eq"),
                Iri("http://rightsstatements.org/purpose/education"),
            ),),
        ),
    )


def test_empty_graph_gives_empty_vocabulary():
    vocab, report = load_vocabulary(Graph())
    assert vocab.statements == {}
    assert report.accepted
    assert any(rule == "R0" for rule, _, _ in report.warnings)


def test_stripped_language_tag_is_r2_error(ic_edu_text):
    mutated = ic_edu_text.replace(
        '"In Copyright - Educational Use Only"@en',
        '"In Copyright - Educational Use Only"',
    )
    _, report = load_vocabulary(parse_turtle(mutated))
    assert not report.accepted
    assert any(rule == "R2" and subj == "ic-edu" for rule, subj, _ in report.errors)


def test_identifier_mismatch_is_r4(ic_edu_text):
    mutated = ic_edu_text.replace('dc:identifier "ic-edu"', 'dc:identifier "other"')
    _, report = load_vocabulary(parse_turtle(mutated))
    assert any(rule == "R4" for rule, _, _ in report.errors)


def test_version_mismatch_is_r5():
    text = fixture_text("vocabulary.ttl").replace(
        '<http://rightsstatements.org/rs/ic/1.0/> a dcterms:RightsStatement ;\n'
        '    skos:prefLabel "In Copyright"@en',
        '<http://rightsstatements.org/rs/ic/3.0/> a dcterms:RightsStatement ;\n'
        '    skos:prefLabel "In Copyright"@en',
    )
    _, report = load_vocabulary(parse_turtle(text))
    assert any(rule == "R5" and subj == "ic" for rule, subj, _ in report.errors)


def test_bad_modified_date_is_r6(ic_edu_text):
    mutated = ic_edu_text.replace('"2014-12-18"', '"not a date"')
    _, report = load_vocabulary(parse_turtle(mutated))
    assert any(rule == "R6" for rule, _, _ in report.errors)


def test_local_match_target_is_r7(ic_edu_text):
    mutated = ic_edu_text.replace(
        "skos:relatedMatch premiscopy:cpr",
        "skos:relatedMatch <http://rightsstatements.org/rs/ic/1.0/>",
    )
    _, report = load_vocabulary(parse_turtle(mutated))
    assert any(rule == "R7" for rule, _, _ in report.errors)


@pytest.mark.parametrize("extra, rule", [
    ('skos:prefLabel "Second label"@en', "R2"),
    ('skos:scopeNote "One"@en ; skos:scopeNote "Two"@en', "R2"),
    ('skos:definition "Second definition"@en', "R3"),
    ('dc:identifier "other"', "R4"),
    ('dcterms:hasVersion "9.9"', "R5"),
    ('dcterms:modified "2020-01-01"', "R6"),
    ('dcterms:coverage "US" ; dcterms:coverage "DE"', "R10"),
])
def test_second_value_is_an_error(ic_edu_text, extra, rule):
    # a second value would otherwise silently replace or shadow the first
    mutated = ic_edu_text.replace(
        "a dcterms:RightsStatement ;", f"a dcterms:RightsStatement ; {extra} ;"
    )
    _, report = load_vocabulary(parse_turtle(mutated))
    assert [(r, s) for r, s, _ in report.errors] == [(rule, "ic-edu")]


def test_broken_permission_is_r8(ic_edu_text):
    mutated = ic_edu_text.replace("odrl:action odrl:use ;\n", "")
    _, report = load_vocabulary(parse_turtle(mutated))
    assert any(rule == "R8" for rule, _, _ in report.errors)


def test_cc_license_typing_is_warning_not_error(ic_edu_graph):
    subject = Iri("http://rightsstatements.org/rs/ic-edu")
    extra = Graph(list(ic_edu_graph) + [
        Triple(subject, Iri(RDF_TYPE), Iri(CC + "License"))
    ])
    _, report = load_vocabulary(extra)
    assert report.accepted
    assert any(rule == "R1" for rule, _, _ in report.warnings)


def test_jurisdiction_comes_from_data_not_uri(vocabulary):
    record = vocabulary.statements["http://rightsstatements.org/rs/pd/1.0/US/"]
    assert record.jurisdiction == "US"
    # removing the data-level assertion must fail even though the URI says US
    text = fixture_text("vocabulary.ttl").replace('dcterms:coverage "US" ;\n', "")
    _, report = load_vocabulary(parse_turtle(text))
    assert any(rule == "R10" for rule, _, _ in report.errors)


def test_coverage_with_a_final_newline_is_not_alpha_2():
    text = fixture_text("vocabulary.ttl").replace('dcterms:coverage "US"', 'dcterms:coverage "US\\n"')
    _, report = load_vocabulary(parse_turtle(text))
    assert ("R10", "pd", "dcterms:coverage 'US\\n' is not alpha-2") in report.errors


def test_malformed_statement_uri_is_r1_not_a_dropped_statement():
    text = fixture_text("vocabulary.ttl").replace("rs/ic-edu/1.0/", "rs/IC-edu/1.0/")
    vocab, report = load_vocabulary(parse_turtle(text))
    assert report.errors == [("R1", "http://rightsstatements.org/rs/IC-edu/1.0/",
                              "not a statement URI: bad name: 'IC-edu'")]
    assert len(vocab.statements) == 4


# one of each literal and IRI a page carries, in the fixture, and the same
# with "{}" where a code point goes: the scheme's title, a label, a
# definition, a scope note, the creator, a match target and each permission IRI
_PAGE_LITERALS = [
    ('"Rechtenverklaringen"@nl', '"Rechten{}verklaringen"@nl', "scheme"),
    ('"In Copyright"@en', '"In{}Copyright"@en', "ic"),
    ('"This digital object is free of known copyright restrictions."@en', '"x{}"@en', "pd"),
    ('"Applies to educational uses only."@en', '"{}"@en', "ic-edu"),
    ('dc:creator "Digital', 'dc:creator "{}Digital', "ic"),
]
_PAGE_IRIS = [
    ("<http://creativecommons.org/publicdomain/mark/1.0/>", "<http://example.org/{}>", "pd"),
    ("odrl:action odrl:use", "odrl:action <http://example.org/{}>", "ic-edu"),
    ("odrl:operator odrl:eq", "odrl:operator <http://example.org/{}>", "ic-edu"),
    ("<http://rightsstatements.org/purpose/education>", "<http://example.org/{}>", "ic-edu"),
]


@pytest.mark.parametrize("old, new, subject, char", [
    # the reader refuses an IRI holding U+0000-U+0020
    (*term, char) for term in _PAGE_LITERALS + _PAGE_IRIS
    for char in ["\x01", "\x7f", "\x9f", "\ufdd0", "\U0010ffff"][term in _PAGE_IRIS:]])
def test_a_code_point_html_forbids_on_a_page_is_r11(old, new, subject, char):
    text = fixture_text("vocabulary.ttl")
    assert old in text
    _, report = load_vocabulary(parse_turtle(text.replace(old, new.format(char), 1)))
    assert [(rule, s) for rule, s, _ in report.errors] == [("R11", subject)]
    assert f"holds U+{ord(char):04X}, which HTML forbids" in report.errors[0][2]


@given(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(
    ["\x00", "\x08", "\x0b", "\x0e", "\x7f", "\x80", "\x9f", "\ufdef", "\ufffe", "\U0001ffff",
     "\t", "\x0c", "\xa0", "\ufdcf", "\ufffd", "\U0010fffd"])), min_size=1, max_size=3))
def test_no_page_of_an_accepted_vocabulary_holds_a_code_point_html_forbids(inserts):
    text = fixture_text("vocabulary.ttl")
    inside = [i for m in re.finditer(r'"[^"\n]*"|<[^>\n]*>', text) for i in range(m.start() + 1, m.end())]
    for i, char in sorted(((inside[k % len(inside)], char) for k, char in inserts), reverse=True):
        text = text[:i] + char + text[i:]
    try:
        vocab, report = load_vocabulary(parse_turtle(text))
    except TurtleSyntaxError:
        return
    if report.accepted:
        for path, entry in generate_site(vocab).entries.items():
            assert not any(map(html_forbids, entry.content.decode())), path


def test_duplicate_canonical_uri_is_r9(vocabulary_graph):
    # the version-less fixture subject collides with the explicit /1.0/ record
    combined = vocabulary_graph.union(
        parse_turtle(fixture_text("ic_edu_statement.ttl"))
    )
    _, report = load_vocabulary(combined)
    assert any(rule == "R9" for rule, _, _ in report.errors)


def test_load_serialize_fixed_point(vocabulary):
    from rightsvocab import serialize_turtle

    reloaded, report = load_vocabulary(
        parse_turtle(serialize_turtle(vocabulary_to_graph(vocabulary)))
    )
    assert report.accepted
    assert reloaded.statements == vocabulary.statements
    assert reloaded.title == vocabulary.title


def test_scheme_choice_among_several_concept_schemes():
    # the greatest IRI ConceptScheme is the scheme; the tagged titles of every
    # ConceptScheme merge in subject order (IRIs, then blank nodes), so a later
    # one overrides a language an earlier one gave
    g = parse_turtle(
        "@prefix skos: <http://www.w3.org/2004/02/skos/core#> .\n"
        "@prefix dcterms: <http://purl.org/dc/terms/> .\n"
        '<http://e.org/b> a skos:ConceptScheme ; dcterms:title "B"@en, "B fr"@fr, "untagged" .\n'
        '<http://e.org/a> a skos:ConceptScheme ; dcterms:title "A"@en, "A nl"@nl .\n'
        '_:s a skos:ConceptScheme ; dcterms:title "Blank"@en, "Blank de"@de .\n'
        '<http://e.org/c> dcterms:title "not a scheme"@en .\n'
    )
    vocab, report = load_vocabulary(g)
    assert (vocab, report) == old_load_vocabulary(g)
    assert vocab.scheme_uri == Iri("http://e.org/b")
    assert list(vocab.title.items()) == [
        ("en", "Blank"), ("nl", "A nl"), ("fr", "B fr"), ("de", "Blank de"),
    ]


def test_lookup_statement(vocabulary):
    assert lookup_statement(vocabulary, "http://rightsstatements.org/rs/ic-edu/1.0") \
        is vocabulary.statements[IC_EDU_KEY]
    assert lookup_statement(vocabulary, "http://rightsstatements.org/rs/nope/1.0/") is None
    assert lookup_statement(vocabulary, "http://elsewhere.org/rs/ic/1.0/") is None


def test_lookup_strips_validity(vocabulary):
    with_validity = "http://rightsstatements.org/rs/pd/1.0/US/from/2025-05-02/"
    plain = "http://rightsstatements.org/rs/pd/1.0/US/"
    assert lookup_statement(vocabulary, with_validity) \
        is lookup_statement(vocabulary, plain)


def _mutate(vocabulary, key, **changes) -> Vocabulary:
    statements = dict(vocabulary.statements)
    statements[key] = dataclasses.replace(statements[key], **changes)
    return Vocabulary(vocabulary.scheme_uri, vocabulary.title, statements)


def test_diff_identical_is_empty(vocabulary):
    report = diff_versions(vocabulary, vocabulary)
    assert report.passed and not report.infos


def test_definition_edit_without_bump_is_violation(vocabulary):
    edited = _mutate(
        vocabulary, IC_EDU_KEY,
        definitions={**vocabulary.statements[IC_EDU_KEY].definitions,
                     "en": "New definition."},
    )
    report = diff_versions(vocabulary, edited)
    assert len(report.violations) == 1
    name, prop, old, new = report.violations[0]
    assert name == "ic-edu" and prop == "skos:definition@en"


def test_editorial_flag_downgrades_to_info(vocabulary):
    edited = _mutate(
        vocabulary, IC_EDU_KEY,
        definitions={**vocabulary.statements[IC_EDU_KEY].definitions,
                     "en": "New definition."},
    )
    report = diff_versions(vocabulary, edited, allow_editorial=True)
    assert report.passed
    assert any("editorial" in i for i in report.infos)


def test_machine_readable_change_is_info(vocabulary):
    record = vocabulary.statements[IC_EDU_KEY]
    extra_match = record.matches + (
        MatchSpec("relatedMatch", Iri("http://example.org/other-scheme/x")),
    )
    edited = _mutate(vocabulary, IC_EDU_KEY, matches=extra_match)
    report = diff_versions(vocabulary, edited)
    assert report.passed
    assert len(report.infos) == 1


def test_version_bump_is_skipped(vocabulary):
    from rightsvocab import StatementUri

    record = vocabulary.statements[IC_EDU_KEY]
    statements = dict(vocabulary.statements)
    del statements[IC_EDU_KEY]
    statements["http://rightsstatements.org/rs/ic-edu/2.0/"] = dataclasses.replace(
        record,
        uri=StatementUri("ic-edu", "2.0"),
        definitions={**record.definitions, "en": "Rewritten definition."},
    )
    bumped = Vocabulary(vocabulary.scheme_uri, vocabulary.title, statements)
    report = diff_versions(vocabulary, bumped)
    assert report.passed


def test_object_checks_on_paper_examples(vocabulary):
    expectations = {
        "objects_europeana.ttl": {"RESOLVED": 1, "FREE_TEXT": 1},
        "objects_dpla.ttl": {"RESOLVED": 1, "FREE_TEXT": 1},
        "objects_ucsd.ttl": {"RESOLVED": 1},
    }
    for name, expect in expectations.items():
        report = check_object_references(parse_turtle(fixture_text(name)), vocabulary)
        counts = {k: v for k, v in report.counts().items() if v}
        assert counts == expect, name
        assert report.passed


def test_unknown_and_malformed_and_external(vocabulary):
    g = parse_turtle(
        "@prefix edm: <http://www.europeana.eu/schemas/edm/> .\n"
        "<http://x.org/1> edm:rights <http://rightsstatements.org/rs/ghost/1.0/> .\n"
        "<http://x.org/2> edm:rights <http://rightsstatements.org/rs/BAD/> .\n"
        "<http://x.org/3> edm:rights <http://creativecommons.org/licenses/by/4.0/> .\n"
    )
    report = check_object_references(g, vocabulary)
    counts = report.counts()
    assert counts["UNKNOWN"] == 1
    assert counts["MALFORMED"] == 1
    assert counts["EXTERNAL"] == 1
    assert not report.passed


def test_classification_is_a_partition(vocabulary):
    for name in ("objects_europeana.ttl", "objects_dpla.ttl", "objects_ucsd.ttl"):
        report = check_object_references(parse_turtle(fixture_text(name)), vocabulary)
        assert sum(report.counts().values()) == len(report.entries)


def test_empty_objects_graph(vocabulary):
    assert check_object_references(Graph(), vocabulary).entries == []
