import pytest

from rightsvocab import (
    Iri,
    Literal,
    Triple,
    render_statement_html,
)
from rightsvocab.namespaces import RDF_TYPE, SKOS
from rightsvocab.site import record_to_graph
from oracles import RdfaError, extract_rdfa, graphs_isomorphic, restrict_to_language

EX = "http://example.org/"

PAGE = """<!DOCTYPE html>
<html lang="en" prefix="skos: http://www.w3.org/2004/02/skos/core#">
<body>
<div about="http://example.org/s">
<span property="skos:prefLabel">In Copyright</span>
</div>
</body>
</html>
"""


def test_pref_label_span_with_lang():
    g = extract_rdfa(PAGE)
    assert set(g) == {
        Triple(Iri(EX + "s"), Iri(SKOS + "prefLabel"), Literal("In Copyright", lang="en"))
    }


def test_no_rdfa_attributes_yields_empty_graph():
    assert len(extract_rdfa("<html><body><p>hello</p></body></html>")) == 0


def test_lang_reset_suppresses_tag():
    html = PAGE.replace('property="skos:prefLabel"', 'property="skos:prefLabel" lang=""')
    (t,) = list(extract_rdfa(html))
    assert t.object == Literal("In Copyright")


def test_content_attribute_overrides_text():
    html = PAGE.replace(
        'property="skos:prefLabel"', 'property="skos:prefLabel" content="Other"'
    )
    (t,) = list(extract_rdfa(html))
    assert t.object.lexical == "Other"


def test_typeof_emits_rdf_type():
    html = PAGE.replace('about="http://example.org/s"',
                        'about="http://example.org/s" typeof="skos:Concept"')
    g = extract_rdfa(html)
    assert Triple(Iri(EX + "s"), Iri(RDF_TYPE), Iri(SKOS + "Concept")) in g


def test_property_typeof_creates_blank_node():
    html = PAGE.replace(
        '<span property="skos:prefLabel">In Copyright</span>',
        '<div property="skos:related" typeof="">'
        '<span property="skos:notation" lang="">x</span></div>',
    )
    g = extract_rdfa(html)
    assert len(g) == 2
    related = [t for t in g if t.predicate.value == SKOS + "related"]
    nested = [t for t in g if t.predicate.value == SKOS + "notation"]
    assert related[0].object == nested[0].subject


def test_unknown_prefix_raises():
    with pytest.raises(RdfaError, match="unknown prefix"):
        extract_rdfa(PAGE.replace("skos:prefLabel", "dc:title"))


def test_mismatched_markup_raises():
    with pytest.raises(RdfaError):
        extract_rdfa("<html><body><div></span></body></html>")


def test_generated_page_round_trips(vocabulary):
    record = vocabulary.statements["http://rightsstatements.org/rs/ic-edu/1.0/"]
    html = render_statement_html(record, "en")
    expected = restrict_to_language(record_to_graph(record), "en")
    assert graphs_isomorphic(extract_rdfa(html), expected)
