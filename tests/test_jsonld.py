import json

from hypothesis import example, given
from hypothesis import strategies as st

from rightsvocab import BlankNode, Graph, Iri, Literal, Triple, serialize_jsonld
from rightsvocab.jsonld import jsonld_document
from rightsvocab.namespaces import NAMESPACE_TABLE, RDF_TYPE, SKOS

from conftest import jsonld_walk
from oracles import graphs_isomorphic
from oracles import jsonld_document as json_dumps_document


def test_empty_graph_has_context_only():
    doc = json.loads(serialize_jsonld(Graph()))
    assert "@context" in doc
    assert doc.get("@graph") == []


def test_context_holds_namespace_table():
    doc = json.loads(serialize_jsonld(Graph()))
    assert doc["@context"]["skos"] == SKOS


def test_ic_edu_node_has_english_pref_label(ic_edu_graph):
    doc = json.loads(serialize_jsonld(ic_edu_graph))
    node = next(
        n for n in doc["@graph"]
        if n["@id"] == "http://rightsstatements.org/rs/ic-edu"
    )
    assert {"@value": "In Copyright - Educational Use Only", "@language": "en"} \
        in node["skos:prefLabel"]


def test_walk_oracle_round_trip(ic_edu_graph, vocabulary_graph):
    for g in (ic_edu_graph, vocabulary_graph):
        rebuilt = jsonld_walk(serialize_jsonld(g))
        assert graphs_isomorphic(g, rebuilt)


def test_output_is_deterministic(vocabulary_graph):
    a = Graph(sorted(vocabulary_graph, key=repr))
    b = Graph(reversed(sorted(vocabulary_graph, key=repr)))
    assert serialize_jsonld(a) == serialize_jsonld(b)


def test_output_is_valid_json(vocabulary_graph):
    json.loads(serialize_jsonld(vocabulary_graph))


# "!" (sorts before the closing quote), DEL, non-ASCII and non-BMP text and
# a lone surrogate; IRIs take no whitespace, control character, quote or
# backslash, so those go to literals only
_IRI_CHARS = 'a!#/\x7fé€😀\ud800'
_iris = st.builds(
    Iri,
    st.builds(str.__add__, st.sampled_from([*NAMESPACE_TABLE.values(), "http://a/", "urn:x:"]),
              st.text(alphabet=_IRI_CHARS, max_size=4)),
)
_texts = st.text(alphabet=st.sampled_from(_IRI_CHARS + '"\\\x01\n\t\u2028 ')
                 | st.characters(exclude_categories=()), max_size=4)
_blank_nodes = st.builds(BlankNode, st.sampled_from("xy"))
_literals = st.one_of(
    st.builds(Literal, _texts),
    st.builds(Literal, _texts, lang=st.sampled_from(["en", "nl", "pt-BR"])),
    st.builds(Literal, _texts, datatype=_iris),
)
_triples = st.builds(
    Triple,
    st.just(Iri("http://a/s")) | _blank_nodes,
    # few predicates, so that values share a list and get sorted
    st.sampled_from([Iri(RDF_TYPE), Iri(SKOS + "prefLabel"), Iri("http://a/p")]) | _iris,
    _literals | _iris | _blank_nodes,
)


@given(st.lists(_triples, max_size=16))
@example([])
@example([Triple(Iri("http://a/s"), Iri(RDF_TYPE), Iri("http://a/" + local))
          for local in ["x", "x!y", "é", "😀", "\ud800"]])
@example([Triple(Iri("http://a/s"), Iri("http://a/p"), o)  # "\\u00e9" sorts before "a"
          for o in [Literal("a"), Literal("é"), Iri("http://a/x"), Iri("http://a/x!y")]])
def test_writer_equals_json_dumps_of_the_same_document(triples):
    triples = list(Graph(triples))
    assert jsonld_document(triples) == json_dumps_document(triples)
