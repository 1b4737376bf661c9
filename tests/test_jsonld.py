import json

from rightsvocab import Graph, serialize_jsonld
from rightsvocab.namespaces import SKOS

from conftest import jsonld_walk
from oracles import graphs_isomorphic


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
