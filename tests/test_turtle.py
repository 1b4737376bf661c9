import pytest

from rightsvocab import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    TurtleSyntaxError,
    graphs_isomorphic,
    parse_turtle,
    serialize_turtle,
)
from rightsvocab.namespaces import DCTERMS, RDF_TYPE, SKOS

EX = "http://example.org/"


def test_empty_document():
    assert len(parse_turtle("")) == 0


def test_comments_and_whitespace_only():
    assert len(parse_turtle("# nothing here\n\n   \t\n")) == 0


def test_ic_edu_fixture_triple_count(ic_edu_graph):
    assert len(ic_edu_graph) == 13


def test_ic_edu_pref_label(ic_edu_graph):
    subject = Iri("http://rightsstatements.org/rs/ic-edu")
    labels = ic_edu_graph.objects(subject, Iri(SKOS + "prefLabel"))
    assert labels == [Literal("In Copyright - Educational Use Only", lang="en")]


def test_ic_edu_blank_node_structure(ic_edu_graph):
    subject = Iri("http://rightsstatements.org/rs/ic-edu")
    perms = ic_edu_graph.objects(
        subject, Iri("http://www.w3c.org/ns/odrl/2/permission")
    )
    assert len(perms) == 1 and isinstance(perms[0], BlankNode)
    actions = ic_edu_graph.objects(
        perms[0], Iri("http://www.w3c.org/ns/odrl/2/action")
    )
    assert actions == [Iri("http://www.w3c.org/ns/odrl/2/use")]


def test_prefixed_names_and_a_keyword():
    g = parse_turtle(
        "@prefix dcterms: <http://purl.org/dc/terms/> .\n"
        "<http://example.org/x> a dcterms:RightsStatement .\n"
    )
    assert Triple(Iri(EX + "x"), Iri(RDF_TYPE), Iri(DCTERMS + "RightsStatement")) in g


def test_object_list_and_predicate_list():
    g = parse_turtle(
        f'<{EX}s> <{EX}p> "a"@en , "b"@nl ; <{EX}q> <{EX}o> .'
    )
    assert len(g) == 3


def test_escapes():
    g = parse_turtle(f'<{EX}s> <{EX}p> "line\\nbreak \\"quoted\\" \\\\ tab\\t" .')
    (t,) = list(g)
    assert t.object == Literal('line\nbreak "quoted" \\ tab\t')


def test_typed_literal():
    g = parse_turtle(
        f'<{EX}s> <{EX}p> "2014-12-18"^^<http://www.w3.org/2001/XMLSchema#date> .'
    )
    (t,) = list(g)
    assert t.object.datatype == Iri("http://www.w3.org/2001/XMLSchema#date")
    assert t.object.lang is None


def test_language_tag_normalization():
    g = parse_turtle(f'<{EX}s> <{EX}p> "x"@EN-gb .')
    (t,) = list(g)
    assert t.object.lang == "en-GB"


def test_duplicate_triples_collapse():
    g = parse_turtle(f"<{EX}s> <{EX}p> <{EX}o> . <{EX}s> <{EX}p> <{EX}o> .")
    assert len(g) == 1


def test_unknown_prefix_is_error():
    with pytest.raises(TurtleSyntaxError, match="unknown prefix"):
        parse_turtle("nope:x a nope:Y .")


def test_unterminated_literal_reports_position():
    with pytest.raises(TurtleSyntaxError, match="line 2"):
        parse_turtle(f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> \"oops .")


def test_error_column_counts_words_labels_and_lang_tags():
    # the ")" is in column 17, after a blank node, a prefixed name and a
    # language tag on the same line
    text = f'@prefix ex: <{EX}> .\n_:b ex:p "x"@en ) .'
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle(text)
    assert (exc.value.line, exc.value.col) == (2, 17)


def test_collections_rejected():
    with pytest.raises(TurtleSyntaxError, match="collections"):
        parse_turtle(f"<{EX}s> <{EX}p> (1 2) .")


def test_numeric_shorthand_rejected():
    with pytest.raises(TurtleSyntaxError, match="numeric"):
        parse_turtle(f"<{EX}s> <{EX}p> 42 .")


def test_multiline_literal_rejected():
    with pytest.raises(TurtleSyntaxError, match="multi-line"):
        parse_turtle(f'<{EX}s> <{EX}p> """long""" .')


def test_serialize_empty_graph_is_prefix_header_only():
    out = serialize_turtle(Graph())
    assert all(line.startswith("@prefix") or not line for line in out.splitlines())
    assert len(parse_turtle(out)) == 0


def test_round_trip_ic_edu(ic_edu_graph):
    assert graphs_isomorphic(ic_edu_graph, parse_turtle(serialize_turtle(ic_edu_graph)))


def test_round_trip_vocabulary(vocabulary_graph):
    out = serialize_turtle(vocabulary_graph)
    assert graphs_isomorphic(vocabulary_graph, parse_turtle(out))


def test_serialization_deterministic(ic_edu_graph):
    # same triple set built in different iteration orders
    a = Graph(sorted(ic_edu_graph, key=repr))
    b = Graph(reversed(sorted(ic_edu_graph, key=repr)))
    assert serialize_turtle(a) == serialize_turtle(b)


def test_serialize_labels_shared_blank_nodes():
    shared = BlankNode("shared")
    g = Graph([
        Triple(Iri(EX + "a"), Iri(EX + "p"), shared),
        Triple(Iri(EX + "b"), Iri(EX + "p"), shared),
        Triple(shared, Iri(EX + "q"), Literal("v")),
    ])
    out = serialize_turtle(g)
    assert "_:" in out
    assert graphs_isomorphic(g, parse_turtle(out))


def test_output_has_lf_line_endings(ic_edu_graph):
    out = serialize_turtle(ic_edu_graph)
    assert "\r" not in out and out.endswith("\n")
