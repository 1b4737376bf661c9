import pytest
from hypothesis import given
from hypothesis import strategies as st

from rightsvocab.model import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    term_sort_key,
    triple_sort_key,
)

# IRIs and blank nodes are drawn from the same few strings, so an `Iri` and a
# `BlankNode` with the same text (equal hashes, unequal terms) often meet.
NAMES = ["http://example.org/a", "http://example.org/b", "urn:x:c"]
subjects = st.one_of(st.builds(Iri, st.sampled_from(NAMES)),
                     st.builds(BlankNode, st.sampled_from(NAMES)))
predicates = st.builds(Iri, st.sampled_from(["http://example.org/p", "http://example.org/q"]))
objects = st.one_of(
    subjects,
    st.builds(Literal, st.sampled_from(["x", "y"]), st.sampled_from([None, "en", "nl"])),
)
triples = st.builds(Triple, subjects, predicates, objects)
triple_lists = st.lists(triples, max_size=12)


@st.composite
def graphs(draw):
    """A graph built in one call, or the union of two such graphs."""
    if draw(st.booleans()):
        return Graph(draw(triple_lists))
    return Graph(draw(triple_lists)).union(Graph(draw(triple_lists)))


@given(graphs(), subjects, predicates)
def test_index_matches_full_scan(g, subject, predicate):
    assert g.subjects() == sorted({t.subject for t in g}, key=term_sort_key)
    assert g.triples_about(subject) == sorted(
        (t for t in g if t.subject == subject), key=triple_sort_key
    )
    assert g.objects(subject, predicate) == sorted(
        (t.object for t in g if t.subject == subject and t.predicate == predicate),
        key=term_sort_key,
    )


@given(triple_lists.flatmap(lambda ts: st.tuples(st.just(ts), st.permutations(ts))))
def test_one_order_whatever_the_input_order(drawn):
    ts, shuffled = drawn
    want = sorted(set(ts), key=triple_sort_key)
    g = Graph(shuffled)
    assert list(g) == want
    assert g.subjects() == list(dict.fromkeys(t.subject for t in want))


def test_absent_subject_has_no_triples():
    g = Graph([Triple(Iri(NAMES[0]), Iri("http://example.org/p"), Literal("x"))])
    assert g.triples_about(BlankNode(NAMES[0])) == []
    assert g.objects(BlankNode(NAMES[0]), Iri("http://example.org/p")) == []


def test_objects_matches_an_equal_predicate_that_is_another_object():
    p = "http://example.org/p"
    s = Iri(NAMES[0])
    g = Graph([
        Triple(s, Iri(p), Literal("y", "en")),
        Triple(s, Iri(p), BlankNode("z")),
        Triple(s, Iri(p), Iri(NAMES[1])),
        Triple(s, Iri(p), Literal("x")),
        Triple(s, Iri("http://example.org/q"), Literal("w")),
    ])
    query = Iri("".join(["http://example.org/", "p"]))
    assert all(t.predicate is not query and t.predicate.value is not query.value for t in g)
    assert g.objects(s, query) == [
        Iri(NAMES[1]), Literal("x"), Literal("y", "en"), BlankNode("z"),
    ]


def test_lookups_return_fresh_containers():
    t = Triple(Iri(NAMES[0]), Iri("http://example.org/p"), Literal("x"))
    g = Graph([t])
    g.subjects().clear()
    g.triples_about(t.subject).clear()
    g.objects(t.subject, t.predicate).clear()
    assert g.subjects() == [t.subject]
    assert g.triples_about(t.subject) == [t]
    assert g.objects(t.subject, t.predicate) == [t.object]


def test_graph_rejects_non_triples():
    t = Triple(Iri(NAMES[0]), Iri("http://example.org/p"), Literal("x"))
    with pytest.raises(TypeError):
        Graph([t, (t.subject, t.predicate, t.object)])


def test_graph_rejects_attribute_assignment():
    g = Graph()
    with pytest.raises(AttributeError):
        g._triples = frozenset()
    with pytest.raises(AttributeError):
        g._by_subject = {}
    with pytest.raises(AttributeError):
        g.extra = 1


@pytest.mark.parametrize("tag", ["en\n", "pt-BR\n", "EN\n"])
def test_language_tag_with_a_final_newline_is_refused(tag):
    # "$" matches before a final newline; the tag must match as a whole
    with pytest.raises(ValueError, match="malformed language tag"):
        Literal("x", lang=tag)


def test_iri_refuses_what_turtle_forbids_in_an_iri():
    # IRIREF (W3C RDF 1.1 Turtle, 2014, §6.5) takes no U+0000-U+0020 and none of these
    for c in ['"', "{", "}", "|", "^", "`", "\\", *map(chr, range(0x21))]:
        with pytest.raises(ValueError, match="a character Turtle forbids"):
            Iri(f"http://example.org/a{c}b")


def test_iri_takes_the_other_characters_turtle_reads():
    for c in "!#$%&'()*+,-./:;=?@[]~\x7fé😀":
        assert Iri(f"http://example.org/a{c}b").value == f"http://example.org/a{c}b"
