import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rightsvocab import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    TurtleSyntaxError,
    parse_turtle,
    serialize_turtle,
)
from rightsvocab.namespaces import DCTERMS, RDF_TYPE, SKOS
from rightsvocab.turtle import _TOKEN, MAX_NESTING, _escape

from conftest import mutated_fixture
from oracles import OLD_TOKEN, graphs_isomorphic, old_token_outcome, token_outcome

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


# a prefixed name's local part never ends in "." (W3C Turtle PN_LOCAL), so a
# "." right after it closes the statement; an inner "." stays in the name
@pytest.mark.parametrize("text,triple", [
    ("@prefix ex: <http://e.org/>.\nex:s a ex:C.", ("s", "C")),
    ("@prefix ex: <http://e.org/> .\nex:s a ex:a.b .", ("s", "a.b")),
    ("@prefix ex: <http://e.org/> .\nex:s a ex:a.b.", ("s", "a.b")),
    ("@prefix ex: <http://e.org/> .\nex:s a ex:.", ("s", "")),
])
def test_prefixed_name_before_the_closing_dot(text, triple):
    s, o = triple
    assert parse_turtle(text) == Graph([
        Triple(Iri("http://e.org/" + s), Iri(RDF_TYPE), Iri("http://e.org/" + o)),
    ])


def test_redeclared_prefix_resolves_to_its_new_namespace():
    # the reader resolves each prefixed name once per parse, until an @prefix
    g = parse_turtle(
        '@prefix e: <http://a.org/> . e:x e:p "1" . '
        '@prefix e: <http://b.org/> . e:x e:p "2" .'
    )
    assert g == Graph([
        Triple(Iri("http://a.org/x"), Iri("http://a.org/p"), Literal("1")),
        Triple(Iri("http://b.org/x"), Iri("http://b.org/p"), Literal("2")),
    ])


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


@pytest.mark.parametrize("text,message,line,col", [
    ('<s> <p> <o .', "unterminated IRI", 1, 9),
    ('\n  <s> <p> "o .', "unterminated string literal", 2, 11),
    ('<s> <p> "a\\qb" .', "unsupported escape: \\q", 1, 9),
    ('<s> <p> "" , """o""" .', "multi-line literals are not supported", 1, 14),
    ("<s> <p> @ .", "bad @ token", 1, 9),
    ("@base <http://example.org/> .", "@base is not supported", 1, 1),
    ("_: <p> <o> .", "bad blank node label", 1, 1),
    ("<s> <p> 4.2 .", "numeric shorthand literals are not supported", 1, 9),
    ("<s> <p> false .", "boolean shorthand literals are not supported", 1, 9),
    ("<s> <p> bare .", "unexpected token 'bare'", 1, 9),
    ("<s> <p> ^o .", "unexpected character '^'", 1, 9),
    ("# c\n\t<s> <p> {", "unexpected character '{'", 2, 10),
])
def test_rejected_token_forms_keep_message_and_position(text, message, line, col):
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == \
        (f"line {line}, col {col}: {message}", line, col)


_S, _P, _O = "<http://e.org/s>", "<http://e.org/p>", "<http://e.org/o>"


# one input per ``raise`` of the parser; input that ends too early names the
# position where its last token starts
@pytest.mark.parametrize("text,message,line,col", [
    (f"{_S} {_P}", "unexpected end of input", 1, 18),
    (f"{_S} {_P} {_O} ;", "unexpected end of input", 1, 52),
    (f'{_S} {_P} "x"^^', "unexpected end of input", 1, 38),
    (f"[ {_P} {_O} ]", "unexpected end of input", 1, 37),
    (f"{_S} {_P} [ ] ] .", "expected ., got ] ']'", 1, 39),
    (f"[ {_P} {_O} ] ] .", "expected ., got ] ']'", 1, 39),
    ("@prefix e: e:x .", "expected iri, got pname 'e:x'", 1, 12),
    ("@prefix <http://e.org/> .", "expected pname, got iri 'http://e.org/'", 1, 9),
    (f'"s" {_P} {_O} .', "expected subject, got 's'", 1, 1),
    (f"{_S} _:b {_O} .", "expected predicate, got 'b'", 1, 18),
    (f"{_S} [ {_P} {_O} ] {_O} .", "expected predicate, got '['", 1, 18),
    (f"{_S} .", "expected predicate, got '.'", 1, 18),
    ("@prefix e: <http://e.org/> .\ne:x .", "expected predicate, got '.'", 2, 5),
    ("_:b .", "expected predicate, got '.'", 1, 5),
    ("[] .", "expected predicate, got '.'", 1, 4),
    (f"{_S} {_P} .", "expected object, got '.'", 1, 35),
    (f"{_S} {_P} a .", "expected object, got 'a'", 1, 35),
    (f'{_S} {_P} "x"^^"y" .', "expected datatype IRI", 1, 40),
    ("@prefix e:x <http://e.org/> .", "expected prefix declaration", 1, 9),
    (f"{_S} {_P} e:.x .", "bad prefixed name 'e:.x'", 1, 35),
    ("nope:x a nope:Y .", "unknown prefix 'nope'", 1, 1),
    (f"{_S} " + f"{_P} [ " * (MAX_NESTING + 1),
     f"blank node property lists nest deeper than {MAX_NESTING}",
     1, len(f"{_S} ") + len(f"{_P} [ ") * (MAX_NESTING + 1) - 1),
])
def test_parser_errors_keep_message_and_position(text, message, line, col):
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == \
        (f"line {line}, col {col}: {message}", line, col)


# a subject needs a predicate-object list, except a non-empty ``[ p o ]``
@pytest.mark.parametrize("text,size", [
    (f"[ {_P} {_O} ] .", 1),
    (f"[ {_P} {_O} ] {_P} {_S} .", 2),
    (f"[] {_P} {_O} .", 1),
    (f"{_S} {_P} [] .", 1),
])
def test_blank_node_subjects_that_parse(text, size):
    assert len(parse_turtle(text)) == size


@pytest.mark.parametrize("text,line,col", [
    (f'<{EX}s> <{EX}p> "x"@zh-Hant .', 1, 50),
    ("<foo> a <http://example.org/C> .", 1, 1),
    (f"<{EX}s>\n  <{EX}p> <a b> .", 2, 26),
    (f"<{EX}s> <{EX}p> <> .", 1, 47),
    ('@prefix e: <urn:x> .\n@prefix n: <> .\ne:s e:p n:o .', 3, 9),
    (f'<{EX}s> <{EX}p> "1"^^<int> .', 1, 52),
])
def test_terms_the_model_rejects_are_syntax_errors(text, line, col):
    with pytest.raises(TurtleSyntaxError) as exc:
        parse_turtle(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def _nested(depth: int) -> str:
    return f"<{EX}s> " + f"<{EX}p> [ " * depth + "]" * depth + " ."


def test_nesting_up_to_the_bound_parses():
    assert len(parse_turtle(_nested(MAX_NESTING))) == MAX_NESTING


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400])
def test_nesting_past_the_bound_is_a_syntax_error(depth):
    with pytest.raises(TurtleSyntaxError, match="nest deeper") as exc:
        parse_turtle(_nested(depth))
    offending = len(f"<{EX}s> ") + len(f"<{EX}p> [ ") * (MAX_NESTING + 1) - 1
    assert (exc.value.line, exc.value.col) == (1, offending)


def test_chain_at_the_bound_round_trips():
    nodes = [BlankNode(f"n{k}") for k in range(MAX_NESTING)]
    g = Graph(
        [Triple(Iri(EX + "s"), Iri(EX + "p"), nodes[0])]
        + [Triple(a, Iri(EX + "p"), b) for a, b in zip(nodes, nodes[1:])]
        + [Triple(n, Iri(EX + "v"), Literal(str(k))) for k, n in enumerate(nodes)]
    )
    out = serialize_turtle(g)
    assert out.count("[") == MAX_NESTING
    again = parse_turtle(out)
    assert len(again) == len(g) and serialize_turtle(again) == out


def _chain_length(g: Graph) -> int:
    """Links from the one node no triple points to, along single links."""
    objects = {t.object for t in g}
    (node,) = [s for s in g.subjects() if s not in objects]
    length = 0
    while nxt := g.objects(node, Iri(EX + "p")):
        (node,) = nxt
        length += 1
    return length


@pytest.mark.parametrize("links", [150, 600])
def test_chain_past_the_bound_is_written_with_labels(links):
    text = "".join(f"_:a{k} <{EX}p> _:a{k + 1} .\n" for k in range(links))
    out = serialize_turtle(parse_turtle(text))
    again = parse_turtle(out)
    assert len(again) == links and _chain_length(again) == links


def test_rdf_type_is_written_as_a_in_predicate_position_only():
    t = Iri(RDF_TYPE)
    g = Graph([Triple(t, t, t)])
    assert serialize_turtle(g).endswith("\nrdf:type\n    a rdf:type .\n")
    assert parse_turtle(serialize_turtle(g)) == g


def test_cycle_through_a_shared_node_is_inlined():
    shared, inner = BlankNode("shared"), BlankNode("inner")
    g = Graph([
        Triple(Iri(EX + "a"), Iri(EX + "p"), shared),
        Triple(shared, Iri(EX + "p"), inner),
        Triple(inner, Iri(EX + "p"), shared),
    ])
    out = serialize_turtle(g)
    assert out.count("[") == 1 and out.count("_:b0") == 3
    assert graphs_isomorphic(g, parse_turtle(out))


@given(st.text())
def test_parse_is_total_over_text(text):
    try:
        assert isinstance(parse_turtle(text), Graph)
    except TurtleSyntaxError:
        pass


# weighted towards the characters that open, escape and close a string
# literal or start another token; two in three texts start inside a literal
_TOKEN_TEXT = st.builds(
    str.__add__,
    st.sampled_from(["", '"', '<s> <p> "']),
    st.text(st.one_of(
        st.sampled_from('"\\\n'), st.sampled_from('"\\\nntrq<>@# .'), st.characters(),
    )),
)
_MEGABYTE_LITERAL = '<s> <p> "' + '\\"xxxxxxxx' * 100_000 + '" .'


@settings(deadline=None, max_examples=500)
@given(_TOKEN_TEXT)
@example('<s> <p> "say \\"hi\\"" .')
@example('"a\\\nb" .')
@example('<s> <p> "cut\\')
@example(_MEGABYTE_LITERAL)
def test_tokenize_equals_the_old_token_pattern(text):
    assert token_outcome(text) == old_token_outcome(text)


def test_megabyte_literal_tokenizes():
    (string,) = [t for t in token_outcome(_MEGABYTE_LITERAL) if t[0] == "string"]
    assert string == ("string", '"xxxxxxxx' * 100_000, 1, 9)


# every ASCII character and a few others, each at the start of a line
_EVERY_START = "\n".join(map(chr, range(128))) + "\né\n😀\n\u2028\n\x85"


@given(_TOKEN_TEXT | st.text())
@example(_EVERY_START)
def test_token_matches_cover_the_text(text):
    # ``_tokenize`` walks ``finditer``, which would skip a character that
    # starts no token kind: the matches must run on from each other to the end
    for pattern in (_TOKEN, OLD_TOKEN):
        end = 0
        for m in pattern.finditer(text):
            assert m.start() == end < m.end(), (pattern is OLD_TOKEN, m)
            end = m.end()
        assert end == len(text)


# the table the writer escaped string literals with before ``_escape``
_TRANSLATE_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
)


@given(st.text())
@example('\\"\\n\n\t\r\\\\')
def test_escape_equals_the_translate_table_and_round_trips(s):
    assert _escape(s) == s.translate(_TRANSLATE_ESCAPES)
    g = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), Literal(s))])
    assert parse_turtle(serialize_turtle(g)) == g


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(mutated_fixture())
def test_parse_is_total_over_mutated_fixture(text):
    try:
        assert isinstance(parse_turtle(text), Graph)
    except TurtleSyntaxError:
        pass


_IRIS = [Iri(EX + c) for c in "abc"] + [Iri(SKOS + "prefLabel"), Iri(RDF_TYPE)]
_LABELLED = [BlankNode(f"l{k}") for k in range(4)]
_MAX_TREE_NODES = 100


@st.composite
def graphs(draw) -> Graph:
    """Random graphs of shared labelled blank nodes, which may form cycles,
    and nested blank-node trees, with literals that need every escape."""
    literals = st.builds(
        Literal,
        st.text(alphabet='ab\\"\n\t\ré ', max_size=6),
        lang=st.sampled_from([None, "en", "pt-BR"]),
    ) | st.builds(Literal, st.text(max_size=3), datatype=st.sampled_from(_IRIS))
    leaves = st.sampled_from(_IRIS + _LABELLED) | literals
    predicates = st.sampled_from(_IRIS)
    triples, made = [], []

    def node_or_leaf():
        # three in four objects open a nested tree while blank nodes last
        if len(made) == _MAX_TREE_NODES or not draw(st.integers(0, 3)):
            return draw(leaves)
        node = BlankNode(f"t{len(made)}")
        made.append(node)
        for _ in range(draw(st.integers(0, 2))):
            triples.append(Triple(node, draw(predicates), node_or_leaf()))
        return node

    for _ in range(draw(st.integers(0, 6))):
        subject = draw(st.sampled_from(_IRIS + _LABELLED))
        triples.append(Triple(subject, draw(predicates), node_or_leaf()))
    return Graph(triples)


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(graphs())
def test_serialize_parse_round_trip(g):
    assert graphs_isomorphic(g, parse_turtle(serialize_turtle(g)))
