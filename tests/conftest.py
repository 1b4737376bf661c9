import json
import re
from pathlib import Path

import pytest
from hypothesis import strategies as st

from rightsvocab import Graph, Iri, Literal, Triple, load_vocabulary, parse_turtle
from rightsvocab.model import BlankNode
from rightsvocab.namespaces import RDF_TYPE
from rightsvocab.site import generate_site

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# Pieces that hostile or broken input is made of: terms the model rejects,
# every rejected token form and a blank-node nesting past the bound.
HOSTILE_PIECES = [
    "<foo>", "<a b>", "<>", '"x"@zh-Hant', "@en-gb", "@", "@base", "@prefix",
    "<http://[rightsstatements.org/rs/ic/1.0/>", "[", "]", "(", '"""', "_:",
    "_:b0", "42", "true", "a", ":", "dcterms:", '"\\q"', '"open', "^^", ";", ",",
    ".", "#", "\n", " ", "<http://example.org/p> [ " * 120,
]


@st.composite
def mutated_fixture(draw, name: str = "vocabulary.ttl") -> str:
    """A fixture with one to six of its pieces deleted, cut short, replaced
    or preceded by a fixture or hostile piece."""
    original = re.findall(
        r'\s+|"(?:[^"\\\n]|\\.)*"|<[^>\n]*>|[^\s"<]+|.', fixture_text(name), re.S
    )
    others = st.sampled_from(HOSTILE_PIECES + original) | st.text(max_size=3)
    pieces = list(original)
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(pieces) - 1))
        op = draw(st.sampled_from(["delete", "cut", "replace", "insert"]))
        if op == "delete":
            del pieces[i]
        elif op == "cut":
            pieces[i] = pieces[i][: draw(st.integers(0, len(pieces[i])))]
        elif op == "replace":
            pieces[i] = draw(others)
        else:
            pieces.insert(i, draw(others))
    return "".join(pieces)


@pytest.fixture(scope="session")
def ic_edu_text():
    return fixture_text("ic_edu_statement.ttl")


@pytest.fixture(scope="session")
def ic_edu_graph(ic_edu_text):
    return parse_turtle(ic_edu_text)


@pytest.fixture(scope="session")
def vocabulary_graph():
    return parse_turtle(fixture_text("vocabulary.ttl"))


@pytest.fixture(scope="session")
def vocabulary(vocabulary_graph):
    vocab, report = load_vocabulary(vocabulary_graph)
    assert report.accepted, report.errors
    return vocab


@pytest.fixture(scope="session")
def manifest(vocabulary):
    return generate_site(vocabulary)


def jsonld_walk(text: str) -> Graph:
    """Independent JSON-LD reconstruction using only a generic JSON reader."""
    doc = json.loads(text)
    ctx = doc["@context"]

    def expand(term: str) -> str:
        if ":" in term:
            prefix, local = term.split(":", 1)
            if prefix in ctx:
                return ctx[prefix] + local
        return term

    def node_term(node_id: str):
        if node_id.startswith("_:"):
            return BlankNode(node_id[2:])
        return Iri(node_id)

    triples = set()
    for node in doc.get("@graph", []):
        subject = node_term(node["@id"])
        for key, values in node.items():
            if key == "@id":
                continue
            if key == "@type":
                for v in values:
                    triples.add(Triple(subject, Iri(RDF_TYPE), Iri(expand(v))))
                continue
            pred = Iri(expand(key))
            for v in values:
                if "@id" in v:
                    obj = node_term(v["@id"])
                else:
                    dt = v.get("@type")
                    obj = Literal(
                        v["@value"],
                        lang=v.get("@language"),
                        datatype=Iri(expand(dt)) if dt else None,
                    )
                triples.add(Triple(subject, pred, obj))
    return Graph(triples)
