#!/usr/bin/env python3
"""Check that a build's documents equal fresh serializations of the graphs
they describe.

``generate_site`` writes each statement's ``data.ttl`` and ``data.jsonld``
straight from its record, and assembles ``rs/data.ttl`` and
``rs/data.jsonld`` from the same texts.  This script compares every
statement's two documents, byte for byte, with ``serialize_turtle`` and
``serialize_jsonld`` of ``record_to_graph``, drawing the blank-node labels
from one counter in key order as a build does.  It compares the two whole
documents with the same writers on ``vocabulary_to_graph``, and checks that
``rs/data.ttl`` parses to a graph isomorphic to that graph, on the
benchmark's generated vocabularies: ``stress(seed, 200)`` and
``realistic(seed)`` for seeds 1 to 3, and ``stress(1, 800)``; and on the
fixture and ``realistic(1)``, each with a hand-built statement added, and
on the fixture with two copies of it.  It imports
the program from ``src/`` and the generator from ``perfbench/`` of this
checkout, and the isomorphism oracle from ``tests/oracles.py``.

Usage: python3 scripts/check_splice.py
Exits 1 and names each differing document if any differs, else 0.
"""

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from rightsvocab import generate_site, load_vocabulary, parse_turtle  # noqa: E402
from rightsvocab.jsonld import serialize_jsonld  # noqa: E402
from rightsvocab.site import record_to_graph, statement_dir, vocabulary_to_graph  # noqa: E402
from rightsvocab.turtle import serialize_turtle  # noqa: E402

import vocabgen  # noqa: E402
from oracles import graphs_isomorphic  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "vocabulary.ttl"

# What the generator never writes: literals with the escapes \\ \n \t \r
# (it writes only \"), and two permissions, one with three constraints.
# Added to realistic(1), that permission's node lists its constraints as
# _:b2, _:b3, _:b4 in the statement's own JSON-LD but as _:b10, _:b8, _:b9
# in rs/data.jsonld: the blank-node values sort anew under the whole
# document's names.
HAND_BUILT = r"""
<http://rightsstatements.org/rs/zz-hand-built/1.0/> a dcterms:RightsStatement ;
    skos:prefLabel "Back\\slash, new\nline, tab\t and return\r"@en , "Terug\\streep\r\n"@nl ;
    skos:definition "Two \"quoted\" lines:\nfirst\r\nsecond\twith a \\ and a \\n that is no newline."@en , "\t\\\n\r"@nl ;
    skos:scopeNote "\\\\ two backslashes"@en ;
    dc:creator "Rights\tWorking\\Group\n" ;
    dcterms:hasVersion "1.0" ;
    dcterms:modified "2015-05-02" ;
    dc:identifier "zz-hand-built" ;
    odrl:permission [
        odrl:action odrl:use ;
        odrl:constraint [
            odrl:operator odrl:eq ;
            odrl:purpose <http://rightsstatements.org/purpose/education>
        ] , [
            odrl:operator odrl:eq ;
            odrl:purpose <http://rightsstatements.org/purpose/research>
        ] , [
            odrl:operator odrl:neq ;
            odrl:purpose <http://rightsstatements.org/purpose/commercial>
        ]
    ] , [
        odrl:action odrl:reproduce
    ] .
"""


def _cases():
    for seed in (1, 2, 3):
        yield f"stress({seed}, 200)", vocabgen.stress(seed, FIXTURE, 200).turtle
        yield f"realistic({seed})", vocabgen.realistic(seed, FIXTURE).turtle
    yield "stress(1, 800)", vocabgen.stress(1, FIXTURE, 800).turtle
    yield "fixture + hand-built", FIXTURE.read_text(encoding="utf-8") + HAND_BUILT
    # the copy's key sorts first, so the first statement draws the labels p7
    # to p11: its constraints are p8, p9 and p10, which sort as text as p10, p8, p9
    yield "fixture + hand-built twice", (FIXTURE.read_text(encoding="utf-8") + HAND_BUILT
                                         + HAND_BUILT.replace("zz-hand-built", "zz-hand-built-2"))
    yield "realistic(1) + hand-built", vocabgen.realistic(1, FIXTURE).turtle + HAND_BUILT


def main() -> int:
    failures = 0
    for name, text in _cases():
        vocab, report = load_vocabulary(parse_turtle(text))
        if not report.accepted:
            print(f"FAILED {name}: {report.errors[:3]}")
            failures += 1
            continue
        entries = generate_site(vocab).entries
        counter = itertools.count()
        for key in sorted(vocab.statements):
            r = vocab.statements[key]
            g = record_to_graph(r, counter=counter)
            base = statement_dir(r)
            for path, expected in ((base + "data.ttl", serialize_turtle(g)),
                                   (base + "data.jsonld", serialize_jsonld(g))):
                if entries[path].content != expected.encode("utf-8"):
                    print(f"FAILED {name}: {path} differs from its record's graph's document")
                    failures += 1
        full = vocabulary_to_graph(vocab)
        for path, expected in (("rs/data.ttl", serialize_turtle(full)),
                               ("rs/data.jsonld", serialize_jsonld(full))):
            if entries[path].content != expected.encode("utf-8"):
                print(f"FAILED {name}: {path} differs from the full graph's document")
                failures += 1
        if not graphs_isomorphic(parse_turtle(entries["rs/data.ttl"].content.decode("utf-8")), full):
            print(f"FAILED {name}: rs/data.ttl parses to a graph not isomorphic to the full graph")
            failures += 1
        print(f"{name}: {len(vocab.statements)} statements checked")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
