import itertools
import time

from rightsvocab import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    parse_turtle,
    serialize_turtle,
)
from oracles import graphs_isomorphic

EX = "http://example.org/"


def _relabel(g: Graph, suffix="_renamed") -> Graph:
    def ren(t):
        return BlankNode(t.label + suffix) if isinstance(t, BlankNode) else t

    return Graph(Triple(ren(t.subject), t.predicate, ren(t.object)) for t in g)


def test_identity(ic_edu_graph):
    assert graphs_isomorphic(ic_edu_graph, ic_edu_graph)


def test_relabeled_blank_nodes(ic_edu_graph):
    assert graphs_isomorphic(ic_edu_graph, _relabel(ic_edu_graph))


def test_one_triple_mutation_detected(ic_edu_graph):
    victim = next(
        t for t in ic_edu_graph
        if t.predicate.value.endswith("/operator")
    )
    mutated = Graph(t for t in ic_edu_graph if t != victim)
    assert not graphs_isomorphic(ic_edu_graph, mutated)


def test_differing_ground_triples():
    a = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("x"))])
    b = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("y"))])
    assert not graphs_isomorphic(a, b)


def test_symmetric_and_reflexive_over_fixtures(ic_edu_graph, vocabulary_graph):
    for g in (ic_edu_graph, vocabulary_graph):
        assert graphs_isomorphic(g, g)
        relabeled = _relabel(g)
        assert graphs_isomorphic(g, relabeled)
        assert graphs_isomorphic(relabeled, g)


def test_structure_difference_with_equal_signature_counts():
    # two chains vs one chain and one fork need real backtracking
    def chain(n1, n2, n3):
        return [
            Triple(n1, Iri(EX + "p"), n2),
            Triple(n2, Iri(EX + "p"), n3),
        ]

    a1, a2, a3, a4 = (BlankNode(f"a{i}") for i in range(4))
    b1, b2, b3, b4 = (BlankNode(f"b{i}") for i in range(4))
    a = Graph(chain(a1, a2, a3) + [Triple(a3, Iri(EX + "p"), a4)])
    b = Graph(chain(b1, b2, b3) + [Triple(b2, Iri(EX + "p"), b4)])
    assert not graphs_isomorphic(a, b)

    # one 6-cycle and two 3-cycles: every node has the same signature
    def cycle(nodes):
        return [Triple(n, Iri(EX + "p"), m) for n, m in zip(nodes, nodes[1:] + nodes[:1])]

    six = [BlankNode(f"c{i}") for i in range(6)]
    assert not graphs_isomorphic(Graph(cycle(six)), Graph(cycle(six[:3]) + cycle(six[3:])))


def test_two_hundred_look_alike_blank_nodes():
    # 100 pairs that refinement cannot tell apart: each is paired by a search
    ids = itertools.count()
    g = Graph(
        Triple(BlankNode(f"x{next(ids)}"), Iri(EX + "p"), BlankNode(f"x{next(ids)}"))
        for _ in range(100)
    )
    assert graphs_isomorphic(g, _relabel(g))
    victim = next(iter(g))
    mutated = Graph([t for t in g if t != victim]
                    + [Triple(victim.subject, Iri(EX + "q"), victim.object)])
    assert not graphs_isomorphic(g, _relabel(mutated))


def test_ground_only_twins_pair_without_search():
    g = Graph(Triple(BlankNode(f"x{i}"), Iri(EX + "p"), Literal("v")) for i in range(1000))
    start = time.perf_counter()
    assert graphs_isomorphic(g, _relabel(g))
    assert time.perf_counter() - start < 0.5


def test_round_trip_uses_isomorphism(vocabulary_graph):
    assert graphs_isomorphic(
        vocabulary_graph, parse_turtle(serialize_turtle(vocabulary_graph))
    )


def test_look_alike_nodes_told_apart_by_colour_refinement():
    # every leaf and every inner node of a binary tree has the same local
    # signature, so only their place in the tree tells them apart; labels
    # run the other way in ``b`` so the label order guesses wrong
    def tree(labels, edges):
        nodes = [BlankNode(label) for label in labels]
        return Graph(
            [Triple(Iri(EX + "root"), Iri(EX + "p"), nodes[0])]
            + [Triple(nodes[i], Iri(EX + "p"), nodes[j]) for i, j in edges]
        )

    edges = [((j - 1) // 2, j) for j in range(1, 31)]
    a = tree([f"a{i:02}" for i in range(31)], edges)
    b = tree([f"b{30 - i:02}" for i in range(31)], edges)
    assert graphs_isomorphic(a, b)
    # move one leaf to the neighbouring parent: same size, other shape
    moved = tree([f"b{i:02}" for i in range(31)], edges[:-1] + [(13, 30)])
    assert not graphs_isomorphic(a, moved)
