"""Blank-node-aware graph equality via bijection search."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable

from .model import BlankNode, Graph, Triple

MAX_BLANK_NODES = 32


class IsomorphismLimitError(RuntimeError):
    pass


def _blank_nodes(g: Graph) -> set[BlankNode]:
    out = set()
    for t in g:
        if isinstance(t.subject, BlankNode):
            out.add(t.subject)
        if isinstance(t.object, BlankNode):
            out.add(t.object)
    return out


def _signature(g: Graph, node: BlankNode):
    """Degree signature: multiset of (role, predicate, ground partner)."""
    sig = []
    for t in g:
        if t.subject == node:
            other = t.object if not isinstance(t.object, BlankNode) else None
            sig.append(("s", t.predicate.value, other))
        if t.object == node:
            other = t.subject if not isinstance(t.subject, BlankNode) else None
            sig.append(("o", t.predicate.value, other))
    return frozenset(Counter(sig).items())


def _blank_links(g: Graph) -> dict[BlankNode, list[tuple[str, str, BlankNode]]]:
    """For each blank node, its (role, predicate, partner) for every triple
    whose other end is a blank node too."""
    links: dict[BlankNode, list[tuple[str, str, BlankNode]]] = defaultdict(list)
    for t in g:
        if isinstance(t.subject, BlankNode) and isinstance(t.object, BlankNode):
            links[t.subject].append(("s", t.predicate.value, t.object))
            links[t.object].append(("o", t.predicate.value, t.subject))
    return links


def _refined_colours(a: Graph, nodes_a: set[BlankNode], links_a: dict,
                     b: Graph, nodes_b: set[BlankNode], links_b: dict):
    """Colour refinement over both graphs at once: start from each node's
    signature, then split every colour by the multiset of its blank
    partners' colours until no colour splits.  An isomorphism maps each
    node to one of the same colour, so nodes that only a structure far
    from them tells apart are never tried against each other."""
    sides = [(nodes_a, links_a, a), (nodes_b, links_b, b)]
    table: dict = {}
    colours = [{n: table.setdefault(_signature(g, n), len(table)) for n in nodes}
               for nodes, _, g in sides]
    while True:
        table = {}
        refined = [
            {n: table.setdefault(
                (c[n], frozenset(Counter((r, p, c[m]) for r, p, m in links[n]).items())),
                len(table))
             for n in nodes}
            for c, (nodes, links, _) in zip(colours, sides)
        ]
        if len(table) == len(set(colours[0].values()) | set(colours[1].values())):
            return refined
        colours = refined


def _matching_order(nodes: set[BlankNode], links: dict, rank: Callable) -> list[BlankNode]:
    """The nodes breadth first from the lowest-ranked node of each connected
    component, so each node but a component's first is matched after a
    blank neighbour and ``fits`` prunes a wrong choice at once."""
    order: list[BlankNode] = []
    seen: set[BlankNode] = set()
    for start in sorted(nodes, key=rank):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for node in queue:
            for _, _, m in sorted(links[node], key=lambda link: (link[2].label, link[:2])):
                if m not in seen:
                    seen.add(m)
                    queue.append(m)
        order.extend(queue)
    return order


def graphs_isomorphic(a: Graph, b: Graph) -> bool:
    if len(a) != len(b):
        return False
    nodes_a = _blank_nodes(a)
    nodes_b = _blank_nodes(b)
    if len(nodes_a) != len(nodes_b):
        return False
    if len(nodes_a) > MAX_BLANK_NODES:
        raise IsomorphismLimitError(
            f"graphs have {len(nodes_a)} blank nodes; limit is {MAX_BLANK_NODES}"
        )

    ground_a = {t for t in a if not isinstance(t.subject, BlankNode)
                and not isinstance(t.object, BlankNode)}
    ground_b = {t for t in b if not isinstance(t.subject, BlankNode)
                and not isinstance(t.object, BlankNode)}
    if ground_a != ground_b:
        return False
    if not nodes_a:
        return True

    links_a = _blank_links(a)
    colour_a, colour_b = _refined_colours(a, nodes_a, links_a, b, nodes_b, _blank_links(b))
    if Counter(colour_a.values()) != Counter(colour_b.values()):
        return False

    target = set(b)
    candidates: dict[int, list[BlankNode]] = defaultdict(list)
    for n in sorted(nodes_b, key=lambda n: n.label):
        candidates[colour_b[n]].append(n)
    touching: dict[BlankNode, list[Triple]] = defaultdict(list)
    for t in a:
        for n in {t.subject, t.object} & nodes_a:
            touching[n].append(t)
    order = _matching_order(nodes_a, links_a, lambda n: (len(candidates[colour_a[n]]), n.label))

    def fits(node: BlankNode, mapping: dict) -> bool:
        """Each triple of ``node`` whose blank ends are all mapped maps into
        ``b``, so a full injective mapping that fits at every step maps
        ``a`` onto ``b``, which has as many triples."""
        for t in touching[node]:
            s = mapping.get(t.subject) if isinstance(t.subject, BlankNode) else t.subject
            o = mapping.get(t.object) if isinstance(t.object, BlankNode) else t.object
            if s is not None and o is not None and Triple(s, t.predicate, o) not in target:
                return False
        return True

    def backtrack(i: int, mapping: dict, used: set) -> bool:
        if i == len(order):
            return True
        node = order[i]
        for cand in candidates[colour_a[node]]:
            if cand in used:
                continue
            mapping[node] = cand
            used.add(cand)
            if fits(node, mapping) and backtrack(i + 1, mapping, used):
                return True
            del mapping[node]
            used.remove(cand)
        return False

    return backtrack(0, {}, set())
