"""Blank-node-aware graph equality by colour refinement, no size limit."""

from __future__ import annotations

from collections import Counter, defaultdict

from .model import BlankNode, Graph, Triple


def _links(g: Graph) -> dict[BlankNode, list[tuple[str, str, object]]]:
    """Each blank node's (role, predicate, partner) for every triple it is in,
    the nodes in label order."""
    links: dict[BlankNode, list] = defaultdict(list)
    for t in g:
        if isinstance(t.subject, BlankNode):
            links[t.subject].append(("s", t.predicate.value, t.object))
        if isinstance(t.object, BlankNode):
            links[t.object].append(("o", t.predicate.value, t.subject))
    return {n: links[n] for n in sorted(links, key=lambda n: n.label)}


def _refine(colours: tuple[dict, dict], links: tuple[dict, dict]) -> tuple[dict, dict]:
    """Split every colour, over both graphs at once, by the multiset of its
    nodes' links, a blank partner counted by its colour, until none splits.
    One colour table serves both graphs, so an isomorphism maps each node to
    one of the same colour."""
    while True:
        table: dict = {}
        refined = tuple(
            {n: table.setdefault((c[n], frozenset(Counter(
                (r, p, c[m] if isinstance(m, BlankNode) else m) for r, p, m in ls[n]
            ).items())), len(table)) for n in c}
            for c, ls in zip(colours, links)
        )
        if len(table) == len(set(colours[0].values()) | set(colours[1].values())):
            return refined
        colours = refined


def _individualized(ca: dict, cb: dict, x: BlankNode, ys: list, fresh: int):
    """The colourings that give ``x`` and each of ``ys`` in turn a colour of
    their own."""
    for y in ys:
        yield {**ca, x: fresh}, {**cb, y: fresh}


def _classes(colours: dict) -> dict[int, list[BlankNode]]:
    classes: dict[int, list[BlankNode]] = defaultdict(list)
    for n, c in colours.items():
        classes[c].append(n)
    return classes


def graphs_isomorphic(a: Graph, b: Graph) -> bool:
    """Whether a bijection of blank nodes maps ``a`` onto ``b``.

    Colour refinement runs first; while a colour still holds several nodes
    with a blank partner, the first of them in ``a`` is paired with each
    node of that colour in ``b`` in turn, on an explicit stack, and the
    colours are refined again.  Tied nodes whose partners are all ground
    have identical links, so they pair in label order.  The mapping so
    forced is then checked triple by triple, ground triples included."""
    links = (_links(a), _links(b))
    if len(a) != len(b) or len(links[0]) != len(links[1]):
        return False
    stack = [iter([tuple(dict.fromkeys(ls, 0) for ls in links)])]
    while stack:
        colours = next(stack[-1], None)
        if colours is None:
            stack.pop()
            continue
        ca, cb = _refine(colours, links)
        if Counter(ca.values()) != Counter(cb.values()):
            continue
        classes_a, classes_b = _classes(ca), _classes(cb)
        tied = next((c for c, ns in classes_a.items() if len(ns) > 1 and any(
            isinstance(m, BlankNode) for _, _, m in links[0][ns[0]])), None)
        if tied is not None:
            stack.append(_individualized(ca, cb, classes_a[tied][0], classes_b[tied],
                                         len(classes_a)))
            continue
        mapping = {x: y for c, xs in classes_a.items() for x, y in zip(xs, classes_b[c])}
        if all(Triple(mapping.get(t.subject, t.subject), t.predicate,
                      mapping.get(t.object, t.object)) in b for t in a):
            return True
    return False
