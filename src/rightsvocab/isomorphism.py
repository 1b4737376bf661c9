"""Blank-node-aware graph equality via bijection search."""

from __future__ import annotations

from collections import Counter

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

    sig_a = {n: _signature(a, n) for n in nodes_a}
    sig_b = {n: _signature(b, n) for n in nodes_b}
    if Counter(sig_a.values()) != Counter(sig_b.values()):
        return False

    target = set(b)
    order = sorted(nodes_a, key=lambda n: (len(list(sig_a[n])), n.label))
    candidates = sorted(nodes_b, key=lambda n: n.label)
    touching = {n: [t for t in a if n in (t.subject, t.object)] for n in nodes_a}

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
        for cand in candidates:
            if cand in used or sig_b[cand] != sig_a[node]:
                continue
            mapping[node] = cand
            used.add(cand)
            if fits(node, mapping) and backtrack(i + 1, mapping, used):
                return True
            del mapping[node]
            used.remove(cand)
        return False

    return backtrack(0, {}, set())
