#!/usr/bin/env python3
"""Check that the vocabulary read path gives what the old read path gave.

The old read path is ``tests/oracles.py``'s: the token pattern before its
string alternative was unrolled, ``Graph.objects`` comparing predicates as
terms, ``load_vocabulary`` reading a subject through one ``Graph.objects``
call per predicate, and the ConceptScheme found by a loop over every sorted
triple.  On the benchmark's generated vocabularies, ``stress(seed, 200)``
and ``realistic(seed)`` for seeds 1 to 3 and ``stress(1, 800)``, and on the
fixture with the hand-built statement of ``scripts/check_splice.py``
(literals with every string escape), this script requires the same token
list, the same ``Graph`` from ``parse_turtle`` and the same
``(Vocabulary, ValidationReport)`` from ``load_vocabulary``.  It also
requires the graph to iterate in sorted triple order, the one order
``Graph`` keeps for every caller.  It imports the program from ``src/`` and
the generator from ``perfbench/`` of this checkout, and the oracles from
``tests/``.

Usage: python3 scripts/check_reader.py
Exits 1 and names each differing result if any differs, else 0.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests"),
                str(ROOT / "scripts")]

from rightsvocab import TurtleSyntaxError, load_vocabulary, parse_turtle  # noqa: E402
from rightsvocab.model import triple_sort_key  # noqa: E402

import vocabgen  # noqa: E402
from check_splice import HAND_BUILT  # noqa: E402
from oracles import old_load_vocabulary, old_reader, old_token_outcome, token_outcome  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "vocabulary.ttl"


def _cases():
    for seed in (1, 2, 3):
        yield f"stress({seed}, 200)", vocabgen.stress(seed, FIXTURE, 200).turtle
        yield f"realistic({seed})", vocabgen.realistic(seed, FIXTURE).turtle
    yield "stress(1, 800)", vocabgen.stress(1, FIXTURE, 800).turtle
    yield "fixture + hand-built", FIXTURE.read_text(encoding="utf-8") + HAND_BUILT


def main() -> int:
    failures = 0
    for name, text in _cases():
        try:
            g = parse_turtle(text)
        except TurtleSyntaxError as exc:
            print(f"FAILED {name}: {exc}")
            failures += 1
            continue
        with old_reader():
            old_g = parse_turtle(text)
        loaded = load_vocabulary(g)
        old = "differs from the old read path's"
        for what, same in (
            (f"the token list {old}", token_outcome(text) == old_token_outcome(text)),
            (f"the graph {old}", g == old_g),
            ("the graph is not in sorted order", list(g) == sorted(g, key=triple_sort_key)),
            (f"the vocabulary and report {old}", loaded == old_load_vocabulary(old_g)),
        ):
            if not same:
                print(f"FAILED {name}: {what}")
                failures += 1
        print(f"{name}: {len(g)} triples, {len(loaded[0].statements)} statements checked")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
