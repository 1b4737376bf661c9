"""Seeded synthetic rights-statement vocabularies for the benchmark.

The generator writes its own Turtle and keeps a plain record of every
statement it emitted, so the benchmark's checks compare the program's
output against what was generated, never against the program itself.
The prefix block and the statement predicates follow the fixture
vocabulary, which is read and never modified.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from pathlib import Path

BASE = "http://rightsstatements.org"
CREATOR = "Digital Public Library of America and Europeana Rights Working Group"

# Predicates a generated statement may use; each must appear in the fixture.
STATEMENT_PREDICATES = (
    "skos:prefLabel", "skos:definition", "skos:scopeNote", "dc:creator",
    "dcterms:hasVersion", "dcterms:modified", "dc:identifier",
    "dcterms:coverage", "skos:closeMatch", "skos:relatedMatch",
    "odrl:permission", "odrl:action", "odrl:constraint", "odrl:operator",
    "odrl:purpose",
)

# The ten translations of the realistic vocabulary, with letters each
# language adds to the ASCII alphabet so that every build handles
# non-ASCII text.
LANGUAGES = {
    "en": "",
    "de": "äöüß",
    "es": "áéíñóú",
    "et": "äõöüšž",
    "fi": "äö",
    "fr": "àâçéèêëîïôœù",
    "it": "àèéìòù",
    "nl": "ëïé",
    "pl": "ąćęłńóśźż",
    "pt": "ãáâçéêõú",
}

# Real rightsstatements.org statement names, in the order of the site.
REAL_NAMES = (
    "inc", "inc-ow-eu", "inc-edu", "inc-nc", "inc-ruu", "noc-cr",
    "noc-nc", "noc-oklr", "noc-us", "cne", "und", "nkc",
)

MATCH_TARGETS = (
    ("closeMatch", "http://creativecommons.org/publicdomain/mark/1.0/"),
    ("relatedMatch", "http://id.loc.gov/vocabulary/preservation/copyrightStatus/cpr"),
    ("relatedMatch", "http://id.loc.gov/vocabulary/preservation/copyrightStatus/pub"),
)

PURPOSES = ("education", "research", "non-commercial")


@dataclass
class GeneratedStatement:
    name: str
    version: str
    jurisdiction: str | None
    labels: dict[str, str]
    definitions: dict[str, str]
    notes: dict[str, str] = field(default_factory=dict)
    purpose: str | None = None  # set when the statement has an ODRL permission

    @property
    def dir(self) -> str:
        path = f"rs/{self.name}/{self.version}/"
        return path + (f"{self.jurisdiction}/" if self.jurisdiction else "")

    @property
    def languages(self) -> list[str]:
        return sorted(self.labels)


@dataclass
class GeneratedVocabulary:
    turtle: str
    title: dict[str, str]
    statements: list[GeneratedStatement]

    def expected_paths(self) -> set[str]:
        """Every file a build of this vocabulary must write."""
        paths = {"rs/data.ttl", "rs/data.jsonld"}
        langs = set(self.title) | {"en"}
        for s in self.statements:
            paths |= {s.dir + "data.ttl", s.dir + "data.jsonld"}
            paths |= {s.dir + f"index.{lang}.html" for lang in s.labels}
            langs |= set(s.labels)
        paths |= {f"rs/index.{lang}.html" for lang in langs}
        return paths


def fixture_prefixes(fixture: Path) -> list[str]:
    """The fixture's @prefix lines, after checking that it uses every
    predicate the generator emits."""
    text = fixture.read_text(encoding="utf-8")
    prefixes = [line for line in text.splitlines() if line.startswith("@prefix ")]
    missing = [p for p in STATEMENT_PREDICATES if p not in text]
    if not prefixes or missing:
        raise ValueError(f"{fixture} no longer has the expected shape: {missing}")
    return prefixes


def _words(rng: random.Random, lang: str, count: int) -> str:
    letters = "abcdefghijklmnoprstuvy" + LANGUAGES[lang] * 2
    words = []
    for _ in range(count):
        words.append("".join(rng.choice(letters) for _ in range(rng.randint(2, 9))))
    # characters the HTML and Turtle writers must escape
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words) + 1), rng.choice(('&', '<b>', '"q"', "l'x")))
    return " ".join(words)


def _text(rng: random.Random, lang: str, lo: int, hi: int) -> str:
    text = _words(rng, lang, rng.randint(lo, hi))
    return text[0].upper() + text[1:]


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _statement_turtle(s: GeneratedStatement, rng: random.Random) -> str:
    def literals(texts: dict[str, str]) -> str:
        return " , ".join(f'"{_esc(t)}"@{lang}' for lang, t in sorted(texts.items()))

    lines = [
        f"<{BASE}/{s.dir}> a dcterms:RightsStatement ;",
        f"    skos:prefLabel {literals(s.labels)} ;",
        f"    skos:definition {literals(s.definitions)} ;",
    ]
    if s.notes:
        lines.append(f"    skos:scopeNote {literals(s.notes)} ;")
    lines += [
        f'    dc:creator "{CREATOR}" ;',
        f'    dcterms:hasVersion "{s.version}" ;',
        f'    dcterms:modified "{2014 + int(s.version[0])}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}" ;',
        f'    dc:identifier "{s.name}" ;',
    ]
    if s.jurisdiction:
        lines.append(f'    dcterms:coverage "{s.jurisdiction}" ;')
    relation, target = rng.choice(MATCH_TARGETS)
    lines.append(f"    skos:{relation} <{target}> ;")
    if s.purpose:
        lines += [
            "    odrl:permission [",
            "        odrl:action odrl:use ;",
            "        odrl:constraint [",
            "            odrl:operator odrl:eq ;",
            f"            odrl:purpose <{BASE}/purpose/{s.purpose}>",
            "        ]",
            "    ] ;",
        ]
    lines[-1] = lines[-1][:-2] + " ."
    return "\n".join(lines)


# Definition lengths in words: a short phrase, a sentence or two, a long
# paragraph.  Which class a definition gets is fixed by its position, so
# every seed yields the same amount of text within a few per cent.
DEFINITION_WORDS = ((8, 12), (35, 45), (200, 240))


def _statement(rng, index, name, version, jurisdiction, langs) -> GeneratedStatement:
    """The statement at ``index``: its shape (note, permission, definition
    lengths) follows from the index, its text from ``rng``."""
    s = GeneratedStatement(
        name=name, version=version, jurisdiction=jurisdiction,
        labels={lang: _text(rng, lang, 1, 6) for lang in langs},
        definitions={
            lang: _text(rng, lang, *DEFINITION_WORDS[(index + k) % len(DEFINITION_WORDS)])
            for k, lang in enumerate(langs)
        },
    )
    if index % 4 == 1:
        s.notes = {lang: _text(rng, lang, 2, 15) for lang in langs}
    if index % 3 == 0:
        s.purpose = rng.choice(PURPOSES)
    return s


def _assemble(prefixes, title, statements, rng) -> GeneratedVocabulary:
    title_lits = " , ".join(f'"{_esc(t)}"@{lang}' for lang, t in sorted(title.items()))
    parts = [
        "# Generated rights statement vocabulary.",
        "\n".join(prefixes),
        f"<{BASE}/rs/> a skos:ConceptScheme ;\n    dcterms:title {title_lits} .",
    ]
    parts += [_statement_turtle(s, rng) for s in statements]
    return GeneratedVocabulary("\n\n".join(parts) + "\n", title, statements)


def realistic(seed: int, fixture: Path) -> GeneratedVocabulary:
    """A dozen real statement names in ten languages, plus a second
    version of one name and a US jurisdiction variant."""
    rng = random.Random(f"realistic-{seed}")
    langs = sorted(LANGUAGES)
    keys = [(name, "1.0", None) for name in REAL_NAMES]
    keys += [("inc", "2.0", None), ("noc-cr", "1.0", "US")]
    statements = [_statement(rng, i, *key, langs) for i, key in enumerate(keys)]
    title = {lang: _text(rng, lang, 2, 3) for lang in langs}
    return _assemble(fixture_prefixes(fixture), title, statements, rng)


def stress(seed: int, fixture: Path, count: int) -> GeneratedVocabulary:
    """``count`` statements with two or three translations each: mostly
    distinct names, every eighth name with three versions and every eighth
    with a jurisdiction variant."""
    rng = random.Random(f"stress-{seed}")
    others = sorted(set(LANGUAGES) - {"en"})
    statements: list[GeneratedStatement] = []
    group = 0
    while len(statements) < count:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 8)))
        name = f"s{len(statements):04d}-{word}"
        variants = [("1.0", None)]
        if group % 8 == 3:
            variants += [("2.0", None), ("2.1", None)]
        elif group % 8 == 6:
            variants.append(("1.0", rng.choice(("US", "DE", "NL", "FI"))))
        for version, jurisdiction in variants[: count - len(statements)]:
            i = len(statements)
            langs = ["en"] + rng.sample(others, 1 + i % 2)
            statements.append(_statement(rng, i, name, version, jurisdiction, langs))
        group += 1
    title = {lang: _text(rng, lang, 2, 3) for lang in ["en"] + others}
    return _assemble(fixture_prefixes(fixture), title, statements, rng)
