"""Correctness checks whose expected values come from the generator's
records and from the README's negotiation contract, never from the
program under test.
"""

from __future__ import annotations

import hashlib
import html
import json
from pathlib import Path

from vocabgen import GeneratedVocabulary

MEDIA_BY_SUFFIX = {
    ".ttl": "text/turtle",
    ".jsonld": "application/ld+json",
    ".html": "text/html",
}

# Accept headers and the document family the contract selects for each:
# the named machine format when it is the most preferred supported type,
# HTML for browsers, wildcards, ties and unacceptable headers.
ACCEPT_CASES = (
    (None, "html"),
    ("text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8", "html"),
    ("text/html,application/xhtml+xml,application/xml;q=0.9,image/avif,image/webp,"
     "image/apng,*/*;q=0.8,application/signed-exchange;v=b3;q=0.7", "html"),
    ("text/turtle", "ttl"),
    ("TEXT/Turtle", "ttl"),
    ("text/turtle;charset=utf-8", "ttl"),
    ("application/ld+json", "jsonld"),
    ("application/ld+json, text/turtle;q=0.8, */*;q=0.1", "jsonld"),
    ("text/turtle;q=0.9, application/ld+json;q=0.5", "ttl"),
    ("application/rdf+xml, text/turtle;q=0.5", "ttl"),
    ("text/html;q=0.2, application/ld+json", "jsonld"),
    ("*/*", "html"),
    ("text/*", "html"),
    ("application/pdf", "html"),
    ("image/png, application/json", "html"),
)

ACCEPT_LANGUAGE_CASES = (
    None, "*", "de", "de-DE", "fr-CA, fr;q=0.8, en;q=0.5", "pt-BR", "EN-gb",
    "sv", "sv, fi;q=0.5", "nl;q=0, en;q=0.5", "es;q=0.9, it", "da, *;q=0.1",
    "it;q=0.5, fi;q=0.5", "xx-YY", "zh-Hant-TW, ja;q=0.9", "pl;q=1.0, de;q=0.7",
    "fr, en;q=0.9, *;q=0.5",
)

FAMILY_FILE = {"ttl": "data.ttl", "jsonld": "data.jsonld"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- build trees --------------------------------------------------------

def tree_digest(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): sha256(p.read_bytes())
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _jsonld_labels(doc) -> set[tuple[str, str]]:
    """Every (text, language) value object anywhere in a JSON-LD document."""
    found = set()
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "@value" in node and "@language" in node:
                found.add((node["@value"], node["@language"]))
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return found


def check_tree(root: Path, vocab: GeneratedVocabulary) -> list[str]:
    """Problems found in a built tree; empty when it is as generated."""
    problems = []
    files = {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
    expected = vocab.expected_paths()
    problems += [f"missing {p}" for p in sorted(expected - files)]
    problems += [f"unexpected {p}" for p in sorted(files - expected)]
    all_labels = set()
    for s in vocab.statements:
        labels = {(text, lang) for lang, text in s.labels.items()}
        all_labels |= labels
        for lang in s.labels:
            page = root / s.dir / f"index.{lang}.html"
            if not page.is_file():
                continue
            text = page.read_text(encoding="utf-8")
            for what, value in (("label", s.labels[lang]), ("definition", s.definitions[lang])):
                if html.escape(value, quote=True) not in text:
                    problems.append(f"{s.dir}index.{lang}.html lacks its escaped {what}")
        doc = root / s.dir / "data.jsonld"
        if doc.is_file():
            try:
                found = _jsonld_labels(json.loads(doc.read_text(encoding="utf-8")))
            except ValueError as exc:
                problems.append(f"{s.dir}data.jsonld is not JSON: {exc}")
            else:
                if labels - found:
                    problems.append(f"{s.dir}data.jsonld lacks labels {sorted(labels - found)}")
    overview = root / "rs" / "data.jsonld"
    if overview.is_file():
        found = _jsonld_labels(json.loads(overview.read_text(encoding="utf-8")))
        if all_labels - found:
            problems.append(f"rs/data.jsonld lacks {len(all_labels - found)} labels")
    return problems


# --- negotiation contract -----------------------------------------------

def _language_ranges(header: str):
    ranges = []
    for part in header.split(","):
        bits = [b.strip() for b in part.split(";")]
        q = 1.0
        for b in bits[1:]:
            if b.lower().startswith("q="):
                q = float(b[2:])
        if bits[0]:
            ranges.append((bits[0].lower(), q))
    return ranges


def _matches(range_tag: str, lang: str) -> bool:
    """RFC 4647 basic filtering, plus lookup's truncation of a longer range."""
    lang = lang.lower()
    return (range_tag in ("*", lang) or lang.startswith(range_tag + "-")
            or range_tag.startswith(lang + "-"))


def expected_languages(header, available, default: str = "en") -> set[str]:
    """The translations the contract allows for an Accept-Language header:
    those matched at the highest q that matches any, else the default."""
    if header is None:
        return {default}
    ranges = _language_ranges(header)
    refused = {a for a in available
               for tag, q in ranges if q == 0 and tag != "*" and _matches(tag, a)}
    for q in sorted({q for _, q in ranges if q > 0}, reverse=True):
        hits = {a for a in available if a not in refused
                for tag, rq in ranges if rq == q and _matches(tag, a)}
        if hits:
            return hits
    return {default}


def expected_locations(base: str, accept, accept_language, languages) -> set[str]:
    """Paths an abstract URI whose documents live under ``base`` may 303 to."""
    family = dict(ACCEPT_CASES)[accept]
    if family in FAMILY_FILE:
        return {"/" + base + FAMILY_FILE[family]}
    return {f"/{base}index.{lang}.html"
            for lang in expected_languages(accept_language, languages)}
