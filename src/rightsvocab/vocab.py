"""Validated view of the rights statement concept scheme."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Optional

from .model import BlankNode, Graph, Iri, Literal, Term
from .namespaces import CC, DC11, DCTERMS, EDM, ODRL_ALIASES, RDF_TYPE, SKOS
from .uris import (
    DEFAULT_CONFIG,
    JURISDICTION_RE,
    NamespaceConfig,
    NotInNamespaceError,
    StatementUri,
    UriError,
    build_statement_uri,
    parse_statement_uri,
    split_statement_path,
)

RIGHTS_STATEMENT_CLASS = Iri(DCTERMS + "RightsStatement")
CC_LICENSE_CLASS = Iri(CC + "License")
CONCEPT_SCHEME_CLASS = Iri(SKOS + "ConceptScheme")

PREF_LABEL = Iri(SKOS + "prefLabel")
DEFINITION = Iri(SKOS + "definition")
SCOPE_NOTE = Iri(SKOS + "scopeNote")
CREATOR = Iri(DC11 + "creator")
IDENTIFIER = Iri(DC11 + "identifier")
HAS_VERSION = Iri(DCTERMS + "hasVersion")
MODIFIED = Iri(DCTERMS + "modified")
COVERAGE = Iri(DCTERMS + "coverage")
TITLE = Iri(DCTERMS + "title")

MATCH_RELATIONS = ("closeMatch", "exactMatch", "relatedMatch")
RIGHTS_PREDICATES = (Iri(EDM + "rights"), Iri(DCTERMS + "rights"), Iri(DC11 + "rights"))


def _odrl(local: str) -> tuple[Iri, ...]:
    return tuple(Iri(ns + local) for ns in ODRL_ALIASES)


PERMISSION_PREDS = _odrl("permission")
ACTION_PREDS = _odrl("action")
CONSTRAINT_PREDS = _odrl("constraint")
OPERATOR_PREDS = _odrl("operator")
PURPOSE_PREDS = _odrl("purpose")


@dataclass(frozen=True)
class ConstraintSpec:
    operator: Iri
    purpose: Iri


@dataclass(frozen=True)
class PermissionSpec:
    action: Iri
    constraints: tuple[ConstraintSpec, ...] = ()


@dataclass(frozen=True)
class MatchSpec:
    relation: str  # closeMatch | exactMatch | relatedMatch
    target: Iri


@dataclass(frozen=True)
class StatementRecord:
    uri: StatementUri
    pref_labels: dict[str, str]
    definitions: dict[str, str]
    creator: str
    modified: str
    matches: tuple[MatchSpec, ...] = ()
    permissions: tuple[PermissionSpec, ...] = ()
    notes: dict[str, str] = field(default_factory=dict)
    jurisdiction: Optional[str] = None

    def languages(self) -> list[str]:
        return sorted(self.pref_labels)


@dataclass
class Vocabulary:
    scheme_uri: Iri
    title: dict[str, str]
    statements: dict[str, StatementRecord]  # keyed by canonical URI string


@dataclass
class ValidationReport:
    errors: list[tuple[str, str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str, str]] = field(default_factory=list)

    def error(self, rule: str, subject: str, message: str) -> None:
        self.errors.append((rule, subject, message))

    def warn(self, rule: str, subject: str, message: str) -> None:
        self.warnings.append((rule, subject, message))

    @property
    def accepted(self) -> bool:
        return not self.errors


# a subject's objects by predicate string
Props = dict[str, list[Term]]


def _by_predicate(g: Graph, subject) -> Props:
    """The objects of ``subject``'s triples by predicate string, each list in
    ``Graph.objects`` order: one scan of the subject's triples."""
    out: Props = {}
    for t in g.triples_about(subject):
        out.setdefault(t.predicate.value, []).append(t.object)
    return out


def _lang_map(props: Props, predicate: Iri, report, rule, name, label) -> dict[str, str]:
    out: dict[str, str] = {}
    for obj in props.get(predicate.value, ()):
        if not isinstance(obj, Literal):
            report.error(rule, name, f"{label} is not a literal")
            continue
        if obj.lang is None:
            report.error(rule, name, f"{label} {obj.lexical!r} has no language tag")
            continue
        if obj.lang in out:
            report.error(rule, name, f"more than one {label} in {obj.lang}")
        out[obj.lang] = obj.lexical
    return out


def _single_plain(props: Props, predicate: Iri) -> Optional[str]:
    values = [o for o in props.get(predicate.value, ()) if isinstance(o, Literal)]
    return values[0].lexical if values else None


def _parse_subject_uri(subject: Iri, g: Graph, cfg: NamespaceConfig) -> StatementUri:
    """Parse a statement subject, filling in a missing version segment
    from dcterms:hasVersion (the canonical example omits it)."""
    try:
        return parse_statement_uri(subject.value, cfg)
    except UriError:
        segments = split_statement_path(subject.value, cfg)
        if len(segments) == 1:
            version = _single_plain(_by_predicate(g, subject), HAS_VERSION)
            if version:
                return StatementUri(segments[0], version)
        raise


def _extract_permissions(g: Graph, props: Props, report, name) -> tuple[PermissionSpec, ...]:
    perms = []
    for pred in PERMISSION_PREDS:
        for node in props.get(pred.value, ()):
            if not isinstance(node, BlankNode):
                report.error("R8", name, "permission value is not a blank node")
                continue
            node_props = _by_predicate(g, node)
            actions = [o for p in ACTION_PREDS for o in node_props.get(p.value, ())]
            if len(actions) != 1 or not isinstance(actions[0], Iri):
                report.error("R8", name, "permission needs exactly one IRI action")
                continue
            constraints = []
            ok = True
            for cp in CONSTRAINT_PREDS:
                for cnode in node_props.get(cp.value, ()):
                    if not isinstance(cnode, BlankNode):
                        report.error("R8", name, "constraint value is not a blank node")
                        ok = False
                        continue
                    cnode_props = _by_predicate(g, cnode)
                    ops = [o for p in OPERATOR_PREDS for o in cnode_props.get(p.value, ())]
                    purposes = [o for p in PURPOSE_PREDS for o in cnode_props.get(p.value, ())]
                    if (len(ops) != 1 or not isinstance(ops[0], Iri)
                            or len(purposes) != 1 or not isinstance(purposes[0], Iri)):
                        report.error(
                            "R8", name, "constraint needs one IRI operator and purpose"
                        )
                        ok = False
                        continue
                    constraints.append(ConstraintSpec(ops[0], purposes[0]))
            if ok:
                constraints.sort(key=lambda c: (c.operator.value, c.purpose.value))
                perms.append(PermissionSpec(actions[0], tuple(constraints)))
    perms.sort(key=lambda p: (p.action.value, tuple((c.operator.value, c.purpose.value) for c in p.constraints)))
    return tuple(perms)


def load_vocabulary(
    g: Graph, cfg: NamespaceConfig = DEFAULT_CONFIG
) -> tuple[Vocabulary, ValidationReport]:
    report = ValidationReport()

    scheme_uri = Iri(cfg.scheme_uri())
    title: dict[str, str] = {}
    # the greatest IRI subject is the scheme; titles merge in subject order
    for t in g:
        if t.predicate.value == RDF_TYPE and t.object == CONCEPT_SCHEME_CLASS:
            scheme_uri = t.subject if isinstance(t.subject, Iri) else scheme_uri
            for obj in _by_predicate(g, t.subject).get(TITLE.value, ()):
                if isinstance(obj, Literal) and obj.lang:
                    title[obj.lang] = obj.lexical

    # candidate statements: in-namespace subjects with any assertions
    candidates: dict[Iri, StatementUri] = {}
    for subject in g.subjects():
        if not isinstance(subject, Iri) or subject == scheme_uri:
            continue
        try:
            candidates[subject] = _parse_subject_uri(subject, g, cfg)
        except UriError:
            continue

    statements: dict[str, StatementRecord] = {}
    for subject in sorted(candidates, key=str):
        parsed = candidates[subject]
        name = parsed.name
        props = _by_predicate(g, subject)
        types = props.get(RDF_TYPE, ())
        if CC_LICENSE_CLASS in types:
            report.warn("R1", name, "typed cc:License; dcterms:RightsStatement expected")
        if RIGHTS_STATEMENT_CLASS not in types:
            report.error("R1", name, "missing dcterms:RightsStatement type")

        pref_labels = _lang_map(props, PREF_LABEL, report, "R2", name, "prefLabel")
        if "en" not in pref_labels:
            report.error("R2", name, "no English prefLabel")
        definitions = _lang_map(props, DEFINITION, report, "R3", name, "definition")
        if "en" not in definitions:
            report.error("R3", name, "no English definition")
        notes = _lang_map(props, SCOPE_NOTE, report, "R2", name, "scope note")

        for predicate, rule, label in (
            (IDENTIFIER, "R4", "dc:identifier"), (HAS_VERSION, "R5", "dcterms:hasVersion"),
            (MODIFIED, "R6", "dcterms:modified"), (COVERAGE, "R10", "dcterms:coverage"),
        ):
            if len(props.get(predicate.value, ())) > 1:
                report.error(rule, name, f"more than one {label}")
        identifier = _single_plain(props, IDENTIFIER) or ""
        if identifier != parsed.name:
            report.error(
                "R4", name,
                f"dc:identifier {identifier!r} does not equal URI name {parsed.name!r}",
            )
        version = _single_plain(props, HAS_VERSION) or ""
        if version != parsed.version:
            report.error(
                "R5", name,
                f"dcterms:hasVersion {version!r} does not equal URI version {parsed.version!r}",
            )
        modified = _single_plain(props, MODIFIED) or ""
        try:
            datetime.date.fromisoformat(modified)
        except ValueError:
            report.error("R6", name, f"dcterms:modified {modified!r} is not a date")

        matches = []
        for rel in MATCH_RELATIONS:
            for obj in props.get(SKOS + rel, ()):
                if not isinstance(obj, Iri):
                    report.error("R7", name, f"skos:{rel} target is not an IRI")
                    continue
                try:
                    split_statement_path(obj.value, cfg)
                    report.error("R7", name, f"skos:{rel} target {obj.value} is local")
                    continue
                except UriError:
                    pass
                matches.append(MatchSpec(rel, obj))
        matches.sort(key=lambda m: (m.relation, m.target.value))

        permissions = _extract_permissions(g, props, report, name)

        # jurisdiction is asserted at the data level, never read off the URI
        jurisdiction = _single_plain(props, COVERAGE)
        if jurisdiction is not None and not JURISDICTION_RE.match(jurisdiction):
            report.error("R10", name, f"dcterms:coverage {jurisdiction!r} is not alpha-2")
            jurisdiction = None
        if parsed.jurisdiction and jurisdiction != parsed.jurisdiction:
            report.error(
                "R10", name,
                f"URI jurisdiction {parsed.jurisdiction} not asserted via dcterms:coverage",
            )

        record = StatementRecord(
            uri=parsed.without_validity(),
            pref_labels=pref_labels,
            definitions=definitions,
            creator=_single_plain(props, CREATOR) or "",
            modified=modified,
            matches=tuple(matches),
            permissions=permissions,
            notes=notes,
            jurisdiction=jurisdiction,
        )
        key = build_statement_uri(record.uri, cfg)
        if key in statements:
            report.error("R9", name, f"duplicate canonical URI {key}")
        else:
            statements[key] = record

    if not statements:
        report.warn("R0", "-", "vocabulary contains no statements")
    return Vocabulary(scheme_uri=scheme_uri, title=title, statements=statements), report


def lookup_statement(
    v: Vocabulary, uri: str, cfg: NamespaceConfig = DEFAULT_CONFIG
) -> Optional[StatementRecord]:
    try:
        parsed = parse_statement_uri(uri, cfg)
    except UriError:
        return None
    key = build_statement_uri(parsed.without_validity(), cfg)
    return v.statements.get(key)


@dataclass
class VersionReport:
    violations: list[tuple[str, str, str, str]] = field(default_factory=list)
    infos: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _record_key(r: StatementRecord) -> tuple:
    return (r.uri.name, r.uri.jurisdiction or "", r.uri.version)


def diff_versions(
    old: Vocabulary, new: Vocabulary, allow_editorial: bool = False
) -> VersionReport:
    report = VersionReport()
    old_by_key = {_record_key(r): r for r in old.statements.values()}
    new_by_key = {_record_key(r): r for r in new.statements.values()}
    old_names = {k[:2] for k in old_by_key}
    new_names = {k[:2] for k in new_by_key}

    for name, jur in sorted(old_names - new_names):
        report.infos.append(f"statement removed: {name}{'/' + jur if jur else ''}")
    for name, jur in sorted(new_names - old_names):
        report.infos.append(f"statement added: {name}{'/' + jur if jur else ''}")

    for key in sorted(old_by_key):
        if key not in new_by_key:
            if key[:2] in new_names:
                report.infos.append(f"new version of {key[0]}: no longer {key[2]}")
            continue
        a, b = old_by_key[key], new_by_key[key]
        label = key[0] + ("/" + key[1] if key[1] else "")
        for prop, amap, bmap in (
            ("skos:prefLabel", a.pref_labels, b.pref_labels),
            ("skos:definition", a.definitions, b.definitions),
            ("skos:scopeNote", a.notes, b.notes),
        ):
            for lang in sorted(set(amap) | set(bmap)):
                if amap.get(lang) != bmap.get(lang):
                    if allow_editorial:
                        report.infos.append(
                            f"editorial change in {label} {prop}@{lang}"
                        )
                    else:
                        report.violations.append(
                            (label, f"{prop}@{lang}",
                             amap.get(lang, ""), bmap.get(lang, ""))
                        )
        for prop, av, bv in (
            ("matches", a.matches, b.matches),
            ("permissions", a.permissions, b.permissions),
            ("dcterms:modified", a.modified, b.modified),
            ("dc:creator", a.creator, b.creator),
        ):
            if av != bv:
                report.infos.append(f"machine-readable change in {label}: {prop}")
    return report


RESOLVED = "RESOLVED"
UNKNOWN = "UNKNOWN"
MALFORMED = "MALFORMED"
EXTERNAL = "EXTERNAL"
FREE_TEXT = "FREE_TEXT"

CATEGORIES = (RESOLVED, UNKNOWN, MALFORMED, EXTERNAL, FREE_TEXT)


@dataclass(frozen=True)
class ReferenceEntry:
    subject: str
    predicate: str
    value: str
    classification: str


@dataclass
class ReferenceReport:
    entries: list[ReferenceEntry] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out = {c: 0 for c in CATEGORIES}
        for e in self.entries:
            out[e.classification] += 1
        return out

    @property
    def passed(self) -> bool:
        counts = self.counts()
        return counts[UNKNOWN] == 0 and counts[MALFORMED] == 0


def check_object_references(
    objects: Graph, v: Vocabulary, cfg: NamespaceConfig = DEFAULT_CONFIG
) -> ReferenceReport:
    report = ReferenceReport()
    for t in objects:
        if t.predicate not in RIGHTS_PREDICATES:
            continue
        subj = t.subject.value if isinstance(t.subject, Iri) else f"_:{t.subject.label}"
        if isinstance(t.object, Literal):
            report.entries.append(
                ReferenceEntry(subj, t.predicate.value, t.object.lexical, FREE_TEXT)
            )
            continue
        if not isinstance(t.object, Iri):
            continue
        value = t.object.value
        try:
            parsed = parse_statement_uri(value, cfg)
        except NotInNamespaceError:
            classification = EXTERNAL
        except UriError:
            classification = MALFORMED
        else:
            key = build_statement_uri(parsed.without_validity(), cfg)
            classification = RESOLVED if key in v.statements else UNKNOWN
        report.entries.append(
            ReferenceEntry(subj, t.predicate.value, value, classification)
        )
    return report
