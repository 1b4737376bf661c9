"""Toolkit for publishing a rights statement vocabulary as linked open data."""

from .model import BlankNode, Graph, Iri, Literal, Triple
from .turtle import TurtleSyntaxError, parse_turtle, serialize_turtle
from .jsonld import serialize_jsonld
from .rdfa import RdfaError, extract_rdfa
from .isomorphism import graphs_isomorphic
from .uris import (
    NamespaceConfig,
    StatementUri,
    Validity,
    build_statement_uri,
    normalize_uri,
    parse_statement_uri,
)
from .vocab import (
    StatementRecord,
    ValidationReport,
    VersionReport,
    Vocabulary,
    check_object_references,
    diff_versions,
    load_vocabulary,
    lookup_statement,
)
from .site import (
    SiteManifest,
    generate_site,
    render_overview_html,
    render_statement_html,
    write_manifest,
)
from .server import (
    LanguageRange,
    MediaRange,
    NegotiationServer,
    Snapshot,
    handle_request,
    negotiate,
    parse_accept,
    parse_accept_language,
)

__all__ = [
    "BlankNode", "Graph", "Iri", "Literal", "Triple",
    "TurtleSyntaxError", "parse_turtle", "serialize_turtle",
    "serialize_jsonld", "RdfaError", "extract_rdfa",
    "graphs_isomorphic",
    "NamespaceConfig", "StatementUri", "Validity",
    "build_statement_uri", "normalize_uri", "parse_statement_uri",
    "StatementRecord", "ValidationReport", "VersionReport", "Vocabulary",
    "check_object_references", "diff_versions", "load_vocabulary",
    "lookup_statement",
    "SiteManifest", "generate_site", "render_overview_html",
    "render_statement_html", "write_manifest",
    "LanguageRange", "MediaRange", "NegotiationServer",
    "Snapshot", "handle_request", "negotiate",
    "parse_accept", "parse_accept_language",
]
