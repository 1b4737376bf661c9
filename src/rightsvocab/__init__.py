"""Toolkit for publishing a rights statement vocabulary as linked open data."""

from .model import BlankNode, Graph, Iri, Literal, Triple
from .turtle import TurtleSyntaxError, parse_turtle, serialize_turtle
from .jsonld import serialize_jsonld
from .uris import (
    NamespaceConfig,
    StatementUri,
    Validity,
    build_statement_uri,
    parse_statement_uri,
)
from .vocab import (
    StatementRecord,
    Vocabulary,
    check_object_references,
    diff_versions,
    load_vocabulary,
    lookup_statement,
)
from .site import generate_site, render_overview_html, render_statement_html
from .server import (
    LanguageRange,
    MediaRange,
    NegotiationServer,
    Snapshot,
    handle_request,
    parse_accept,
    parse_accept_language,
)

__all__ = [
    "BlankNode", "Graph", "Iri", "Literal", "Triple",
    "TurtleSyntaxError", "parse_turtle", "serialize_turtle",
    "serialize_jsonld",
    "NamespaceConfig", "StatementUri", "Validity",
    "build_statement_uri", "parse_statement_uri",
    "StatementRecord", "Vocabulary",
    "check_object_references", "diff_versions", "load_vocabulary",
    "lookup_statement",
    "generate_site", "render_overview_html", "render_statement_html",
    "LanguageRange", "MediaRange", "NegotiationServer",
    "Snapshot", "handle_request",
    "parse_accept", "parse_accept_language",
]
