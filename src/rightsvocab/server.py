"""Content negotiation over a site manifest (Recipe-5-style 303s).

A ``Snapshot`` compiles its manifest once into a table of finished 200
responses, so a request for a document is one dict lookup that parses no
header.  Any other path goes to ``negotiate``: the scheme URI and
abstract statement URIs 303 to a concrete document selected by Accept
and Accept-Language, and everything else is 404.  Unacceptable Accept
headers fall back to HTML rather than 406.  Query strings are ignored,
and every method other than GET and HEAD gets 405.  Responses are shared
between requests and are never mutated.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Optional

from .model import normalize_lang
from .site import SiteManifest, statement_dir
from .uris import DEFAULT_CONFIG, NamespaceConfig
from .vocab import Vocabulary, lookup_statement

SUPPORTED_TYPES = ("text/html", "text/turtle", "application/ld+json")
_SUPPORTED = tuple((t, *t.split("/")) for t in SUPPORTED_TYPES)
VARY = "Accept, Accept-Language"

_Q_RE = re.compile(r"^q=(\d(?:\.\d{0,3})?)$")
_LANGUAGE_RANGE_RE = re.compile(r"\*|[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*")
_SCHEME_AUTHORITY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*")


@dataclass(frozen=True)
class MediaRange:
    type: str
    subtype: str
    q: float = 1.0


@dataclass(frozen=True)
class LanguageRange:
    tag: str
    q: float = 1.0


def _parse_q(params: list[str]) -> Optional[float]:
    q = 1.0
    for p in params:
        m = _Q_RE.match(p.strip().replace(" ", "").lower())
        if m:
            q = float(m.group(1))
            if q > 1.0:
                return None
    return q


def _elements(header: str):
    """Each comma-separated element of ``header`` whose q is well formed:
    its first part, its q and its position."""
    for idx, part in enumerate(header.split(",")):
        first, *params = part.split(";")
        q = _parse_q(params)
        if q is not None:
            yield first.strip(), q, idx


def parse_accept(header: Optional[str]) -> list[MediaRange]:
    """The media ranges of ``header`` by q, then specificity, then position."""
    if header is None or not header.strip():
        return [MediaRange("*", "*", 1.0)]
    ranges = []
    for media_type, q, idx in _elements(header):
        type_, _, subtype = media_type.lower().partition("/")
        if type_ and subtype and " " not in media_type:
            specificity = 0 if type_ == "*" else 1 if subtype == "*" else 2
            ranges.append((-q, -specificity, idx, MediaRange(type_, subtype, q)))
    return [r for *_, r in sorted(ranges)]


def parse_accept_language(header: Optional[str]) -> list[LanguageRange]:
    """The language ranges of ``header`` in normal form, by q, then position."""
    ranges = sorted(
        (-q, idx, LanguageRange(tag if tag == "*" else normalize_lang(tag), q))
        for tag, q, idx in _elements(header or "") if _LANGUAGE_RANGE_RE.fullmatch(tag)
    )
    return [r for *_, r in ranges]


def select_media_type(accept: list[MediaRange]) -> str:
    """The type whose most specific matching range has the highest q (RFC 9110
    §12.5.1); ties, and a header that accepts none, go to HTML, the first type."""
    best, best_q = "text/html", 0.0
    for candidate, type_, subtype in _SUPPORTED:
        q, specificity = 0.0, -1
        for r in accept:  # sorted by q: the first range of each specificity counts
            if r.type == type_ and r.subtype == subtype:
                q = r.q
                break
            if specificity < 1 and r.type == type_ and r.subtype == "*":
                q, specificity = r.q, 1
            elif specificity < 0 and r.type == "*" and r.subtype == "*":
                q, specificity = r.q, 0
        if q > best_q:
            best, best_q = candidate, q
    return best


def select_language(available: list[str], ranges: list[LanguageRange]) -> str:
    """Total selection: always yields exactly one language.  A q=0 range
    refuses the tags it matches by RFC 4647 basic filtering (itself and
    its extensions) for every other range, ``*`` included.  When no range
    selects a tag, English is served, or else the first available tag."""
    refused = {lang for r in ranges if r.q <= 0.0 for lang in available
               if lang == r.tag or lang.startswith(r.tag + "-")}
    candidates = sorted(set(available) - refused)
    for r in ranges:
        if r.q <= 0.0:
            continue
        if r.tag in candidates:
            return r.tag
        for lang in candidates:
            if r.tag == "*" or r.tag.startswith(lang + "-") or lang.startswith(r.tag + "-"):
                return lang
    return "en" if "en" in available or not available else min(available)


_DOC_SUFFIX = {"text/turtle": "data.ttl", "application/ld+json": "data.jsonld"}

Response = tuple[int, tuple[tuple[str, str], ...], bytes]  # status, header pairs, body

_METHOD_NOT_ALLOWED: Response = (
    405, (("Vary", VARY), ("Allow", "GET, HEAD"), ("Content-Length", "0")), b"",
)
_NOT_FOUND: Response = (404, (
    ("Vary", VARY), ("Content-Type", "text/plain; charset=utf-8"), ("Content-Length", "14"),
), b"404 not found\n")


@dataclass(frozen=True)
class Snapshot:
    """The served site compiled once: each manifest path's finished 200
    response, and the languages of the scheme's HTML overviews."""

    manifest: SiteManifest
    vocabulary: Vocabulary
    cfg: NamespaceConfig = DEFAULT_CONFIG
    documents: dict[str, Response] = field(init=False, repr=False, compare=False)
    overview_langs: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        documents = {}
        for path, entry in self.manifest.entries.items():
            headers = [("Vary", VARY), ("Content-Type", entry.media_type + "; charset=utf-8")]
            if entry.language:
                headers.append(("Content-Language", entry.language))
            headers.append(("Content-Length", str(len(entry.content))))
            documents[path] = (200, tuple(headers), entry.content)
        object.__setattr__(self, "documents", documents)
        object.__setattr__(self, "overview_langs", sorted(
            entry.language for path, entry in self.manifest.entries.items()
            if path.startswith("rs/index.") and entry.language
        ))


def _field(headers: Mapping[str, str], name: str) -> Optional[str]:
    """Field ``name`` (lower case), repeated lines joined as one list (RFC 9110 §5.3)."""
    values = [value for key, value in headers.items() if key.lower() == name]
    return ", ".join(values) if values else None


def negotiate(rel: str, headers: Mapping[str, str], snapshot: Snapshot) -> Response:
    """The 303 for the scheme URI or a statement URI at ``rel`` (no
    leading slash, no query), or 404.  A header is read only once the
    URI resolves, and Accept-Language only when HTML is chosen."""
    if rel.rstrip("/") == "rs":
        base, langs = "rs/", snapshot.overview_langs
    else:
        cfg = snapshot.cfg
        record = lookup_statement(snapshot.vocabulary, cfg.base + "/" + rel, cfg)
        if record is None:
            return _NOT_FOUND
        base, langs = statement_dir(record), record.languages()
    doc = _DOC_SUFFIX.get(select_media_type(parse_accept(_field(headers, "accept"))))
    if doc is None:
        ranges = parse_accept_language(_field(headers, "accept-language"))
        doc = f"index.{select_language(langs, ranges)}.html"
    return 303, (("Vary", VARY), ("Location", f"/{base}{doc}"), ("Content-Length", "0")), b""


def handle_request(
    method: str, path: str, headers: Mapping[str, str], snapshot: Snapshot
) -> Response:
    if method not in ("GET", "HEAD"):
        return _METHOD_NOT_ALLOWED
    if not path.startswith("/"):  # absolute form (RFC 9112 §3.2.2)
        path = _SCHEME_AUTHORITY_RE.sub("", path, count=1)
    rel = path.partition("?")[0].lstrip("/")
    response = snapshot.documents.get(rel) or negotiate(rel, headers, snapshot)
    return (response[0], response[1], b"") if method == "HEAD" else response


class NegotiationServer:
    """Stateless HTTP front end over an immutable snapshot."""

    def __init__(self, snapshot: Snapshot, host: str = "127.0.0.1", port: int = 0):
        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # TCP_NODELAY: the body must not wait for the header block's ACK
            disable_nagle_algorithm = True
            # seconds a connection may stall mid-request before it is closed
            timeout = 60

            def __getattr__(self, name):
                # every do_<METHOD> lands here, so no method gets the stdlib 501
                if name.startswith("do_"):
                    return self._respond
                raise AttributeError(name)

            def _respond(self):
                keep_alive = self._discard_body()
                status, headers, body = handle_request(
                    self.command, self.path, self.headers, snapshot
                )
                self.send_response(status)
                for k, v in headers:
                    self.send_header(k, v)
                if not keep_alive:
                    self.send_header("Connection", "close")
                self.end_headers()
                if body:
                    self.wfile.write(body)

            def _discard_body(self) -> bool:
                """Read a declared body off the connection so that its bytes
                are not parsed as the next request; False when its length is
                unknown or malformed, or it stalls past ``timeout``, and the
                connection must close."""
                lengths = self.headers.get_all("Content-Length", ["0"])
                if ("Transfer-Encoding" in self.headers or len(lengths) != 1
                        or not re.fullmatch(r"[0-9]+", lengths[0].strip())):
                    return False
                remaining = int(lengths[0])
                while remaining:
                    try:
                        chunk = self.rfile.read(min(remaining, 65536))
                    except TimeoutError:
                        return False
                    if not chunk:
                        return False
                    remaining -= len(chunk)
                return True

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer((host, port), Handler)

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
