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
VARY = "Accept, Accept-Language"

_Q_RE = re.compile(r"^q=(\d(?:\.\d{0,3})?)$")


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
        m = _Q_RE.match(p.replace(" ", "").lower())
        if m:
            q = float(m.group(1))
            if q > 1.0:
                return None
    return q


def parse_accept(header: Optional[str]) -> list[MediaRange]:
    if header is None or not header.strip():
        return [MediaRange("*", "*", 1.0)]
    ranges = []
    for idx, part in enumerate(header.split(",")):
        bits = [b.strip() for b in part.split(";")]
        mt = bits[0]
        if "/" not in mt:
            continue
        type_, subtype = mt.split("/", 1)
        if not type_ or not subtype or " " in type_ or " " in subtype:
            continue
        q = _parse_q(bits[1:])
        if q is None:
            continue
        ranges.append((MediaRange(type_.lower(), subtype.lower(), q), idx))

    def specificity(r: MediaRange) -> int:
        if r.type == "*":
            return 0
        if r.subtype == "*":
            return 1
        return 2

    ranges.sort(key=lambda ri: (-ri[0].q, -specificity(ri[0]), ri[1]))
    return [r for r, _ in ranges]


def parse_accept_language(header: Optional[str]) -> list[LanguageRange]:
    if header is None or not header.strip():
        return []
    ranges = []
    for idx, part in enumerate(header.split(",")):
        bits = [b.strip() for b in part.split(";")]
        tag = bits[0]
        if not tag or not re.match(r"^(\*|[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*)$", tag):
            continue
        q = _parse_q(bits[1:])
        if q is None:
            continue
        ranges.append((LanguageRange(normalize_lang(tag) if tag != "*" else tag, q), idx))
    ranges.sort(key=lambda ri: (-ri[0].q, ri[1]))
    return [r for r, _ in ranges]


def select_media_type(accept: list[MediaRange]) -> str:
    """Best of the supported types; wildcards and ties go to HTML."""
    scores = {}
    for candidate in SUPPORTED_TYPES:
        ctype, csub = candidate.split("/")
        best = 0.0
        best_spec = -1
        for r in accept:
            if r.type == ctype and r.subtype == csub:
                spec = 2
            elif r.type == ctype and r.subtype == "*":
                spec = 1
            elif r.type == "*" and r.subtype == "*":
                spec = 0
            else:
                continue
            if spec > best_spec:
                best_spec = spec
                best = r.q
        scores[candidate] = best if best_spec >= 0 else 0.0
    top = max(scores.values())
    if top <= 0.0:
        return "text/html"
    # SUPPORTED_TYPES order encodes the tie-break: browsers first
    for candidate in SUPPORTED_TYPES:
        if scores[candidate] == top:
            return candidate
    return "text/html"


def _lang_matches(range_tag: str, available: str) -> bool:
    if range_tag == "*" or range_tag == available:
        return True
    return range_tag.startswith(available + "-") or available.startswith(range_tag + "-")


def select_language(
    available: list[str], ranges: list[LanguageRange], default: str = "en"
) -> str:
    """Total selection: always yields exactly one language.  A q=0 range
    refuses the tags it matches by RFC 4647 basic filtering (itself and
    its extensions) for every other range, ``*`` included."""
    if not available:
        return default
    refused = {lang for r in ranges if r.q <= 0.0 for lang in available
               if lang == r.tag or lang.startswith(r.tag + "-")}
    candidates = sorted(set(available) - refused)
    for r in ranges:
        if r.q <= 0.0:
            continue
        if r.tag in candidates:
            return r.tag
        for lang in candidates:
            if _lang_matches(r.tag, lang):
                return lang
    if default in available:
        return default
    return sorted(available)[0]


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
    default_lang: str = "en"
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


def negotiate(rel: str, accept: list[MediaRange], accept_language: list[LanguageRange],
              snapshot: Snapshot) -> Response:
    """The 303 for the scheme URI or a statement URI at ``rel`` (no
    leading slash, no query), or 404."""
    if rel.rstrip("/") == "rs":
        base, langs = "rs/", snapshot.overview_langs
    else:
        cfg = snapshot.cfg
        record = lookup_statement(snapshot.vocabulary, cfg.base + "/" + rel, cfg)
        if record is None:
            return _NOT_FOUND
        base, langs = statement_dir(record), record.languages()
    doc = _DOC_SUFFIX.get(select_media_type(accept))
    if doc is None:
        doc = f"index.{select_language(langs, accept_language, snapshot.default_lang)}.html"
    return 303, (("Vary", VARY), ("Location", f"/{base}{doc}"), ("Content-Length", "0")), b""


def handle_request(
    method: str, path: str, headers: Mapping[str, str], snapshot: Snapshot
) -> Response:
    if method not in ("GET", "HEAD"):
        return _METHOD_NOT_ALLOWED
    rel = path.partition("?")[0].lstrip("/")
    response = snapshot.documents.get(rel)
    if response is None:
        fields: dict[str, str] = {}  # repeated lines form one list (RFC 9110 §5.3)
        for name, value in headers.items():
            name = name.lower()
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
        response = negotiate(rel, parse_accept(fields.get("accept")),
                             parse_accept_language(fields.get("accept-language")), snapshot)
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
