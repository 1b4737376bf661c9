"""Content negotiation over a site manifest (Recipe-5-style 303s).

Abstract statement URIs never answer 200: they 303 to a concrete
document selected by Accept and Accept-Language.  Unacceptable Accept
headers fall back to HTML rather than 406.  Query strings are ignored,
and every method other than GET and HEAD gets 405.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

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
    """Total selection: always yields exactly one language."""
    if not available:
        return default
    for r in ranges:
        if r.q <= 0.0:
            continue
        if r.tag in available:
            return r.tag
        for lang in sorted(available):
            if _lang_matches(r.tag, lang):
                return lang
    if default in available:
        return default
    return sorted(available)[0]


@dataclass(frozen=True)
class NegotiationDecision:
    status: int  # 303, 200 or 404
    location: Optional[str] = None
    media_type: Optional[str] = None
    content_language: Optional[str] = None

    def __post_init__(self):
        if self.status == 303 and not self.location:
            raise ValueError("303 requires a location")
        if self.status == 200 and not self.media_type:
            raise ValueError("200 requires a media type")


_DOC_SUFFIX = {
    "text/turtle": "data.ttl",
    "application/ld+json": "data.jsonld",
}


def negotiate(
    path: str,
    accept: list[MediaRange],
    accept_language: list[LanguageRange],
    manifest: SiteManifest,
    v: Vocabulary,
    cfg: NamespaceConfig = DEFAULT_CONFIG,
    default_lang: str = "en",
) -> NegotiationDecision:
    rel = path.lstrip("/")

    entry = manifest.entries.get(rel)
    if entry is not None:
        return NegotiationDecision(
            status=200, media_type=entry.media_type,
            content_language=entry.language,
        )

    chosen = select_media_type(accept)

    if rel.rstrip("/") == "rs":
        base = "rs/"
        html_langs = sorted(
            e.language for p, e in manifest.entries.items()
            if p.startswith("rs/index.") and e.language
        )
        return _redirect(base, chosen, accept_language, html_langs, default_lang)

    record = lookup_statement(v, cfg.base + "/" + rel, cfg)
    if record is None:
        return NegotiationDecision(status=404)
    base = statement_dir(record)
    return _redirect(base, chosen, accept_language, record.languages(), default_lang)


def _redirect(base, chosen, accept_language, html_langs, default_lang):
    if chosen in _DOC_SUFFIX:
        return NegotiationDecision(status=303, location=base + _DOC_SUFFIX[chosen])
    lang = select_language(html_langs, accept_language, default_lang)
    return NegotiationDecision(status=303, location=f"{base}index.{lang}.html")


@dataclass(frozen=True)
class Snapshot:
    manifest: SiteManifest
    vocabulary: Vocabulary
    cfg: NamespaceConfig = DEFAULT_CONFIG
    default_lang: str = "en"


def handle_request(
    method: str, path: str, headers: dict[str, str], snapshot: Snapshot
) -> tuple[int, list[tuple[str, str]], bytes]:
    headers = {k.lower(): v for k, v in headers.items()}
    if method not in ("GET", "HEAD"):
        return 405, [("Vary", VARY), ("Allow", "GET, HEAD"), ("Content-Length", "0")], b""
    path = path.partition("?")[0]

    decision = negotiate(
        path,
        parse_accept(headers.get("accept")),
        parse_accept_language(headers.get("accept-language")),
        snapshot.manifest,
        snapshot.vocabulary,
        snapshot.cfg,
        snapshot.default_lang,
    )
    out = [("Vary", VARY)]
    body = b""
    if decision.status == 303:
        out.append(("Location", "/" + decision.location))
    elif decision.status == 200:
        entry = snapshot.manifest.entries[path.lstrip("/")]
        out.append(("Content-Type", decision.media_type + "; charset=utf-8"))
        if decision.content_language:
            out.append(("Content-Language", decision.content_language))
        body = entry.content
    else:
        out.append(("Content-Type", "text/plain; charset=utf-8"))
        body = b"404 not found\n"
    out.append(("Content-Length", str(len(body))))
    if method == "HEAD":
        body = b""
    return decision.status, out, body


class NegotiationServer:
    """Stateless HTTP front end over an immutable snapshot."""

    def __init__(self, snapshot: Snapshot, host: str = "127.0.0.1", port: int = 0):
        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
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
                    self.command, self.path, dict(self.headers.items()), snapshot
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
