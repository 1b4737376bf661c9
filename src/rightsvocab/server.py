"""Content negotiation over a site manifest (Recipe-5-style 303s).

A ``Snapshot`` compiles its manifest once into a table of finished 200
responses, so a request for a document is one dict lookup that parses no
header.  Any other path goes to ``negotiate``: the scheme URI and
abstract statement URIs 303 to a concrete document selected by Accept
and Accept-Language, and everything else is 404.  Unacceptable Accept
headers fall back to HTML rather than 406.  Query strings are ignored,
and every method other than GET and HEAD gets 405.  Responses are shared
between requests and are never mutated.  Each snapshot memoizes, in
bounded tables, what ``negotiate`` resolved for a path, an Accept value
and an Accept-Language value, so a repeated request parses neither its
URI nor its headers again.
"""

from __future__ import annotations

import errno
import functools
import re
import selectors
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .model import normalize_lang
from .site import SiteManifest, statement_dir
from .uris import DEFAULT_CONFIG, NamespaceConfig
from .vocab import Vocabulary, lookup_statement

SUPPORTED_TYPES = ("text/html", "text/turtle", "application/ld+json")
_SUPPORTED = tuple((t, *t.split("/")) for t in SUPPORTED_TYPES)
VARY = "Accept, Accept-Language"

_QVALUE_RE = re.compile(r"0(?:\.\d{0,3})?|1(?:\.0{0,3})?")
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
        p = p.strip().replace(" ", "").lower()
        if p.startswith("q="):
            if not _QVALUE_RE.fullmatch(p, 2):
                return None
            q = float(p[2:])
    return q


def _elements(header: str):
    """Each comma-separated element of ``header`` whose ``q=``, if any, is a
    qvalue (RFC 9110 §12.4.2): its first part, its q (1 if none) and its position."""
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

# Bounds of a Snapshot's memo tables: entries per table, and characters of
# the request's part of a key (longer or non-ASCII parts are not kept)
_MEMO_ENTRIES = 512
_MEMO_KEY_CHARS = 256
_MISS = object()

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
    response, and the languages of the scheme's HTML overviews.

    Three memo tables, filled by ``negotiate`` as requests arrive, hold
    what it resolved: ``routes`` maps a path to its directory and
    languages, or None when it is 404; ``media`` maps an Accept value to
    its document name, or None for HTML; ``languages`` maps an
    Accept-Language value and a directory to the HTML page's name.  A
    snapshot never changes, so an entry never goes stale.  A table that
    holds ``_MEMO_ENTRIES`` entries is emptied before it takes another,
    and a key whose request part is longer than ``_MEMO_KEY_CHARS``
    characters or not ASCII is not kept, so whatever the requests, each
    key's request part takes at most 305 bytes.  The three tables then
    hold at most about 0.65 MiB together on 64-bit CPython 3.11 when a
    statement has ten languages; each further language adds 4 KiB, the
    one part that grows with the vocabulary."""

    manifest: SiteManifest
    vocabulary: Vocabulary
    cfg: NamespaceConfig = DEFAULT_CONFIG
    documents: dict[str, Response] = field(init=False, repr=False, compare=False)
    overview_langs: list[str] = field(init=False, repr=False, compare=False)
    routes: dict[str, Optional[tuple[str, list[str]]]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    media: dict[Optional[str], Optional[str]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    languages: dict[tuple[Optional[str], str], str] = field(
        init=False, repr=False, compare=False, default_factory=dict)

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


def _remember(table: dict, key, part: Optional[str], value):
    """Keep ``value`` under ``key`` unless ``part``, the request's part of
    the key, is too long or not ASCII; a full table is emptied first."""
    if part is None or (len(part) <= _MEMO_KEY_CHARS and part.isascii()):
        if len(table) >= _MEMO_ENTRIES:
            table.clear()
        table[key] = value
    return value


def negotiate(rel: str, headers: Mapping[str, str], snapshot: Snapshot) -> Response:
    """The 303 for the scheme URI or a statement URI at ``rel`` (no
    leading slash, no query), or 404.  A header is read only once the
    URI resolves, and Accept-Language only when HTML is chosen.  What is
    resolved is looked up in, or else kept in, the snapshot's memo tables."""
    route = snapshot.routes.get(rel, _MISS)
    if route is _MISS:
        if rel.rstrip("/") == "rs":
            route = "rs/", snapshot.overview_langs
        else:
            cfg = snapshot.cfg
            record = lookup_statement(snapshot.vocabulary, cfg.base + "/" + rel, cfg)
            route = None if record is None else (statement_dir(record), record.languages())
        _remember(snapshot.routes, rel, rel, route)
    if route is None:
        return _NOT_FOUND
    base, langs = route
    accept = _field(headers, "accept")
    doc = snapshot.media.get(accept, _MISS)
    if doc is _MISS:
        doc = _remember(snapshot.media, accept, accept,
                        _DOC_SUFFIX.get(select_media_type(parse_accept(accept))))
    if doc is None:
        accept_language = _field(headers, "accept-language")
        doc = snapshot.languages.get((accept_language, base))
        if doc is None:
            ranges = parse_accept_language(accept_language)
            doc = _remember(snapshot.languages, (accept_language, base), accept_language,
                            f"index.{select_language(langs, ranges)}.html")
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


# The HTTP/1.1 front end (RFC 9112).  Only the fields below are kept;
# negotiation reads Accept and Accept-Language, framing reads the rest.
TIMEOUT_S = 60  # seconds a connection may idle or stall before it is closed
_MAX_LINE = 65536  # bytes in a request or field line, its line ending included
_MAX_FIELDS = 100
_KEPT_FIELDS = {n.encode(): n for n in ("accept", "accept-language", "content-length",
                                         "transfer-encoding", "connection", "expect")}
_VERSION_RE = re.compile(rb"HTTP/(\d)\.(\d)")
# more digits than int() takes (or any real body needs) count as malformed
_CONTENT_LENGTH_RE = re.compile("[0-9]{1,18}")
_REASONS = {
    200: "OK", 303: "See Other", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    414: "URI Too Long", 431: "Request Header Fields Too Large", 505: "HTTP Version Not Supported",
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@functools.lru_cache(maxsize=1)
def _imf_fixdate(seconds: int) -> str:
    """The Date value for ``seconds`` (RFC 9110 §5.6.7), in English whatever the locale."""
    t = time.gmtime(seconds)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


@dataclass(eq=False, slots=True)
class _Connection:
    """One client's state: unparsed input, the request read so far, the
    declared body bytes still to discard, and output not yet sent."""

    sock: socket.socket
    inbuf: bytearray = field(default_factory=bytearray)
    out: bytes | memoryview = b""  # a view of what a partial send left
    active: float = field(default_factory=time.monotonic)  # the last time bytes moved
    eof: bool = False  # no more input will be read
    closing: bool = False  # close once ``out`` is sent
    request: Optional[tuple[str, str, int]] = None  # method, target, HTTP/1 minor version
    fields: dict[str, str] = field(default_factory=dict)
    nfields: int = 0
    body: Optional[int] = None  # body bytes left once the head is read
    keep: bool = True  # the connection stays open after the answer


class NegotiationServer:
    """HTTP/1.1 front end over an immutable snapshot.  One thread serves
    every connection from a ``selectors`` loop, and each response goes to
    the kernel as one buffer."""

    def __init__(self, snapshot: Optional[Snapshot], host: str = "127.0.0.1", port: int = 0):
        """Bind ``host:port``; ``snapshot`` may be set later, before ``serve_forever``."""
        self.snapshot = snapshot
        # IPv4 for "" and any host with an IPv4 address, in any resolver order: "::" takes no IPv4 client
        v4 = not host or socket.AF_INET in {info[0] for info in socket.getaddrinfo(host, port)}
        self._listener = socket.create_server((host, port), family=socket.AF_INET if v4 else socket.AF_INET6)
        self._listener.setblocking(False)
        self._waker, self._wake = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._waker, selectors.EVENT_READ)
        self._stopping = False
        self._stopped = threading.Event()
        self._stopped.set()

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def shutdown(self) -> None:
        """Stop the loop, even one a KeyboardInterrupt ended, and close every socket."""
        self._stopping = True
        self._wake.send(b"\0")
        self._stopped.wait()
        self._selector.close()
        for sock in (self._listener, self._waker, self._wake):
            sock.close()

    def serve_forever(self) -> None:
        self._stopped.clear()
        sweep_at = time.monotonic() + 1
        try:
            while not self._stopping:
                for key, events in self._selector.select(timeout=1):
                    if key.data is not None:
                        try:
                            self._on_ready(key.data, events)
                        except Exception:  # a fault with one client must not stop the others
                            traceback.print_exc()
                            self._close(key.data)
                    elif key.fileobj is self._listener:
                        self._accept()
                now = time.monotonic()
                if now >= sweep_at:
                    self._sweep(now)
                    sweep_at = now + 1
        finally:
            for key in list(self._selector.get_map().values()):
                if key.data is not None:
                    self._close(key.data)
            self._stopped.set()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError as exc:  # the client is gone, or no descriptor is free
            if exc.errno in (errno.EMFILE, errno.ENFILE):
                self._selector.unregister(self._listener)  # until the sweep, not to spin
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(sock, selectors.EVENT_READ, _Connection(sock))

    def _sweep(self, now: float) -> None:
        """Resume accepting, and treat a connection silent for TIMEOUT_S as
        ended: an unsent answer is dropped, a stalled body still answered."""
        if self._listener not in self._selector.get_map():
            self._selector.register(self._listener, selectors.EVENT_READ)
        for key in list(self._selector.get_map().values()):
            conn = key.data
            if conn is not None and now - conn.active > TIMEOUT_S:
                if conn.out:
                    conn.out, conn.closing = b"", True
                conn.eof = True
                self._advance(conn, selectors.EVENT_READ)

    def _on_ready(self, conn: _Connection, events: int) -> None:
        if events & selectors.EVENT_WRITE:
            self._flush(conn)
        else:
            try:
                data = conn.sock.recv(65536)
            except OSError:  # reset by the client
                data, conn.closing = b"", True
            conn.active = time.monotonic()
            conn.inbuf += data
            conn.eof = not data
        self._advance(conn, events)

    def _advance(self, conn: _Connection, registered: int) -> None:
        """Answer buffered requests in order until an answer waits for the
        kernel, input runs out or the connection closes; then wait to write
        or to read, whichever is next, if ``registered`` is not it already."""
        while not conn.out and not conn.closing and self._step(conn):
            pass
        if not conn.out and (conn.closing or conn.eof):
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if conn.out else selectors.EVENT_READ
        if events != registered:
            self._selector.modify(conn.sock, events, conn)

    def _step(self, conn: _Connection) -> bool:
        """Take one line, or the rest of a declared body, off the input and
        act on it (the body's end sends the answer); False when more input
        is needed."""
        buf = conn.inbuf
        if conn.body is not None:
            n = min(conn.body, len(buf))
            del buf[:n]
            conn.body -= n
            if conn.body and not conn.eof:
                return False
            method, target, _ = conn.request
            response = handle_request(method, target, conn.fields, self.snapshot)
            keep = conn.keep and not conn.body  # a body cut short by a stall closes
            conn.request, conn.fields, conn.nfields, conn.body = None, {}, 0, None
            self._send(conn, response, keep)
            return True
        end = buf.find(b"\n", 0, _MAX_LINE)
        if end < 0:
            if len(buf) < _MAX_LINE:
                return False
            self._refuse(conn, 431 if conn.request else 414)
            return True
        line = bytes(buf[:end]).removesuffix(b"\r")  # a bare LF ends a line too
        del buf[:end + 1]
        if conn.request is None:
            if line:  # empty lines before a request line are ignored (RFC 9112 §2.2)
                words = line.split()
                version = _VERSION_RE.fullmatch(words[2]) if len(words) == 3 else None
                if version is None or version[1] != b"1":  # malformed, or not HTTP/1
                    self._refuse(conn, 400 if version is None else 505)
                else:
                    conn.request = (words[0].decode("latin-1"), words[1].decode("latin-1"),
                                    int(version[2]))
        elif line:
            conn.nfields += 1
            name, colon, value = line.partition(b":")
            if conn.nfields > _MAX_FIELDS:
                self._refuse(conn, 431)
            elif not colon or not name or name.strip() != name:  # e.g. a folded line
                self._refuse(conn, 400)
            elif key := _KEPT_FIELDS.get(name.lower()):
                value = value.strip(b" \t").decode("latin-1")
                old = conn.fields.get(key)
                conn.fields[key] = value if old is None else f"{old}, {value}"  # RFC 9110 §5.3
        else:
            self._end_head(conn)
        return True

    def _end_head(self, conn: _Connection) -> None:
        """Frame the body (RFC 9112 §6.3) and decide whether the connection
        stays open; one of unknown length is left unread and closes it."""
        minor, fields = conn.request[2], conn.fields
        length = fields.get("content-length", "0")
        known = "transfer-encoding" not in fields and bool(_CONTENT_LENGTH_RE.fullmatch(length))
        tokens = {t.strip().lower() for t in fields.get("connection", "").split(",")}
        conn.keep = known and "close" not in tokens and (minor > 0 or "keep-alive" in tokens)
        conn.body = int(length) if known else 0
        if minor > 0 and fields.get("expect", "").lower() == "100-continue":
            conn.out = b"HTTP/1.1 100 Continue\r\n\r\n"
            self._flush(conn)

    def _refuse(self, conn: _Connection, status: int) -> None:
        body = f"{status} {_REASONS[status].lower()}\n".encode()
        self._send(conn, (status, (("Content-Type", "text/plain; charset=utf-8"),
                                   ("Content-Length", str(len(body)))), body), keep=False)

    def _send(self, conn: _Connection, response: Response, keep: bool) -> None:
        """Write the status line, Date, the response's fields, and
        ``Connection: close`` unless ``keep``, then the body, as one buffer."""
        status, headers, body = response
        head = [f"HTTP/1.1 {status} {_REASONS[status]}", f"Date: {_imf_fixdate(int(time.time()))}"]
        head += [f"{k}: {v}" for k, v in headers]
        if not keep:
            head.append("Connection: close")
            conn.closing = True
        conn.out = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        except OSError:  # the client reset or went away: drop the rest
            conn.out, conn.closing = b"", True
            return
        # the rest as a view: slicing bytes would copy it on every partial send
        conn.out = memoryview(conn.out)[sent:] if sent < len(conn.out) else b""
        conn.active = time.monotonic()

    def _close(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()
