import dataclasses
import errno
import http.client
import re
import socket
import statistics
import string
import struct
import sys
import time
from types import SimpleNamespace
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rightsvocab import (
    LanguageRange,
    MediaRange,
    NegotiationServer,
    Snapshot,
    Vocabulary,
    build_statement_uri,
    generate_site,
    handle_request,
    load_vocabulary,
    parse_accept,
    parse_accept_language,
    parse_turtle,
)
from rightsvocab import server
from rightsvocab.server import select_language, select_media_type
from rightsvocab.site import statement_dir

from conftest import fixture_text, start_background
from oracles import old_negotiate


@pytest.fixture(scope="module")
def snapshot(vocabulary, manifest):
    return Snapshot(manifest=manifest, vocabulary=vocabulary)


def test_parse_accept_single():
    assert parse_accept("text/turtle") == [MediaRange("text", "turtle", 1.0)]


def test_parse_accept_q_ordering():
    got = parse_accept("application/ld+json;q=0.8, text/html")
    assert got == [
        MediaRange("text", "html", 1.0),
        MediaRange("application", "ld+json", 0.8),
    ]


def test_parse_accept_specificity_before_header_order():
    got = parse_accept("*/*, text/*, text/html")
    assert got[0] == MediaRange("text", "html", 1.0)
    assert got[-1] == MediaRange("*", "*", 1.0)


def test_parse_accept_absent_is_wildcard():
    assert parse_accept(None) == [MediaRange("*", "*", 1.0)]


def test_parse_accept_skips_garbage():
    got = parse_accept("garbage, text/html;q=bananas;q=0.5, text/turtle")
    assert MediaRange("text", "turtle", 1.0) in got


# RFC 9110 §12.4.2: a qvalue is 0 to 1 with at most three decimals; an
# element whose q= is anything else is dropped, not read as q=1
@pytest.mark.parametrize("q,want", [
    ("0", 0.0), ("0.", 0.0), ("0.125", 0.125), ("1", 1.0), ("1.000", 1.0), ("Q=0.5", 0.5),
    ("abc", None), ("", None), ("0.0001", None), ("2", None), ("1.001", None), ("-0", None),
])
def test_a_q_that_is_no_qvalue_drops_its_element(q, want):
    param = q if q.startswith("Q=") else f"q={q}"
    kept = [] if want is None else [want]
    media = parse_accept(f"text/turtle;{param}, text/html;q=0.5")
    assert [r.q for r in media if r.subtype == "turtle"] == kept
    assert [r.q for r in parse_accept_language(f"nl;{param}, en;q=0.5") if r.tag == "nl"] == kept


def test_malformed_q_does_not_win_negotiation():
    assert select_media_type(
        parse_accept("text/turtle;q=0.0001, application/ld+json;q=0.5")
    ) == "application/ld+json"
    assert select_language(
        ["en", "nl"], parse_accept_language("nl;q=0.0001, en;q=0.5")
    ) == "en"


def test_parse_accept_language_q_ordering():
    assert parse_accept_language("nl, en;q=0.5") == [
        LanguageRange("nl", 1.0),
        LanguageRange("en", 0.5),
    ]


def test_parse_accept_language_absent_is_empty():
    assert parse_accept_language(None) == []
    assert parse_accept_language("") == []


def test_q_zero_language_excluded_from_matching():
    ranges = parse_accept_language("xx;q=0")
    assert select_language(["en", "xx"], ranges) == "en"


def test_q_zero_refuses_its_language_for_every_other_range():
    assert select_language(["nl", "pt"], parse_accept_language("nl;q=0, *")) == "pt"
    assert select_language(["nl-BE", "pt"], parse_accept_language("*, nl;q=0")) == "pt"
    # a q=0 range refuses only its own tag and its extensions
    assert select_language(["nl", "nl-BE"], parse_accept_language("nl-BE;q=0, nl")) == "nl"
    # *;q=0 refuses only what no other range names
    assert select_language(["en", "nl"], parse_accept_language("nl, *;q=0")) == "nl"
    # with every tag refused, the fallback is unchanged
    assert select_language(["en", "nl"], parse_accept_language("en;q=0, nl;q=0, *")) == "en"


def test_language_prefix_matching():
    assert select_language(["nl", "en"], parse_accept_language("nl-BE")) == "nl"
    assert select_language(["nl-BE", "en"], parse_accept_language("nl")) == "nl-BE"


def test_language_ranges_and_tags_compare_in_one_form():
    for header in ("pt-BR", "pt-br", "PT-BR"):
        assert select_language(["en", "pt-BR"], parse_accept_language(header)) == "pt-BR"


@given(st.lists(st.sampled_from(["en", "nl", "nl-BE", "pt-BR", "zh-TW"]),
                min_size=1, unique=True),
       st.data())
def test_any_casing_of_an_available_tag_selects_it(available, data):
    tag = data.draw(st.sampled_from(available))
    header = "".join(
        c.upper() if data.draw(st.booleans()) else c.lower() for c in tag
    )
    assert select_language(available, parse_accept_language(header)) == tag


def test_language_default_is_english():
    assert select_language(["en", "nl"], []) == "en"
    assert select_language(["en", "nl"], parse_accept_language("xx")) == "en"


@given(st.lists(st.sampled_from(["en", "nl", "de", "fr"]), min_size=1, unique=True),
       st.one_of(st.none(), st.text(alphabet="abcdefgxyz,;=.q0159- *", max_size=30)))
def test_language_selection_is_total(available, header):
    chosen = select_language(available, parse_accept_language(header))
    assert isinstance(chosen, str) and chosen


def test_wildcard_and_ties_resolve_to_html():
    assert select_media_type(parse_accept("*/*")) == "text/html"
    assert select_media_type(parse_accept("text/turtle, text/html")) == "text/html"
    assert select_media_type(parse_accept("application/pdf")) == "text/html"
    assert select_media_type(parse_accept(None)) == "text/html"


def test_select_media_specific_types():
    assert select_media_type(parse_accept("text/turtle")) == "text/turtle"
    assert select_media_type(parse_accept("application/ld+json")) == "application/ld+json"
    assert select_media_type(
        parse_accept("application/ld+json;q=0.9, text/turtle;q=0.2")
    ) == "application/ld+json"


def test_most_specific_range_sets_a_types_q():
    # RFC 9110 §12.5.1: text/html;q=0.5 overrides text/*;q=1 for HTML only
    assert select_media_type(parse_accept("text/*;q=1, text/html;q=0.5")) == "text/turtle"
    assert select_media_type(parse_accept("*/*;q=0.9, text/html;q=0")) == "text/turtle"
    assert select_media_type(parse_accept("text/*;q=0.5, */*")) == "application/ld+json"


def test_language_header_is_read_only_for_html(snapshot, monkeypatch):
    def refuse(header):
        raise AssertionError("Accept-Language parsed")

    monkeypatch.setattr(server, "parse_accept_language", refuse)
    sent = {"Accept": "text/turtle", "Accept-Language": "nl"}
    assert handle_request("GET", "/rs/ghost/1.0/", sent, snapshot)[0] == 404
    status, headers, _ = handle_request("GET", "/rs/ic/1.0/", sent, snapshot)
    assert (status, dict(headers)["Location"]) == (303, "/rs/ic/1.0/data.ttl")


def _decide(snapshot, path, accept=None, lang=None):
    """What a GET of ``path`` answers: its status, Location (without the
    leading slash), media type and Content-Language."""
    sent = {k: v for k, v in (("Accept", accept), ("Accept-Language", lang)) if v is not None}
    status, headers, _ = handle_request("GET", "/" + path, sent, snapshot)
    headers = dict(headers)
    return SimpleNamespace(
        status=status,
        location=headers.get("Location", "/")[1:] or None,
        media_type=headers["Content-Type"].partition(";")[0] if status == 200 else None,
        content_language=headers.get("Content-Language"),
    )


def test_abstract_uri_redirects_to_turtle(snapshot):
    d = _decide(snapshot, "rs/ic-edu/1.0/", accept="text/turtle")
    assert (d.status, d.location) == (303, "rs/ic-edu/1.0/data.ttl")


def test_abstract_uri_language_selection(snapshot):
    d = _decide(snapshot, "rs/ic-edu/1.0/", accept="text/html", lang="nl")
    assert d.location == "rs/ic-edu/1.0/index.nl.html"
    d = _decide(snapshot, "rs/ic-edu/1.0/", accept="text/html", lang="fr")
    assert d.location == "rs/ic-edu/1.0/index.en.html"


def test_abstract_uri_no_headers_defaults(snapshot):
    d = _decide(snapshot, "rs/ic-edu/1.0/")
    assert (d.status, d.location) == (303, "rs/ic-edu/1.0/index.en.html")


def test_validity_uri_resolves_to_base_document(snapshot):
    for accept, target in (
        ("text/turtle", "data.ttl"),
        ("application/ld+json", "data.jsonld"),
        ("text/html", "index.en.html"),
    ):
        d = _decide(snapshot, "rs/pd/1.0/US/from/2025-05-02/", accept=accept)
        assert d.location == "rs/pd/1.0/US/" + target


def test_scheme_uri_is_abstract_too(snapshot):
    d = _decide(snapshot, "rs/", accept="text/turtle")
    assert (d.status, d.location) == (303, "rs/data.ttl")
    d = _decide(snapshot, "rs", accept="text/html", lang="nl")
    assert d.location == "rs/index.nl.html"


def test_concrete_document_served(snapshot):
    d = _decide(snapshot, "rs/ic-edu/1.0/data.jsonld")
    assert (d.status, d.media_type) == (200, "application/ld+json")
    d = _decide(snapshot, "rs/ic-edu/1.0/index.nl.html")
    assert d.content_language == "nl"


def test_unknown_statement_404(snapshot):
    assert _decide(snapshot, "rs/ghost/1.0/").status == 404
    assert _decide(snapshot, "rs/ic-edu/9.9/").status == 404
    assert _decide(snapshot, "completely/elsewhere").status == 404


def test_vary_always_present(snapshot):
    for method, path in (
        ("GET", "/rs/ic-edu/1.0/"),
        ("GET", "/rs/ic-edu/1.0/data.ttl"),
        ("GET", "/rs/ghost/1.0/"),
        ("POST", "/rs/"),
    ):
        _, headers, _ = handle_request(method, path, {}, snapshot)
        assert dict(headers)["Vary"] == "Accept, Accept-Language"


def test_query_string_is_ignored(snapshot):
    for path in ("/rs/ic/1.0/", "/rs/ic/1.0/data.ttl", "/rs/ghost/1.0/"):
        assert handle_request("GET", path + "?a=1", {}, snapshot) == \
            handle_request("GET", path, {}, snapshot)
    assert handle_request("GET", "/rs/ic/1.0/data.ttl?a", {}, snapshot)[0] == 200
    status, headers, _ = handle_request("GET", "/rs/ic/1.0/?a", {}, snapshot)
    assert (status, dict(headers)["Location"]) == (303, "/rs/ic/1.0/index.en.html")


def test_absolute_form_target_is_answered_as_its_path(snapshot):
    # RFC 9112 §3.2.2: a server must accept a request target in absolute form
    for path in ("/rs/ic/1.0/", "/rs/ic/1.0/data.ttl", "/rs/ghost/1.0/", "/rs/ic/1.0/?a=1"):
        for origin in ("http://rightsstatements.org", "HTTPS://example.org:8080"):
            assert handle_request("GET", origin + path, {}, snapshot) == \
                handle_request("GET", path, {}, snapshot)
    assert handle_request("GET", "http://rightsstatements.org", {}, snapshot) == \
        handle_request("GET", "/", {}, snapshot)


def test_handle_request_head_matches_get(snapshot):
    get = handle_request("GET", "/rs/ic-edu/1.0/data.ttl", {}, snapshot)
    head = handle_request("HEAD", "/rs/ic-edu/1.0/data.ttl", {}, snapshot)
    assert get[0] == head[0] == 200
    assert dict(get[1]) == dict(head[1])
    assert get[2] and not head[2]


def test_handle_request_post_is_405(snapshot):
    status, headers, _ = handle_request("POST", "/rs/", {}, snapshot)
    assert status == 405
    assert dict(headers)["Allow"] == "GET, HEAD"


def test_handle_request_deterministic(snapshot):
    a = handle_request("GET", "/rs/ic/1.0/", {"Accept": "text/html"}, snapshot)
    b = handle_request("GET", "/rs/ic/1.0/", {"Accept": "text/html"}, snapshot)
    assert a == b


@st.composite
def _requests(draw, snapshot):
    """A method, a path and headers: documents, statement and scheme URIs
    with or without their trailing slash, with doubled slashes or validity
    qualifiers, any of them with a query string, and junk."""
    docs = sorted(snapshot.manifest.entries)
    dirs = ["rs/"] + sorted(statement_dir(r) for r in snapshot.vocabulary.statements.values())
    stem = draw(st.sampled_from(docs + dirs) | st.text(max_size=20))
    if stem in dirs and draw(st.booleans()):
        date = draw(st.dates()).isoformat()
        stem += draw(st.sampled_from(["from", "until"])) + "/" + date + "/"
    shape = draw(st.sampled_from(["", "no slash", "doubled"]))
    if shape == "no slash":
        stem = stem.rstrip("/")
    elif shape == "doubled":
        stem = stem.replace("/", "//")
    path = "/" + stem + draw(st.sampled_from(["", "?", "?a=1", "?x=/rs/"]))
    headers = {}
    for name, values in (
        ("Accept", ["text/turtle", "application/ld+json", "text/html;q=0.2, */*", "x"]),
        ("Accept-Language", ["nl", "en;q=0.5, nl", "nl;q=0, *", "pt-br", "*"]),
    ):
        value = draw(st.none() | st.sampled_from(values) | st.text(max_size=12))
        if value is not None:
            headers[draw(st.sampled_from([name, name.lower(), name.upper()]))] = value
    method = draw(st.sampled_from(["GET", "HEAD", "POST", "PUT", "PATCH"]))
    return method, path, headers


@given(st.data())
def test_handle_request_contract(snapshot, data):
    method, path, headers = data.draw(_requests(snapshot))
    status, out, body = handle_request(method, path, headers, snapshot)
    get = handle_request("GET", path, headers, snapshot)
    fields = dict(out)
    assert status in (200, 303, 404, 405)
    assert fields["Vary"] == "Accept, Accept-Language"
    if method == "HEAD":
        assert (status, out, body) == (get[0], get[1], b"")
    elif method != "GET":
        assert status == 405 and not body
    assert int(fields["Content-Length"]) == len(body if method != "HEAD" else get[2])
    if status == 303:
        assert handle_request("GET", fields["Location"], headers, snapshot)[0] == 200


@pytest.fixture(scope="module")
def long_lived():
    """One snapshot whose memo tables carry over from example to example,
    of the fixture with a German label on ic-edu and US English in place of
    Dutch on pd/US, so that one Accept-Language selects per directory."""
    text = fixture_text("vocabulary.ttl")
    for old, new in (('gebruik"@nl ;', 'gebruik"@nl , "Nur Bildungszwecke"@de ;'),
                     ('"Publiek domein (Verenigde Staten)"@nl', '"Public Domain (US)"@en-US')):
        assert old in text
        text = text.replace(old, new)
    vocabulary, report = load_vocabulary(parse_turtle(text))
    assert report.accepted, report.errors
    return Snapshot(manifest=generate_site(vocabulary), vocabulary=vocabulary)


def _memo_tables(snapshot):
    return snapshot.routes, snapshot.media, snapshot.languages


# too_slow: run alone, the first example also builds hypothesis's character tables
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_memoized_negotiation_answers_as_negotiation_without_memo(long_lived, data):
    # tables of 2 entries empty mid-sequence, tables at the real bound keep
    # entries from example to example, and a padded header is too long to keep
    bound = data.draw(st.sampled_from([2, server._MEMO_ENTRIES]))
    pad = ", x" * (server._MEMO_KEY_CHARS // 3 + 1)
    requests = data.draw(st.lists(st.tuples(_requests(long_lived), st.booleans()), max_size=12))
    dirs = ["rs/"] + sorted(statement_dir(r) for r in long_lived.vocabulary.statements.values())
    # a table left fuller by an earlier example empties at its next store
    sizes = [max(bound, len(t)) for t in _memo_tables(long_lived)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(server, "_MEMO_ENTRIES", bound)
        for (_, path, headers), padded in requests:
            if padded:
                headers = {k: v + pad for k, v in headers.items()}
            # the drawn path, then every directory with the same headers
            for rel in (path.partition("?")[0].lstrip("/"), *dirs):
                assert server.negotiate(rel, headers, long_lived) == \
                    old_negotiate(rel, headers, long_lived)
                assert all(len(t) <= n for t, n in zip(_memo_tables(long_lived), sizes))


def _deep_size(table: dict) -> int:
    """Bytes of ``table``, its keys and its values, tuples and lists opened,
    shared objects counted once per reference."""
    def size(x):
        inner = x if isinstance(x, (tuple, list)) else ()
        return sys.getsizeof(x) + sum(size(y) for y in inner)
    return sys.getsizeof(table) + sum(size(k) + size(v) for k, v in table.items())


def test_memo_tables_stay_within_their_bounds_under_a_flood(vocabulary, manifest):
    snap = Snapshot(manifest=manifest, vocabulary=vocabulary)
    big = "x" * 60_000
    for i in range(2000):
        ghost = "gh\u014dst" if i % 2 else "ghost"  # a short part that is not ASCII is not kept
        assert handle_request("GET", f"/rs/{ghost}-{i}/1.0/", {}, snap)[0] == 404
        sent = {"Accept": f"text/{big}{i}", "Accept-Language": f"nl, {big}{i}"}
        status, headers, _ = handle_request("GET", "/rs/ic/1.0/", sent, snap)
        assert (status, dict(headers)["Location"]) == (303, "/rs/ic/1.0/index.nl.html")
    for table in _memo_tables(snap):
        assert len(table) <= server._MEMO_ENTRIES
        for key in table:
            part = key[0] if isinstance(key, tuple) else key
            assert part is None or (len(part) <= server._MEMO_KEY_CHARS and part.isascii())
    # the stated worst case: full tables whose key parts are as long as is
    # kept, and routes that resolve (extra slashes keep them distinct)
    snap = Snapshot(manifest=manifest, vocabulary=vocabulary)
    n, chars = server._MEMO_ENTRIES, server._MEMO_KEY_CHARS
    for i in range(n):
        a, b = divmod(i, 64)
        path = "rs" + "/" * (a + 1) + "ic" + "/" * (b + 1) + "1.0"
        path += "/" * (chars - len(path))
        tail = f"{i:0{chars}d}"  # no media range and no language range: HTML in English
        sent = {"Accept": tail, "Accept-Language": tail}
        status, headers, _ = handle_request("GET", "/" + path, sent, snap)
        assert (status, dict(headers)["Location"]) == (303, "/rs/ic/1.0/index.en.html")
    assert [len(t) for t in _memo_tables(snap)] == [n, n, n]
    assert sum(_deep_size(t) for t in _memo_tables(snap)) < 2 ** 20


@pytest.fixture
def live_address(snapshot):
    server = NegotiationServer(snapshot)
    start_background(server)
    yield server.address
    server.shutdown()


def _exchange(address, request: bytes) -> bytes:
    """Send raw bytes, half-close, and read everything the server answers."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def test_live_server_answers_absolute_form_target(live_address):
    reply = _exchange(live_address, b"GET http://rightsstatements.org/rs/ic/1.0/ HTTP/1.1\r\n"
                                    b"Host: rightsstatements.org\r\nConnection: close\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 303 ")
    assert b"\r\nLocation: /rs/ic/1.0/index.en.html\r\n" in reply


def test_live_server_any_other_method_is_405(live_address):
    conn = http.client.HTTPConnection(*live_address)
    for method in ("PATCH", "OPTIONS", "BREW"):
        conn.request(method, "/rs/ic/1.0/")
        resp = conn.getresponse()
        resp.read()
        assert (resp.status, resp.getheader("Allow")) == (405, "GET, HEAD")


def test_live_server_discards_request_body(live_address):
    smuggled = b"GET /rs/ghost/1.0/ HTTP/1.1\r\nHost: x\r\n\r\n"
    reply = _exchange(live_address, (
        b"POST /rs/ HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(smuggled)
        + smuggled
        + b"GET /rs/ic/1.0/data.ttl HTTP/1.1\r\nHost: x\r\n\r\n"
    ))
    statuses = [line.split(b" ")[1] for line in reply.split(b"\r\n")
                if line.startswith(b"HTTP/1.1 ")]
    assert statuses == [b"405", b"200"]


@pytest.mark.parametrize("framing", [
    b"Content-Length: banana\r\n",
    b"Content-Length: 4\r\nContent-Length: 5\r\n",
    b"Transfer-Encoding: chunked\r\n",
])
def test_live_server_closes_on_unknown_body_length(live_address, framing):
    reply = _exchange(live_address, (
        b"POST /rs/ HTTP/1.1\r\nHost: x\r\n" + framing + b"\r\n"
        + b"GET /rs/ghost/1.0/ HTTP/1.1\r\nHost: x\r\n\r\n"
    ))
    assert reply.startswith(b"HTTP/1.1 405 ")
    assert reply.count(b"HTTP/1.1 ") == 1
    assert b"\r\nConnection: close\r\n" in reply


def test_live_server_closes_stalled_requests(snapshot, monkeypatch):
    monkeypatch.setattr("rightsvocab.server.TIMEOUT_S", 0.5)
    server = NegotiationServer(snapshot)
    start_background(server)
    try:
        stalled = [
            b"GET /rs/ic/1.0/ HTTP/1.1\r\nHost: x\r\n",  # no blank line
            b"POST /rs/ HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nab",
        ]
        socks = [socket.create_connection(server.address, timeout=5) for _ in stalled]
        for sock, request in zip(socks, stalled):
            sock.sendall(request)
        replies = []
        for sock in socks:
            with sock:
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
                replies.append(b"".join(chunks))
    finally:
        server.shutdown()
    assert replies[0] == b""
    assert replies[1].startswith(b"HTTP/1.1 405 ")
    assert b"\r\nConnection: close\r\n" in replies[1]


@pytest.mark.parametrize("lines, location", [
    (b"Accept-Language: nl\r\nAccept-Language: fr;q=0.1\r\n", b"/rs/index.nl.html"),
    (b"Accept: text/turtle\r\naccept: text/html;q=0.1\r\n", b"/rs/data.ttl"),
], ids=["accept-language", "accept"])
def test_live_server_joins_repeated_header_lines(live_address, lines, location):
    # RFC 9110 §5.3: repeated field lines are one comma-separated list
    reply = _exchange(live_address, b"GET /rs/ HTTP/1.1\r\nHost: x\r\n" + lines + b"\r\n")
    assert reply.startswith(b"HTTP/1.1 303 ")
    assert b"\r\nLocation: " + location + b"\r\n" in reply


def test_live_server_answers_keep_alive_documents_without_delay(live_address):
    # a header block and a body sent as two writes must not wait for an
    # ACK (Nagle's algorithm with delayed ACKs stalls each one ~40 ms)
    conn = http.client.HTTPConnection(*live_address)
    times = []
    for _ in range(20):
        started = time.perf_counter()
        conn.request("GET", "/rs/ic-edu/1.0/data.ttl")
        resp = conn.getresponse()
        assert resp.status == 200 and resp.read()
        times.append(time.perf_counter() - started)
    conn.close()
    assert statistics.median(times) < 0.020


def _answers_303(address) -> bool:
    conn = http.client.HTTPConnection(*address, timeout=5)
    conn.request("GET", "/rs/ic-edu/1.0/", headers={"Accept": "text/turtle"})
    resp = conn.getresponse()
    resp.read()
    conn.close()
    return resp.status == 303


@pytest.mark.parametrize("host, bound", [("", "0.0.0.0"), ("localhost", "127.0.0.1")])
def test_every_address_and_localhost_stay_ipv4_whatever_the_resolver_order(snapshot, monkeypatch, host, bound):
    resolve = socket.getaddrinfo

    def ipv6_first(name, port, *args, **kwargs):
        if name not in (None, "", "localhost"):
            return resolve(name, port, *args, **kwargs)
        return ([(socket.AF_INET6, socket.SOCK_STREAM, 6, "", ("::" if not name else "::1", port, 0, 0))]
                + resolve("127.0.0.1", port, *args, **kwargs))

    monkeypatch.setattr(socket, "getaddrinfo", ipv6_first)
    served = NegotiationServer(snapshot, host=host)
    start_background(served)
    try:
        assert served.address[0] == bound
        assert _answers_303(("127.0.0.1", served.address[1]))
    finally:
        served.shutdown()


def test_live_server_round_trip(snapshot):
    server = NegotiationServer(snapshot)
    start_background(server)
    try:
        host, port = server.address
        conn = http.client.HTTPConnection(host, port)
        conn.request("GET", "/rs/ic-edu/1.0/", headers={"Accept": "text/turtle"})
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 303
        location = resp.getheader("Location")
        conn.request("GET", location)
        resp = conn.getresponse()
        body = resp.read()
        assert resp.status == 200
        assert resp.getheader("Content-Type").startswith("text/turtle")
        assert b"In Copyright - Educational Use Only" in body
    finally:
        server.shutdown()


@pytest.fixture(scope="module")
def shared_address(snapshot):
    server = NegotiationServer(snapshot)
    start_background(server)
    yield server.address
    server.shutdown()


def _send_chunks(address, chunks, must_send: int) -> bytes:
    """Send ``chunks`` one ``send`` apart, half-close, and read everything
    the server answers.  Sending may fail once the first ``must_send``
    bytes are out, since the server may close on a request before it."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sent = 0
        try:
            for chunk in chunks:
                sock.sendall(chunk)
                sent += len(chunk)
                time.sleep(0.001)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # EPIPE, ECONNRESET or ENOTCONN once the server closed
            assert sent >= must_send
        reply = []
        try:
            while chunk := sock.recv(65536):
                reply.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(reply)


_IMF_FIXDATE = re.compile(r"[A-Z][a-z]{2}, \d{2} [A-Z][a-z]{2} \d{4} \d{2}:\d{2}:\d{2} GMT")


@st.composite
def _wire_requests(draw, snapshot):
    """One request of the ``handle_request`` contract on the wire: its
    bytes, how many of them the server reads, whether the server closes
    after it, whether it gets ``100 Continue``, and the response
    ``handle_request`` gives it."""
    method, path, headers = draw(_requests(snapshot))
    path = quote(path, safe=string.punctuation)
    headers = {k: "".join(c for c in v if " " <= c <= "~").strip() for k, v in headers.items()}
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    connection = draw(st.sampled_from([None, "close", "keep-alive", "Keep-Alive"]))
    framing = draw(st.sampled_from([None, "length", "chunked"]))
    expect = draw(st.booleans())
    lines = [f"{method} {path} {version}", "Host: x", *(f"{k}: {v}" for k, v in headers.items())]
    if connection:
        lines.append(f"Connection: {connection}")
    if expect:
        lines.append("Expect: 100-continue")
    body = b""
    if framing == "length":
        body = draw(st.binary(max_size=40) | st.just(b"GET /rs/ghost/1.0/ HTTP/1.1\r\n\r\n"))
        lines.append(f"Content-Length: {len(body)}")
    elif framing == "chunked":
        body = b"0\r\n\r\n"
        lines.append("Transfer-Encoding: chunked")
    closes = (connection == "close" or framing == "chunked"
              or (version == "HTTP/1.0" and connection is None))
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return SimpleNamespace(
        wire=head + body,
        read=len(head) + (len(body) if framing == "length" else 0),  # the bytes the server reads
        closes=closes,
        interim=expect and version == "HTTP/1.1",
        response=handle_request(method, path, headers, snapshot),
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wire_conformance(snapshot, shared_address, data):
    """Pipelined requests split at random byte boundaries get one response
    each, in order, equal to ``handle_request``'s apart from Date, Server
    and an added ``Connection: close``; nothing follows a closing one."""
    requests = data.draw(st.lists(_wire_requests(snapshot), min_size=1, max_size=4))
    answered = []
    for request in requests:
        answered.append(request)
        if request.closes:
            break
    stream = b"".join(r.wire for r in requests)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=5)))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)]) if b > a]
    reply = _send_chunks(shared_address, chunks,
                         sum(len(r.wire) for r in answered[:-1]) + answered[-1].read)
    pos = 0
    for request in answered:
        if request.interim:
            assert reply.startswith(b"HTTP/1.1 100 Continue\r\n\r\n", pos)
            pos += 25
        end = reply.find(b"\r\n\r\n", pos)
        assert end >= 0, reply[pos:]
        status_line, *lines = reply[pos:end].decode("latin-1").split("\r\n")
        fields = [tuple(line.split(": ", 1)) for line in lines]
        dates = [value for name, value in fields if name == "Date"]
        assert len(dates) == 1 and _IMF_FIXDATE.fullmatch(dates[0])
        fields = [f for f in fields if f[0] not in ("Date", "Server")]
        status, headers, body = request.response
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        allowed = [list(headers)]
        if request.closes:
            allowed.append([*headers, ("Connection", "close")])
        assert fields in allowed
        assert reply[end + 4:end + 4 + len(body)] == body
        pos = end + 4 + len(body)
    assert pos == len(reply), reply[pos:]


def _only_response(reply: bytes) -> bytes:
    """The status line of ``reply`` once it is shown to be a single
    response that closes the connection."""
    head, sep, body = reply.partition(b"\r\n\r\n")
    assert sep and b"HTTP/1.1 " not in body
    fields = dict(line.split(b": ", 1) for line in head.split(b"\r\n")[1:])
    assert fields[b"Connection"] == b"close"
    assert int(fields[b"Content-Length"]) == len(body)
    return head.split(b"\r\n")[0]


@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /" + b"a" * (65537 - len("GET / HTTP/1.1")) + b" HTTP/1.1\r\n\r\n", b"414"),
    (b"GET /rs/ HTTP/1.1\r\n" + b"".join(b"X-%d: y\r\n" % i for i in range(101)) + b"\r\n",
     b"431"),
    (b"GET /rs/ HTTP/1.1\r\nX: " + b"a" * (70000 - len("X: \r\n")) + b"\r\n\r\n", b"431"),
    (b"GARBAGE\r\n\r\n", b"400"),
    (b"GET /rs/\r\n\r\n", b"400"),
    (b"GET /rs/ HTTP/1.1 x\r\n\r\n", b"400"),
    (b"GET /rs/ HTTP/2.0\r\n\r\n", b"505"),
    (b"GET /rs/ HTTP/1.1\r\nAccept: text/html,\r\n text/turtle\r\n\r\n", b"400"),
    (b"GET /rs/ HTTP/1.1\r\nAccept : text/turtle\r\n\r\n", b"400"),
], ids=["request-line-65537", "101-field-lines", "field-line-70000", "garbage",
        "http-0.9-form", "four-words", "http-2.0", "folded-field", "space-before-colon"])
def test_wire_refusals(shared_address, request_bytes, status):
    reply = _send_chunks(shared_address, [request_bytes + b"GET /rs/ HTTP/1.1\r\n\r\n"], 0)
    assert _only_response(reply).startswith(b"HTTP/1.1 " + status + b" ")


def test_bare_lf_request_is_answered_like_its_crlf_twin(shared_address):
    request = b"GET /rs/ic/1.0/ HTTP/1.1\r\nHost: x\r\nAccept: text/turtle\r\n\r\n"
    replies = [_send_chunks(shared_address, [r], len(r))
               for r in (request, request.replace(b"\r\n", b"\n"))]
    without_date = [re.sub(rb"\r\nDate: [^\r]*", b"", r) for r in replies]
    assert without_date[0] == without_date[1]
    assert without_date[0].startswith(b"HTTP/1.1 303 ")


def test_date_is_an_imf_fixdate_in_english_names():
    # the example of RFC 9110 §5.6.7
    assert server._imf_fixdate(784111777) == "Sun, 06 Nov 1994 08:49:37 GMT"


def test_server_keeps_serving_when_accept_runs_out_of_descriptors(snapshot, monkeypatch):
    real_accept = socket.socket.accept
    failed = []

    def accept(sock):
        # every accept fails for the first 0.3 s, as when no descriptor is free
        if not failed or time.monotonic() - failed[0] < 0.3:
            failed.append(time.monotonic())
            raise OSError(errno.EMFILE, "Too many open files")
        return real_accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept)
    served = NegotiationServer(snapshot)
    thread = start_background(served)
    try:
        reply = _exchange(served.address, b"GET /rs/ic/1.0/data.ttl HTTP/1.1\r\nHost: x\r\n\r\n")
        assert thread.is_alive()
    finally:
        served.shutdown()
    assert reply.startswith(b"HTTP/1.1 200 ")
    assert len(failed) <= 3  # it waits for descriptors instead of spinning on accept


def test_client_reset_mid_response_leaves_other_connections_alone(snapshot):
    served = NegotiationServer(snapshot)
    thread = start_background(served)
    try:
        # pipelined answers that fill the socket buffers, never read, then a reset
        reset = socket.create_connection(served.address, timeout=5)
        reset.sendall(b"GET /rs/data.jsonld HTTP/1.1\r\nHost: x\r\n\r\n" * 600)
        time.sleep(0.2)
        reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        reset.close()
        conn = http.client.HTTPConnection(*served.address, timeout=5)
        for _ in range(3):
            conn.request("GET", "/rs/ic/1.0/data.ttl")
            resp = conn.getresponse()
            assert resp.status == 200 and resp.read()
        conn.close()
        assert thread.is_alive()
    finally:
        served.shutdown()


def test_live_server_survives_an_overlong_content_length(live_address):
    # more digits than int() takes: answered as a body of unknown length
    reply = _exchange(live_address, b"POST /rs/ HTTP/1.1\r\nHost: x\r\nContent-Length: "
                      + b"9" * 5000 + b"\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 405 ")
    assert b"\r\nConnection: close\r\n" in reply
    reply = _exchange(live_address, b"GET /rs/ HTTP/1.1\r\nHost: x\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 303 ")


def test_a_fault_answering_one_request_closes_only_its_connection(snapshot, monkeypatch, capsys):
    served = NegotiationServer(snapshot)
    thread = start_background(served)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(server, "handle_request", lambda *args: 1 / 0)
            assert _exchange(served.address, b"GET /rs/ HTTP/1.1\r\nHost: x\r\n\r\n") == b""
        reply = _exchange(served.address, b"GET /rs/ HTTP/1.1\r\nHost: x\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 303 ")
        assert thread.is_alive()
    finally:
        served.shutdown()
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_partial_sends_deliver_the_exact_bytes(vocabulary):
    # twelve renamed copies of each record: rs/data.jsonld takes many 16 KiB sends
    statements = {}
    for i in range(12):
        for record in vocabulary.statements.values():
            uri = dataclasses.replace(record.uri, name=f"{record.uri.name}-{i}")
            statements[build_statement_uri(uri)] = dataclasses.replace(record, uri=uri)
    big = Vocabulary(vocabulary.scheme_uri, vocabulary.title, statements)
    manifest = generate_site(big)
    body = manifest.entries["rs/data.jsonld"].content
    assert len(body) > 4 * 16384
    snap = Snapshot(manifest=manifest, vocabulary=big)

    class SlowReader:
        """A socket whose kernel buffer takes at most 16 KiB per send."""

        def __init__(self):
            self.received = bytearray()

        def send(self, data):
            n = min(len(data), 16384)
            self.received += data[:n]
            return n

    srv = NegotiationServer(snap)
    try:
        conn = server._Connection(SlowReader())
        srv._send(conn, handle_request("GET", "/rs/data.jsonld", {"Host": "x"}, snap), keep=True)
        assert isinstance(conn.out, memoryview)  # the rest is a view, not a copy
        while conn.out:
            srv._flush(conn)
    finally:
        srv.shutdown()
    head, _, sent = bytes(conn.sock.received).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert f"Content-Length: {len(body)}".encode() in head.split(b"\r\n")
    assert sent == body
