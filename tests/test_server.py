import http.client
import socket
import statistics
import time
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rightsvocab import (
    LanguageRange,
    MediaRange,
    NegotiationServer,
    Snapshot,
    handle_request,
    parse_accept,
    parse_accept_language,
)
from rightsvocab import server
from rightsvocab.server import select_language, select_media_type
from rightsvocab.site import statement_dir


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


@pytest.fixture
def live_address(snapshot):
    server = NegotiationServer(snapshot)
    server.start_background()
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


def test_live_server_closes_stalled_requests(snapshot):
    server = NegotiationServer(snapshot)
    assert server.httpd.RequestHandlerClass.timeout is not None
    server.httpd.RequestHandlerClass.timeout = 0.5
    server.start_background()
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


def test_live_server_round_trip(snapshot):
    server = NegotiationServer(snapshot)
    server.start_background()
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
