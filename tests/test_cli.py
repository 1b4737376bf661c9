import contextlib
import hashlib
import http.client
import io
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from rightsvocab import cli
from rightsvocab.cli import CliConfig, build_snapshot, main
from rightsvocab.server import NegotiationServer

from conftest import FIXTURES, mutated_fixture

VOCAB = str(FIXTURES / "vocabulary.ttl")
IC_EDU = str(FIXTURES / "ic_edu_statement.ttl")


def test_validate_fixture_ok(capsys):
    assert main(["validate", IC_EDU]) == 0
    out = capsys.readouterr().out
    assert "0 errors" in out


def test_validate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.ttl"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 0
    assert "0 statements" in capsys.readouterr().out


def test_validate_mutated_fixture_fails(tmp_path, capsys):
    text = Path(IC_EDU).read_text().replace(
        '"In Copyright - Educational Use Only"@en',
        '"In Copyright - Educational Use Only"',
    )
    bad = tmp_path / "bad.ttl"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 1
    assert "R2" in capsys.readouterr().out


def test_validate_syntax_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text("this is not turtle (")
    assert main(["validate", str(bad)]) == 2


def _deeply_nested(depth: int) -> str:
    return "<http://e.org/s> " + "<http://e.org/p> [ " * depth + "]" * depth + " .\n"


# (original, replacement, the text at the reported position)
_REJECTED_TERMS = [
    ('"Rechtenverklaringen"@nl', '"Rechtenverklaringen"@zh-Hant', "@zh-Hant"),
    ("<http://rightsstatements.org/rs/ic/1.0/> a", "<foo> a", "<foo>"),
    # the reported "[" is the 101st, followed by 299 more
    ("<http://rightsstatements.org/rs/> a", _deeply_nested(400),
     "[ " + "<http://e.org/p> [ " * 299 + "]"),
]


def test_validate_rejected_terms_exit_2_with_line_and_column(tmp_path, capsys):
    for original, replacement, reported in _REJECTED_TERMS:
        text = Path(VOCAB).read_text().replace(original, replacement, 1)
        bad = tmp_path / "bad.ttl"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 2
        at = text.index(reported)
        line = text.count("\n", 0, at) + 1
        col = at - text.rfind("\n", 0, at)
        assert f"{bad}: line {line}, col {col}: " in capsys.readouterr().err


def test_validate_missing_file_is_exit_2():
    assert main(["validate", "/no/such/file.ttl"]) == 2


def test_json_report_mode(capsys):
    assert main(["--format", "json", "validate", VOCAB]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["statements"] == 5
    assert doc["errors"] == []


def test_build_writes_six_files(tmp_path, capsys):
    assert main(["build", IC_EDU, "--out", str(tmp_path / "site")]) == 0
    assert "6 files" in capsys.readouterr().out


def _tree_checksums(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_rebuild_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["build", VOCAB, "--out", str(a)]) == 0
    assert main(["build", VOCAB, "--out", str(b)]) == 0
    assert _tree_checksums(a) == _tree_checksums(b)


# sha256 of every file that `build` writes for the fixture vocabulary. Builds
# promise byte-identical output across refactors, so any change to these
# digests is a change to the published documents and must be deliberate.
FIXTURE_SITE_SHA256 = {
    "rs/data.jsonld": "881c47e02a7c56a7f63d4b2341ff243b2bec0af5988b548efc0fa0d01c0d559c",
    "rs/data.ttl": "2df02ff482dce7e1cda0070c8fe13d3b7d66123925a67b57b70e78f417263078",
    "rs/ic/1.0/data.jsonld": "12575ac2391617df1e5a8494b90128b20b4b1142383c3f8467fa20eccfb5030b",
    "rs/ic/1.0/data.ttl": "d1d09b7393b04837cd0a59f7cb59c543cb6a088e12e58b814356519041b67e18",
    "rs/ic/1.0/index.en.html": "e21a86447626f7c05d32d660ede29e0a5a77c1cdecfd16754f49aab019ab7543",
    "rs/ic/1.0/index.nl.html": "5641907cd2f3003c203e8db7499ca0dba12aa93b31db57b212b8b91f8b914091",
    "rs/ic-edu/1.0/data.jsonld": "e99305712af2825111fc983d71db3f2222b8280ab58ff87943bc79fa8ec32a0a",
    "rs/ic-edu/1.0/data.ttl": "41a0ce2aa5e027a2a0c858836de0a30970e63abaa1352409ad318d9ca72fd2e2",
    "rs/ic-edu/1.0/index.en.html": "24bffccd1f45b356d1939398c888afba2c7937b06b7b80086a49545acc5ce722",
    "rs/ic-edu/1.0/index.nl.html": "349f226e766eba2b3230b9d18bd05d46c490e953bea06803b459ffa14e27bbdd",
    "rs/index.en.html": "11d764dabcef454c8b13d26f934ff39bb937470f060970dbb27366c76513036a",
    "rs/index.nl.html": "8d6ba25fd2264ac0221881f18e4a121cd4ea81b8e9aec3726df1d2467ec9669e",
    "rs/pd/1.0/US/data.jsonld": "c5454ca9c9123ef88955940cd9ca0ee36156126322b2e172cad74118b46348c3",
    "rs/pd/1.0/US/data.ttl": "774ba7732adc5e7010075e28f9bc23311d3ad2caa65119fb2c750da960510a5f",
    "rs/pd/1.0/US/index.en.html": "c69f6dd759cac48bf28100a8d784f7de8ba66c00649d23d11fdc901f65338965",
    "rs/pd/1.0/US/index.nl.html": "3b81f38d6bce420b815da124d1695cd72c971b74b38837ba87885522967307b8",
    "rs/pd/1.0/data.jsonld": "1066a949315c1bed659a19cc8870e8cc058241ab5f008be3141e80dca602c501",
    "rs/pd/1.0/data.ttl": "eed31f8582c1be012cb8b9ab59a83f593919242a75f2a23071d70714d3f3218a",
    "rs/pd/1.0/index.en.html": "d194556616949fbc2af4e88f40861bcaee0e8715e62b257ecf8a32fe13ff2e39",
    "rs/pd/1.0/index.nl.html": "72e25bc128887d1d3ac522b7db8e8f9c3a66e42aaa6498c86cb185763a10708c",
    "rs/pd/2.0/data.jsonld": "5805b8acdd49d99ed2bc3def61b17dbf87e00ade3f84ce80ce7e823669bde5bd",
    "rs/pd/2.0/data.ttl": "598d9ac9ced70ad128211f584857587cdaad039f74a371e639d60241b2aaf4e3",
    "rs/pd/2.0/index.en.html": "953d88c983e409f83e1401664289918c9132c571f013ef8025dcf77cac56b338",
    "rs/pd/2.0/index.nl.html": "ec389ad6d80fd58d05d275fd08bd91cb41b9987e02816a058c5a91ac3343cf40",
}


def test_fixture_site_matches_pinned_digests(tmp_path):
    assert main(["build", VOCAB, "--out", str(tmp_path / "site")]) == 0
    assert _tree_checksums(tmp_path / "site") == FIXTURE_SITE_SHA256


def test_build_unwritable_out_dir_is_exit_2(tmp_path, capsys):
    # a regular file where a directory is needed makes the tree unwritable
    blocked = tmp_path / "blocked"
    blocked.write_text("in the way")
    assert main(["build", VOCAB, "--out", str(blocked / "site")]) == 2


@pytest.mark.parametrize("argv", [
    ["--base", "", "validate", VOCAB],
    ["--base", "foo", "validate", VOCAB],
    ["--base", "http://example.org/a b", "validate", VOCAB],
    ["--base", "http://[x", "validate", VOCAB],
    ["serve", VOCAB, "--port", "99999"],
], ids=["empty-base", "base-without-scheme", "base-with-space", "base-bad-ipv6", "port-out-of-range"])
def test_odd_flags_exit_2_with_one_error_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_importing_the_cli_leaves_the_stdlib_http_stack_unloaded():
    # the front end is selectors and sockets; these cost serve's start-up time and memory
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, rightsvocab.cli; print(' '.join(sys.modules))"
    loaded = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            check=True, env=dict(os.environ, PYTHONPATH=str(src))).stdout.split()
    assert {"http.server", "http.client", "email", "socketserver", "asyncio"}.isdisjoint(loaded)


def test_out_of_range_port_is_refused_before_the_build(monkeypatch, capsys):
    def build_anyway(*args, **kwargs):
        raise AssertionError("serve built the site for a port it cannot bind")

    monkeypatch.setattr(cli, "build_snapshot", build_anyway)
    for port in ("99999", "65536", "-1"):
        assert main(["serve", VOCAB, "--port", port]) == 2
        assert capsys.readouterr().err == f"error: --port {port}: not in 0-65535\n"


def test_diff_identical_files(capsys):
    assert main(["diff", VOCAB, VOCAB]) == 0


def test_diff_definition_edit(tmp_path, capsys):
    text = Path(VOCAB).read_text().replace(
        '"This digital object is free of known copyright restrictions."@en',
        '"Totally rewritten definition."@en',
    )
    new = tmp_path / "new.ttl"
    new.write_text(text)
    assert main(["diff", VOCAB, str(new)]) == 1
    assert "skos:definition" in capsys.readouterr().out
    assert main(["--format", "json", "diff", VOCAB, str(new), "--allow-editorial"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == [] and doc["infos"]


def test_diff_invalid_input_is_exit_2(tmp_path):
    bad = tmp_path / "bad.ttl"
    bad.write_text("not turtle (")
    assert main(["diff", VOCAB, str(bad)]) == 2


def test_check_paper_objects(capsys):
    assert main(["check", str(FIXTURES / "objects_dpla.ttl"), "--vocab", VOCAB]) == 0
    out = capsys.readouterr().out
    assert "RESOLVED:1" in out and "FREE_TEXT:1" in out


def test_check_unknown_reference_fails(tmp_path, capsys):
    obj = tmp_path / "obj.ttl"
    obj.write_text(
        "@prefix edm: <http://www.europeana.eu/schemas/edm/> .\n"
        "<http://x.org/1> edm:rights <http://rightsstatements.org/rs/ghost/1.0/> .\n"
    )
    assert main(["check", str(obj), "--vocab", VOCAB]) == 1
    assert "UNKNOWN" in capsys.readouterr().out


def test_check_unsplittable_reference_is_external(tmp_path, capsys):
    obj = tmp_path / "obj.ttl"
    obj.write_text(
        "@prefix edm: <http://www.europeana.eu/schemas/edm/> .\n"
        "<http://e.org/o> edm:rights <http://[rightsstatements.org/rs/ic/1.0/> .\n"
    )
    assert main(["check", str(obj), "--vocab", VOCAB]) == 0
    assert "EXTERNAL:1" in capsys.readouterr().out


def test_serve_from_vocab_snapshot_end_to_end():
    snapshot = build_snapshot(VOCAB, CliConfig())
    server = NegotiationServer(snapshot)
    server.start_background()
    try:
        host, port = server.address
        conn = http.client.HTTPConnection(host, port)
        conn.request("GET", "/rs/ic-edu/1.0/", headers={"Accept": "text/turtle"})
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 303
        conn.request("HEAD", "/rs/ic-edu/1.0/data.ttl")
        resp = conn.getresponse()
        assert resp.status == 200 and resp.read() == b""
        conn.request("GET", "/nothing/here")
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 404
    finally:
        server.shutdown()


def _binds(host: str) -> bool:
    try:
        with socket.create_server((host, 0), family=socket.AF_INET6 if ":" in host else socket.AF_INET):
            return True
    except OSError:
        return False


@pytest.mark.parametrize("host, shown", [
    ("127.0.0.1", "127.0.0.1"),
    pytest.param("::1", "[::1]", marks=pytest.mark.skipif(not _binds("::1"), reason="::1 cannot be bound")),
])
def test_serve_binds_the_family_of_its_host(host, shown):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen([sys.executable, "-m", "rightsvocab.cli", "serve", VOCAB, "--host", host, "--port", "0"],
                            stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    try:
        line = proc.stderr.readline()
        m = re.fullmatch(rf"serving on http://{re.escape(shown)}:(\d+)/\n", line)
        assert m, line
        conn = http.client.HTTPConnection(host, int(m[1]), timeout=5)
        conn.request("GET", "/rs/ic-edu/1.0/", headers={"Accept": "text/turtle"})
        resp = conn.getresponse()
        resp.read()
        conn.close()
        assert (resp.status, resp.getheader("Location")) == (303, "/rs/ic-edu/1.0/data.ttl")
    finally:
        proc.terminate()
        proc.wait(timeout=5)
        proc.stderr.close()


def test_serve_from_prebuilt_directory(tmp_path):
    out = tmp_path / "site"
    assert main(["build", VOCAB, "--out", str(out)]) == 0
    snapshot = build_snapshot(str(out), CliConfig())
    assert len(snapshot.vocabulary.statements) == 5
    server = NegotiationServer(snapshot)
    server.start_background()
    try:
        host, port = server.address
        conn = http.client.HTTPConnection(host, port)
        conn.request("GET", "/rs/pd/2.0/", headers={"Accept": "application/ld+json"})
        resp = conn.getresponse()
        resp.read()
        assert resp.getheader("Location") == "/rs/pd/2.0/data.jsonld"
    finally:
        server.shutdown()


def _built_site(tmp_path) -> Path:
    site = tmp_path / "site"
    assert main(["build", VOCAB, "--out", str(site)]) == 0
    return site


def _serve_refuses(site: Path, capsys, monkeypatch) -> str:
    def serve_anyway(*args, **kwargs):
        raise AssertionError(f"serve {site} started a server")

    monkeypatch.setattr(cli, "NegotiationServer", serve_anyway)
    capsys.readouterr()
    assert main(["serve", str(site), "--port", "0"]) == 2
    return capsys.readouterr().err


def test_serve_directory_matches_serve_vocab(tmp_path):
    site = _built_site(tmp_path)
    assert build_snapshot(str(site), CliConfig()) == build_snapshot(VOCAB, CliConfig())


def _without_pd_1(tmp_path) -> str:
    path = tmp_path / "without-pd-1.ttl"
    path.write_text(re.sub(
        r"<http://rightsstatements.org/rs/pd/1.0/> a .*?\.\n\n", "",
        Path(VOCAB).read_text(), flags=re.S,
    ))
    return str(path)


def test_in_place_rebuild_removes_dropped_statement(tmp_path):
    site = _built_site(tmp_path)
    smaller = _without_pd_1(tmp_path)
    assert main(["build", smaller, "--out", str(site)]) == 0
    assert build_snapshot(str(site), CliConfig()) == build_snapshot(smaller, CliConfig())


def test_rebuild_keeps_files_outside_rs(tmp_path):
    site = _built_site(tmp_path)
    (site / "assets").mkdir()
    (site / "assets" / "style.css").write_text("body {}\n")
    (site / "README.txt").write_text("notes\n")
    assert main(["build", _without_pd_1(tmp_path), "--out", str(site)]) == 0
    assert (site / "assets" / "style.css").read_text() == "body {}\n"
    assert (site / "README.txt").read_text() == "notes\n"


def test_serve_refuses_file_planted_in_rs(tmp_path, capsys, monkeypatch):
    site = _built_site(tmp_path)
    (site / "rs" / "pd" / "1.0" / "notes.txt").write_text("planted\n")
    assert _serve_refuses(site, capsys, monkeypatch).splitlines()[1:] == [
        "  extra rs/pd/1.0/notes.txt"
    ]


def test_serve_refuses_edited_page(tmp_path, capsys, monkeypatch):
    site = _built_site(tmp_path)
    page = site / "rs" / "ic" / "1.0" / "index.nl.html"
    page.write_text(page.read_text().replace("<body>", "<body><p>edited</p>"))
    assert "changed rs/ic/1.0/index.nl.html" in _serve_refuses(site, capsys, monkeypatch)


def test_serve_refuses_malformed_vocabulary(tmp_path, capsys, monkeypatch):
    site = _built_site(tmp_path)
    (site / "rs" / "data.ttl").write_text("this is not turtle (")
    assert str(site / "rs" / "data.ttl") in _serve_refuses(site, capsys, monkeypatch)


def test_serve_refuses_missing_vocabulary(tmp_path, capsys, monkeypatch):
    site = _built_site(tmp_path)
    (site / "rs" / "data.ttl").unlink()
    assert str(site / "rs" / "data.ttl") in _serve_refuses(site, capsys, monkeypatch)


def test_serve_refuses_invalid_vocabulary(tmp_path, capsys, monkeypatch):
    site = _built_site(tmp_path)
    data = site / "rs" / "data.ttl"
    data.write_text(data.read_text().replace(
        '"In Copyright - Educational Use Only"@en',
        '"In Copyright - Educational Use Only"',
    ))
    assert f"{data} failed validation" in _serve_refuses(site, capsys, monkeypatch)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_fixture())
def test_cli_is_total_over_mutated_fixture(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vocab.ttl"
        path.write_text(text, encoding="utf-8")
        for argv in (
            ["validate", str(path)],
            ["build", str(path), "--out", str(Path(tmp) / "site")],
            ["check", str(path), "--vocab", VOCAB],
        ):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)
