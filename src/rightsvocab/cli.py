"""Command-line pipeline: validate, build, diff, serve, check.

Exit codes: 0 success, 1 domain failure (validation, diff or reference
check), 2 environmental failure (I/O, syntax, bind).  Reports go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from urllib.parse import urlsplit

from .model import HTML_TEXT, Iri
from .site import SiteManifest, generate_site, write_manifest
from .server import NegotiationServer, Snapshot
from .turtle import TurtleSyntaxError, parse_turtle
from .uris import NamespaceConfig
from .vocab import (
    ValidationReport,
    Vocabulary,
    check_object_references,
    diff_versions,
    load_vocabulary,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_ENV = 2


@dataclasses.dataclass
class CliConfig:
    base: str = "http://rightsstatements.org"
    report_format: str = "text"

    def __post_init__(self):
        # every command builds URIs on the base: refuse a bad one before any runs
        try:
            Iri(self.namespace().scheme_uri())
            urlsplit(self.base)
            if not HTML_TEXT.fullmatch(self.base):
                raise ValueError("holds a code point HTML forbids")
        except ValueError as exc:
            raise ValueError(f"--base {self.base!r}: {exc}") from None

    def namespace(self) -> NamespaceConfig:
        return NamespaceConfig(base=self.base)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_graph(path: str):
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_ENV)
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8: {exc}", EXIT_ENV)
    try:
        return parse_turtle(text)
    except TurtleSyntaxError as exc:
        raise CliError(f"{path}: {exc}", EXIT_ENV)


def _load(path: str, cfg: CliConfig) -> tuple[Vocabulary, ValidationReport]:
    return load_vocabulary(_read_graph(path), cfg.namespace())


def _emit(cfg: CliConfig, payload: dict, text_lines: list[str]) -> None:
    if cfg.report_format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def run_validate(path: str, cfg: CliConfig) -> int:
    vocab, report = _load(path, cfg)
    payload = {
        "statements": len(vocab.statements),
        "errors": [{"rule": r, "subject": s, "message": m} for r, s, m in report.errors],
        "warnings": [{"rule": r, "subject": s, "message": m} for r, s, m in report.warnings],
    }
    lines = [f"{len(vocab.statements)} statements, "
             f"{len(report.errors)} errors, {len(report.warnings)} warnings"]
    lines += [f"ERROR {r} [{s}] {m}" for r, s, m in report.errors]
    lines += [f"WARN  {r} [{s}] {m}" for r, s, m in report.warnings]
    _emit(cfg, payload, lines)
    return EXIT_OK if report.accepted else EXIT_DOMAIN


def run_build(path: str, out_dir: str, cfg: CliConfig) -> int:
    vocab, report = _load(path, cfg)
    if not report.accepted:
        for r, s, m in report.errors:
            print(f"ERROR {r} [{s}] {m}", file=sys.stderr)
        return EXIT_DOMAIN
    manifest = generate_site(vocab, cfg.namespace())
    try:
        count = write_manifest(manifest, Path(out_dir))
    except OSError as exc:
        raise CliError(f"cannot write {out_dir}: {exc}", EXIT_ENV)
    _emit(cfg, {"files": count, "out": out_dir}, [f"{count} files written to {out_dir}"])
    return EXIT_OK


def run_diff(old_path: str, new_path: str, allow_editorial: bool, cfg: CliConfig) -> int:
    vocabs = []
    for path in (old_path, new_path):
        vocab, report = _load(path, cfg)
        if not report.accepted:
            raise CliError(f"{path} failed validation", EXIT_ENV)
        vocabs.append(vocab)
    diff = diff_versions(vocabs[0], vocabs[1], allow_editorial=allow_editorial)
    payload = {
        "violations": [
            {"statement": n, "property": p, "old": o, "new": w}
            for n, p, o, w in diff.violations
        ],
        "infos": diff.infos,
    }
    lines = [f"{len(diff.violations)} violations, {len(diff.infos)} infos"]
    lines += [
        f"VIOLATION {n} {p}: {o!r} -> {w!r}" for n, p, o, w in diff.violations
    ]
    lines += [f"INFO {msg}" for msg in diff.infos]
    _emit(cfg, payload, lines)
    return EXIT_OK if diff.passed else EXIT_DOMAIN


def run_check(objects_path: str, vocab_path: str, cfg: CliConfig) -> int:
    objects = _read_graph(objects_path)
    vocab, report = _load(vocab_path, cfg)
    if not report.accepted:
        raise CliError(f"{vocab_path} failed validation", EXIT_ENV)
    result = check_object_references(objects, vocab, cfg.namespace())
    counts = result.counts()
    payload = {
        "counts": counts,
        "references": [dataclasses.asdict(e) for e in result.entries],
    }
    lines = [" ".join(f"{k}:{v}" for k, v in sorted(counts.items()))]
    lines += [f"{e.classification} {e.predicate} {e.value}" for e in result.entries]
    _emit(cfg, payload, lines)
    return EXIT_OK if result.passed else EXIT_DOMAIN


def build_snapshot(path: str, cfg: CliConfig) -> Snapshot:
    """Generate the served tree from a vocabulary file or from a built
    site's ``rs/data.ttl``; a site's ``rs/`` must hold exactly that tree."""
    site_dir = Path(path) if Path(path).is_dir() else None
    vocab_path = str(site_dir / "rs" / "data.ttl") if site_dir else path
    vocab, report = _load(vocab_path, cfg)
    if not report.accepted:
        raise CliError(f"{vocab_path} failed validation", EXIT_ENV)
    manifest = generate_site(vocab, cfg.namespace())
    if site_dir:
        _check_tree(site_dir, manifest)
    return Snapshot(manifest=manifest, vocabulary=vocab, cfg=cfg.namespace())


def _check_tree(site_dir: Path, manifest: SiteManifest) -> None:
    expected = manifest.entries
    try:
        found = {
            p.relative_to(site_dir).as_posix(): p
            for p in (site_dir / "rs").rglob("*") if p.is_file()  # build owns only rs/
        }
        drift = [f"missing {rel}" for rel in sorted(expected.keys() - found.keys())]
        drift += [f"extra {rel}" for rel in sorted(found.keys() - expected.keys())]
        drift += [
            f"changed {rel}" for rel in sorted(expected.keys() & found.keys())
            if found[rel].read_bytes() != expected[rel].content
        ]
    except OSError as exc:
        raise CliError(f"cannot read {site_dir}: {exc}", EXIT_ENV)
    if drift:
        raise CliError(
            f"{site_dir} differs from the site its rs/data.ttl generates:\n  "
            + "\n  ".join(drift),
            EXIT_ENV,
        )


def run_serve(path: str, host: str, port: int, cfg: CliConfig) -> int:
    if not 0 <= port <= 65535:
        raise CliError(f"--port {port}: not in 0-65535", EXIT_ENV)
    try:  # bound before the build, so that a port in use is reported at once
        server = NegotiationServer(None, host=host, port=port)
    except OSError as exc:
        raise CliError(f"cannot bind {host}:{port}: {exc}", EXIT_ENV)
    try:
        server.snapshot = build_snapshot(path, cfg)
    except BaseException:
        server.shutdown()  # frees the port
        raise
    bound_host, bound_port = server.address
    shown = f"[{bound_host}]" if ":" in bound_host else bound_host  # IPv6 goes in brackets
    print(f"serving on http://{shown}:{bound_port}/", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rightsvocab",
        description="Validate, publish and serve a rights statement vocabulary.",
    )
    parser.add_argument("--base", default="http://rightsstatements.org",
                        help="namespace base IRI")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a vocabulary file")
    p.add_argument("vocab")

    p = sub.add_parser("build", help="generate the static site")
    p.add_argument("vocab")
    p.add_argument("--out", required=True)

    p = sub.add_parser("diff", help="compare two vocabulary files")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--allow-editorial", action="store_true")

    p = sub.add_parser("serve", help="serve a site directory or vocabulary file")
    p.add_argument("path")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)

    p = sub.add_parser("check", help="classify rights references in object metadata")
    p.add_argument("objects")
    p.add_argument("--vocab", required=True)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = CliConfig(base=args.base, report_format=args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENV
    try:
        if args.command == "validate":
            return run_validate(args.vocab, cfg)
        if args.command == "build":
            return run_build(args.vocab, args.out, cfg)
        if args.command == "diff":
            return run_diff(args.old, args.new, args.allow_editorial, cfg)
        if args.command == "serve":
            return run_serve(args.path, args.host, args.port, cfg)
        if args.command == "check":
            return run_check(args.objects, args.vocab, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return EXIT_ENV


if __name__ == "__main__":
    sys.exit(main())
