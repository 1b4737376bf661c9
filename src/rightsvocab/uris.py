"""rightsstatements.org URI parsing and building.

URIs follow ``{base}/rs/{name}/{version}/[{JUR}/][(from|until)/{date}/]``.
Parsed components are routing keys only and are never re-emitted as
metadata assertions.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import Optional
from urllib.parse import urlsplit

NAME_RE = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")
VERSION_RE = re.compile(r"^[0-9]+(\.[0-9]+)+$")
JURISDICTION_RE = re.compile(r"^[A-Z]{2}$")
DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class UriError(ValueError):
    pass


class NotInNamespaceError(UriError):
    pass


class MalformedUriError(UriError):
    def __init__(self, component: str, reason: str):
        super().__init__(f"bad {component}: {reason}")


@dataclass(frozen=True)
class Validity:
    kind: str  # "from" or "until"
    date: str  # YYYY-MM-DD

    def __post_init__(self):
        if self.kind not in ("from", "until"):
            raise MalformedUriError("validity", f"unknown qualifier {self.kind!r}")
        if not DATE_RE.match(self.date):
            raise MalformedUriError("validity", f"date {self.date!r} is not YYYY-MM-DD")
        try:
            datetime.date.fromisoformat(self.date)
        except ValueError as exc:
            raise MalformedUriError("validity", str(exc)) from None


@dataclass(frozen=True)
class StatementUri:
    name: str
    version: str
    jurisdiction: Optional[str] = None
    validity: Optional[Validity] = None

    def __post_init__(self):
        if not NAME_RE.match(self.name):
            raise MalformedUriError("name", f"{self.name!r}")
        if not VERSION_RE.match(self.version):
            raise MalformedUriError("version", f"{self.version!r}")
        if self.jurisdiction is not None and not JURISDICTION_RE.match(self.jurisdiction):
            raise MalformedUriError("jurisdiction", f"{self.jurisdiction!r}")

    def without_validity(self) -> "StatementUri":
        if self.validity is None:
            return self
        return StatementUri(self.name, self.version, self.jurisdiction)


@dataclass(frozen=True)
class NamespaceConfig:
    base: str = "http://rightsstatements.org"

    def __post_init__(self):
        object.__setattr__(self, "base", self.base.rstrip("/"))

    def scheme_uri(self) -> str:
        return f"{self.base}/rs/"


DEFAULT_CONFIG = NamespaceConfig()


def split_statement_path(uri: str, cfg: NamespaceConfig = DEFAULT_CONFIG) -> list[str]:
    """Return the path segments after ``rs``, or raise."""
    try:
        parts = urlsplit(uri)
    except ValueError as exc:  # such as "Invalid IPv6 URL" for http://[...
        raise NotInNamespaceError(str(exc)) from None
    base = urlsplit(cfg.base)
    if parts.scheme not in ("http", "https", ""):
        raise NotInNamespaceError(f"unsupported scheme {parts.scheme!r}")
    if parts.netloc and parts.netloc != base.netloc:
        raise NotInNamespaceError(f"host {parts.netloc!r} is not {base.netloc!r}")
    segments = [s for s in parts.path.split("/") if s]
    base_segments = [s for s in base.path.split("/") if s]
    if segments[: len(base_segments)] != base_segments:
        raise NotInNamespaceError(f"path does not start under {cfg.base!r}")
    segments = segments[len(base_segments):]
    if not segments or segments[0] != "rs":
        raise NotInNamespaceError("path does not start with /rs/")
    return segments[1:]


def parse_statement_uri(uri: str, cfg: NamespaceConfig = DEFAULT_CONFIG) -> StatementUri:
    segments = split_statement_path(uri, cfg)
    if len(segments) < 2:
        raise MalformedUriError("path", "expected at least /name/version/")
    name, version = segments[0], segments[1]
    rest = segments[2:]
    jurisdiction = None
    if rest and JURISDICTION_RE.match(rest[0]):
        jurisdiction = rest[0]
        rest = rest[1:]
    validity = None
    if rest and rest[0] in ("from", "until"):
        if len(rest) != 2:
            raise MalformedUriError("validity", "expected /from|until/DATE/")
        validity = Validity(rest[0], rest[1])
        rest = []
    if rest:
        raise MalformedUriError("path", f"unexpected trailing segments {rest!r}")
    return StatementUri(name, version, jurisdiction, validity)


def build_statement_uri(s: StatementUri, cfg: NamespaceConfig = DEFAULT_CONFIG) -> str:
    segments = ["rs", s.name, s.version]
    if s.jurisdiction:
        segments.append(s.jurisdiction)
    if s.validity:
        segments.extend([s.validity.kind, s.validity.date])
    return cfg.base + "/" + "/".join(segments) + "/"
