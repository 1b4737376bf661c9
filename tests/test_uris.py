import pytest
from hypothesis import given
from hypothesis import strategies as st

from rightsvocab import (
    NamespaceConfig,
    StatementUri,
    Validity,
    build_statement_uri,
    parse_statement_uri,
)
from rightsvocab.uris import MalformedUriError, NotInNamespaceError

CFG = NamespaceConfig()


def normalize_uri(uri: str) -> str:
    return build_statement_uri(parse_statement_uri(uri))


names = st.from_regex(r"[a-z0-9]{1,8}(-[a-z0-9]{1,8}){0,2}", fullmatch=True)
versions = st.from_regex(r"[0-9]{1,2}(\.[0-9]{1,2}){1,2}", fullmatch=True)
jurisdictions = st.one_of(st.none(), st.from_regex(r"[A-Z]{2}", fullmatch=True))
validities = st.one_of(
    st.none(),
    st.builds(
        Validity,
        st.sampled_from(["from", "until"]),
        st.dates().map(lambda d: d.isoformat()),
    ),
)
statement_uris = st.builds(StatementUri, names, versions, jurisdictions, validities)


def test_paper_jurisdiction_example():
    s = parse_statement_uri(
        "http://rightsstatements.org/rs/ic-donor-restrictions/1.0/US/"
    )
    assert s == StatementUri("ic-donor-restrictions", "1.0", "US")


def test_paper_validity_example():
    s = parse_statement_uri("http://rightsstatements.org/rs/pd/1.0/US/from/2025-05-02/")
    assert s.validity == Validity("from", "2025-05-02")
    assert s.without_validity() == StatementUri("pd", "1.0", "US")


def test_slashless_dpla_form():
    s = parse_statement_uri("http://rightsstatements.org/rs/ic-edu/1.0")
    assert s == StatementUri("ic-edu", "1.0")


def test_build_canonical_forms():
    assert build_statement_uri(StatementUri("ic-donor-restrictions", "1.0", "US")) == \
        "http://rightsstatements.org/rs/ic-donor-restrictions/1.0/US/"
    assert build_statement_uri(StatementUri("ic", "1.0")) == \
        "http://rightsstatements.org/rs/ic/1.0/"


def test_normalize_adds_trailing_slash():
    assert normalize_uri("http://rightsstatements.org/rs/ic-edu/1.0") == \
        "http://rightsstatements.org/rs/ic-edu/1.0/"


def test_normalize_https_to_canonical_scheme():
    assert normalize_uri("https://rightsstatements.org/rs/ic/1.0/") == \
        "http://rightsstatements.org/rs/ic/1.0/"


@given(statement_uris)
def test_parse_build_identity(s):
    assert parse_statement_uri(build_statement_uri(s)) == s


@given(statement_uris)
def test_normalize_idempotent(s):
    uri = build_statement_uri(s)
    assert normalize_uri(uri) == uri
    assert normalize_uri(normalize_uri(uri)) == normalize_uri(uri)


def test_foreign_host_rejected():
    with pytest.raises(NotInNamespaceError):
        parse_statement_uri("http://example.org/rs/ic/1.0/")


def test_unsplittable_uri_is_not_in_namespace():
    # urlsplit raises ValueError("Invalid IPv6 URL") for this host
    with pytest.raises(NotInNamespaceError):
        parse_statement_uri("http://[rightsstatements.org/rs/ic/1.0/")


def test_wrong_segment_rejected():
    with pytest.raises(NotInNamespaceError):
        parse_statement_uri("http://rightsstatements.org/page/ic/1.0/")


@pytest.mark.parametrize("uri,component", [
    ("http://rightsstatements.org/rs/IC/1.0/", "name"),
    ("http://rightsstatements.org/rs/ic/vv/", "version"),
    ("http://rightsstatements.org/rs/ic/1.0/US/from/2025-13-40/", "validity"),
    ("http://rightsstatements.org/rs/ic/1.0/US/sometime/2025-05-02/", "path"),
    ("http://rightsstatements.org/rs/ic/", "path"),
])
def test_malformed_components(uri, component):
    with pytest.raises(MalformedUriError, match=f"^bad {component}: "):
        parse_statement_uri(uri)


def test_invalid_statement_uri_fields():
    with pytest.raises(MalformedUriError):
        StatementUri("Bad Name", "1.0")
    with pytest.raises(MalformedUriError):
        StatementUri("ic", "1")
    with pytest.raises(MalformedUriError):
        StatementUri("ic", "1.0", "usa")
    with pytest.raises(MalformedUriError):
        Validity("from", "2025-02-30")


def test_fields_with_a_final_newline_are_refused():
    # "$" matches before a final newline; each field must match as a whole
    for fields in (("ic\n", "1.0"), ("ic", "1.0\n"), ("ic", "1.0", "US\n")):
        with pytest.raises(MalformedUriError):
            StatementUri(*fields)
    with pytest.raises(MalformedUriError):
        Validity("from", "2015-05-02\n")


def test_custom_base():
    cfg = NamespaceConfig(base="http://vocab.example.net/")
    uri = build_statement_uri(StatementUri("ic", "1.0"), cfg)
    assert uri == "http://vocab.example.net/rs/ic/1.0/"
    assert parse_statement_uri(uri, cfg) == StatementUri("ic", "1.0")
