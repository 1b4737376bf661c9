"""Tests for the benchmark's own helpers: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import vocabgen  # noqa: E402
from rightsvocab.turtle import parse_turtle  # noqa: E402
from rightsvocab.vocab import load_vocabulary  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "vocabulary.ttl"


def _generate(kind, seed):
    if kind == "stress":
        return vocabgen.stress(seed, FIXTURE, 40)
    return vocabgen.realistic(seed, FIXTURE)


@pytest.mark.parametrize("kind", ["stress", "realistic"])
def test_generator_is_deterministic_per_seed(kind):
    one, two, other = _generate(kind, 7), _generate(kind, 7), _generate(kind, 8)
    assert one.turtle == two.turtle
    assert one.statements == two.statements
    assert one.turtle != other.turtle


@pytest.mark.parametrize("kind", ["stress", "realistic"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_vocabulary_loads_without_errors(kind, seed):
    vocab = _generate(kind, seed)
    loaded, report = load_vocabulary(parse_turtle(vocab.turtle))
    assert report.errors == []
    assert len(loaded.statements) == len(vocab.statements)


@pytest.mark.parametrize("kind", ["stress", "realistic"])
def test_generated_vocabulary_has_the_required_shape(kind):
    vocab = _generate(kind, 3)
    st = vocab.statements
    assert 0 < sum(s.purpose is not None for s in st) < len(st)
    assert any(s.jurisdiction for s in st)
    versions = {}
    for s in st:
        versions.setdefault(s.name, set()).add(s.version)
    assert max(len(v) for v in versions.values()) >= 2
    texts = [t for s in st for t in s.definitions.values()]
    lengths = sorted(len(t.split()) for t in texts)
    assert lengths[0] < 15 and lengths[-1] > 150
    assert any(not t.isascii() for t in texts)
    assert FIXTURE.read_text(encoding="utf-8").count("@prefix") == vocab.turtle.count("@prefix")


def test_generator_shape_does_not_depend_on_seed():
    sizes = {len(parse_turtle(vocabgen.stress(seed, FIXTURE, 40).turtle)) for seed in range(4)}
    assert len(sizes) == 1


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert stats.percentile(values, 99) == 990
    assert stats.percentile(values[:999], 99) is None
    assert stats.percentile(values[:20], 50) == 10
    assert stats.percentile(values[:19], 50) is None
    assert stats.percentile([], 99) is None


def _span(name, start, end, parent, scope="build-0"):
    return spans.Span(name, start, end, parent, scope)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("cli.build", 0.0, 10.0, -1),
        _span("vocab.load", 1.0, 3.0, 0),
        _span("model.objects", 2.0, 5.0, 0),  # overlaps its sibling
        _span("model.objects", 1.5, 2.5, 1),
        _span("site.write", 7.0, 12.0, 0),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.0, 3.0, 1.0, 5.0])
    by_layer = spans.self_time_by_layer(tree)
    assert by_layer == pytest.approx({"cli": 3.0, "vocab": 1.0, "model": 4.0, "site": 5.0})
    only_model = spans.self_time_by_layer(tree, lambda s: s.layer == "model")
    assert only_model == pytest.approx({"model": 4.0})


def test_tracer_records_nesting_and_restores_the_program():
    from rightsvocab import cli
    from rightsvocab.model import Graph

    original = Graph.objects
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.scope = "build-0"
        assert Graph.objects is not original
        cli._load(str(FIXTURE), cli.CliConfig())
    assert Graph.objects is original
    names = [s.name for s in tracer.spans]
    assert names.count("vocab.load") == 1 and names.count("turtle.parse") == 1
    load = names.index("vocab.load")
    assert all(s.parent == load for s in tracer.spans if s.name == "model.objects")
    assert {s.scope for s in tracer.spans} == {"build-0"}


@pytest.mark.parametrize("header, expected", [
    (None, {"en"}), ("en", {"en"}), ("nl", {"nl"}), ("nl;q=0, en;q=0.5", {"en"}),
    ("xx", {"en"}), ("NL-be", {"nl"}), ("*", {"en", "nl"}), ("de, *;q=0.1", {"en", "nl"}),
    ("nl;q=0, *", {"en"}),
])
def test_expected_languages_follow_the_contract(header, expected):
    assert checks.expected_languages(header, ["en", "nl"]) == expected


def test_expected_locations_choose_the_document_family():
    langs = ("en", "nl")
    assert checks.expected_locations("rs/pd/1.0/", "text/turtle", None, langs) == {
        "/rs/pd/1.0/data.ttl"}
    assert checks.expected_locations("rs/pd/1.0/", "application/pdf", "nl", langs) == {
        "/rs/pd/1.0/index.nl.html"}
