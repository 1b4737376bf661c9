#!/usr/bin/env python3
"""rightsvocab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` it measures the end-to-end metrics with no
tracing; with ``--trace 1`` it makes the separate traced run that gives
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Socket traffic crosses loopback only.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import httpclient
import spans
import stats
import vocabgen
from traffic import Traffic

ROOT = Path.cwd()
FIXTURE = ROOT / "tests" / "fixtures" / "vocabulary.ttl"
WORK = ROOT / ".bench_work"

STRESS_STATEMENTS = 200
SETUP_REPEATS = 11  # set-ups per run (input preparations or server starts); setup_s is their median
MIN_BUILDS = 3  # builds per run even when one build outlasts --seconds
REBUILD_SLICES = 8  # an in-place rebuild first deletes one slice of this many of its files
SERVE_KINDS = (303, 200, 404)  # response statuses the crawl reports apart
CONNECTIONS = 2  # one keep-alive connection per core of the reference machine
SERVER_START_TIMEOUT_S = 120.0

WORKLOADS = ("build-stress", "build-multilingual", "serve-crawl")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Run:
    """Counts, failures and report lines of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.lines: list[str] = []
        self.metrics: dict[str, dict] = {}

    def fail(self, problems) -> None:
        """Record one operation's problems; any problem fails it."""
        if problems:
            self.failed += 1
            self.failures += problems

    def report(self, name: str, value, unit: str, samples=None, result=False) -> None:
        """Print a metric line; ``result`` also puts it in the JSON line."""
        if value is None:
            self.lines.append(f"{name:<34} n/a {unit} (n={samples}; too few samples)")
            return
        count = "" if samples is None else f" (n={samples})"
        self.lines.append(f"{name:<34} {value:.6g} {unit}{count}")
        if result:
            self.metrics[name] = {"value": value, "unit": unit}


# --- input ----------------------------------------------------------------

def generate(workload: str, seed: int) -> vocabgen.GeneratedVocabulary:
    if workload == "build-stress":
        return vocabgen.stress(seed, FIXTURE, STRESS_STATEMENTS)
    return vocabgen.realistic(seed, FIXTURE)


def write_input(run: Run, times: dict[str, list] | None = None):
    """Generate the workload's vocabulary, write it and parse it back.

    With ``times``, append the wall time of the whole preparation to
    ``times["total"]``, of generating and writing (the benchmark's own
    work) to ``times["generate"]``, and of the program's ``parse_turtle``
    to ``times["parse"]``."""
    from rightsvocab.turtle import parse_turtle

    started = time.perf_counter()
    vocab = generate(run.workload, run.seed)
    path = run.work / "vocab.ttl"
    path.write_text(vocab.turtle, encoding="utf-8")
    written = time.perf_counter()
    graph = parse_turtle(path.read_text(encoding="utf-8"))
    if times is not None:
        ended = time.perf_counter()
        times["total"].append(ended - started)
        times["generate"].append(written - started)
        times["parse"].append(ended - written)
    return vocab, path, graph


def validate_input(vocab, graph) -> None:
    """Require that the program loads the input with zero errors."""
    from rightsvocab.vocab import load_vocabulary

    loaded, report = load_vocabulary(graph)
    if report.errors or len(loaded.statements) != len(vocab.statements):
        raise BenchError(f"generated vocabulary does not load cleanly: {report.errors[:5]}")


def prepare_input(run: Run) -> tuple[vocabgen.GeneratedVocabulary, Path]:
    vocab, path, graph = write_input(run)
    validate_input(vocab, graph)
    return vocab, path


# --- builds ---------------------------------------------------------------

def build_once(vocab_path: Path, out: Path) -> tuple[float, int | str]:
    """Time one ``rightsvocab build``; its exit code, or the exception it
    raised, is nonzero on failure."""
    from rightsvocab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        try:
            code = cli.main(["build", str(vocab_path), "--out", str(out)])
        except Exception as exc:  # a crashing build is a failed operation
            code = repr(exc)
        elapsed = time.perf_counter() - started
    return elapsed, code


def build_loop(run: Run, vocab, vocab_path: Path, seconds: float, label: str,
               before_each=None) -> list[float]:
    """Build repeatedly for ``seconds`` (at least MIN_BUILDS times).

    The first build writes a fresh tree, checked against the generator's
    records.  Later builds write a second tree, fresh for the second build
    and rebuilt in place after that as a user rebuilding a site does; each
    must be byte-identical to the first.  Before each in-place rebuild one
    of REBUILD_SLICES slices of the tree's files is deleted, in turn, so a
    file a rebuild leaves out is not hidden by an earlier build's copy.
    Deleting whole trees between builds would slow the next build's file
    creation, so both go after the loop.
    """
    times = []
    first_digest = None
    outputs = run.work / label
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_BUILDS or time.perf_counter() < deadline:
        out = outputs / ("rebuild" if times else "first")
        if len(times) >= 2 and first_digest is not None:
            for i, path in enumerate(first_digest):
                if i % REBUILD_SLICES == len(times) % REBUILD_SLICES:
                    (out / path).unlink(missing_ok=True)
        if before_each is not None:
            before_each(len(times))
        elapsed, code = build_once(vocab_path, out)
        run.attempted += 1
        times.append(elapsed)
        if code != 0:
            run.fail([f"{label} {len(times)}: rightsvocab build ended with {code}"])
            continue
        digest = checks.tree_digest(out)
        if first_digest is None:
            first_digest = digest
            run.fail([f"{label} 1: {p}" for p in checks.check_tree(out, vocab)])
        elif digest != first_digest:
            missing = sorted(first_digest.keys() - digest.keys())
            run.fail([f"{label} {len(times)}: tree differs from the first build"
                      + (f", missing {', '.join(missing)}" if missing else "")])
    shutil.rmtree(outputs, ignore_errors=True)
    return times


def run_build_workload(run: Run) -> None:
    """Build for --seconds.  The SETUP_REPEATS input preparations are spread
    over the same window as the builds, so that on a machine whose speed
    drifts setup_s and the build times sample the same stretch of it."""
    setup = {"total": [], "generate": [], "parse": []}
    vocab, vocab_path, graph = write_input(run, setup)
    validate_input(vocab, graph)
    interval = run.seconds / SETUP_REPEATS
    due = time.perf_counter() + interval

    def spread_setups(_):
        nonlocal due
        if len(setup["total"]) < SETUP_REPEATS and time.perf_counter() >= due:
            write_input(run, setup)
            due += interval

    times = build_loop(run, vocab, vocab_path, run.seconds, "build", spread_setups)
    n = len(setup["total"])
    run.report("setup_s", stats.median(setup["total"]), "s", n, result=True)
    run.report("setup_generate_s", stats.median(setup["generate"]), "s", n)
    run.report("setup_parse_s", stats.median(setup["parse"]), "s", n)
    run.report("build_s", stats.median(times), "s", len(times))
    run.report("op_p50_ms", stats.median(times) * 1000, "ms", len(times), result=True)
    run.report("ops_per_s", len(times) / sum(times), "1/s", len(times), result=True)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.report("peak_rss_mb", peak_kib / 1024, "MiB", result=True)


# --- server ---------------------------------------------------------------

def reference_site(run: Run, vocab, vocab_path: Path) -> dict[str, bytes]:
    """Build the site once and check it; its files are the expected bodies."""
    out = run.work / "reference"
    _, code = build_once(vocab_path, out)
    problems = checks.check_tree(out, vocab) if code == 0 else [f"build ended with {code}"]
    if problems:
        raise BenchError(f"reference build is wrong: {problems[:5]}")
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


class Server:
    """A child ``rightsvocab serve`` process on an ephemeral port."""

    def __init__(self, run: Run, vocab_path: Path, index: int):
        self.log = run.work / f"serve-{index}.err"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "rightsvocab.cli", "serve", str(vocab_path),
                 "--host", "127.0.0.1", "--port", "0"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                env=env, cwd=ROOT,
            )
        self.address = None

    def wait_ready(self, probe_path: str, probe_sha: str) -> None:
        """Return once the server has answered ``probe_path`` correctly."""
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while self.address is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError(f"server did not start: {self.log.read_text()[-2000:]}")
            text = self.log.read_text(encoding="utf-8", errors="replace")
            if "serving on http://" in text:
                hostport = text.split("serving on http://", 1)[1].split("/", 1)[0]
                host, port = hostport.rsplit(":", 1)
                self.address = (host, int(port))
            else:
                time.sleep(0.001)
        conn = httpclient.Connection(self.address)
        conn.open()
        try:
            conn.send(httpclient.Request("GET", probe_path))
            response = None
            while response is None:
                response = conn.receive()
        finally:
            conn.close()
        if response.status != 200 or checks.sha256(response.body) != probe_sha:
            raise BenchError(f"server answered {probe_path} with {response.status}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_server(run: Run, vocab_path: Path, index: int, probe: str, probe_sha: str):
    """A ready server and its start time, from spawn to the first correct
    response."""
    started = time.perf_counter()
    server = Server(run, vocab_path, index)
    try:
        server.wait_ready(probe, probe_sha)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def serve_segments(run: Run, vocab, vocab_path: Path, docs, traffic: Traffic,
                   seconds: float, count: int):
    """Crawl for ``seconds`` in ``count`` segments, each against a freshly
    started server, so that the timed starts are spread over the same
    window as the crawl.  Returns the start times, the crawl's wall time
    and the largest peak RSS of the servers."""
    probe = vocab.statements[0].dir + "data.ttl"
    probe_sha = checks.sha256(docs[probe])
    starts, wall, rss = [], 0.0, 0.0
    for index in range(count):
        server, started = start_server(run, vocab_path, index, "/" + probe, probe_sha)
        starts.append(started)
        try:
            wall += httpclient.closed_loop(server.address, traffic.start_job,
                                           traffic.on_response, seconds / count, CONNECTIONS)
            rss = max(rss, server.peak_rss_mb())
        finally:
            server.stop()
    run.attempted += len(traffic.jobs_done)
    for job in traffic.jobs_done:
        run.fail(job.problems)
    return starts, wall, rss


def report_serve(run: Run, traffic: Traffic, wall: float) -> None:
    """The serve metrics.  ``op_p50_ms`` is the geometric mean of the median
    latencies of the three response kinds, so that it weighs each kind
    alike whatever the shares of the (assumed) request mix."""
    ok_jobs = [j for j in traffic.jobs_done if not j.problems]
    correct_responses = sum(j.responses for j in ok_jobs)
    buckets = {"": [lat * 1000 for _, lat in traffic.responses]}
    for status in SERVE_KINDS:
        buckets[f"_{status}"] = [lat * 1000 for s, lat in traffic.responses if s == status]
    for suffix, values in buckets.items():
        run.report(f"serve{suffix}_p50_ms", stats.median(values), "ms", len(values))
        run.report(f"serve{suffix}_p99_ms", stats.percentile(values, 99), "ms", len(values))
    if not all(buckets[f"_{status}"] for status in SERVE_KINDS):
        raise BenchError("the crawl did not get every response kind")
    kind_p50 = [stats.median(buckets[f"_{status}"]) for status in SERVE_KINDS]
    run.report("op_p50_ms", statistics.geometric_mean(kind_p50), "ms",
               len(traffic.responses), result=True)
    run.report("ops_per_s", len(ok_jobs) / wall, "1/s", len(ok_jobs), result=True)
    run.report("serve_rps", correct_responses / wall, "req/s", len(traffic.responses))


def run_serve_workload(run: Run) -> None:
    vocab, vocab_path = prepare_input(run)
    docs = reference_site(run, vocab, vocab_path)
    traffic = Traffic(vocab, docs, run.seed)
    setup_times, wall, rss = serve_segments(run, vocab, vocab_path, docs, traffic,
                                            run.seconds, SETUP_REPEATS)
    run.report("setup_s", stats.median(setup_times), "s", len(setup_times), result=True)
    report_serve(run, traffic, wall)
    run.report("peak_rss_mb", rss, "MiB", result=True)


# --- traced run -----------------------------------------------------------

def run_traced(run: Run) -> None:
    """Per-layer numbers: untraced then traced builds, a traced
    build_snapshot, a socket crawl, and an in-process traced replay of the
    crawl's exact request sequence on the snapshot."""
    from rightsvocab import cli, server as server_mod

    vocab, vocab_path = prepare_input(run)
    untraced = build_loop(run, vocab, vocab_path, run.seconds / 4, "untraced")
    tracer = spans.Tracer()

    def scope(i):
        tracer.scope = f"build-{i}"

    with spans.installed(tracer):
        traced = build_loop(run, vocab, vocab_path, run.seconds / 4, "traced", scope)
        tracer.scope = "snapshot"
        snapshot = cli.build_snapshot(str(vocab_path), cli.CliConfig())
    snapshot_span = next(s for s in tracer.spans if s.name == "cli.build_snapshot")

    docs = reference_site(run, vocab, vocab_path)
    traffic = Traffic(vocab, docs, run.seed)
    serve_segments(run, vocab, vocab_path, docs, traffic, run.seconds / 2, 1)

    replay_status = []
    with spans.installed(tracer):
        for i, req in enumerate(traffic.sent):
            tracer.scope = f"req-{i}"
            headers = {"Host": "127.0.0.1", **req.headers}
            status, _, _ = server_mod.handle_request(req.method, req.path, headers, snapshot)
            replay_status.append(status)
    tracer.dump(run.work / "spans.jsonl")

    all_spans = tracer.spans
    nb, nr = len(traced), len(traffic.sent)

    def in_builds(s):
        return s.scope.startswith("build-")

    def in_replay(s):
        return s.scope.startswith("req-")

    def per_build(name):
        chosen = [s for s in all_spans if s.name == name and in_builds(s)]
        return sum(s.duration for s in chosen) / nb, len(chosen) / nb

    def replay_us(name):
        return stats.median([s.duration * 1e6 for s in all_spans
                             if s.name == name and in_replay(s)])

    for name in ("turtle.parse", "turtle.serialize", "jsonld.serialize", "model.objects",
                 "model.triples_about", "model.union", "vocab.load",
                 "site.record_to_graph", "site.render_html", "site.vocabulary_to_graph",
                 "site.generate", "site.write", "cli.build"):
        seconds, calls = per_build(name)
        run.report(f"{name}_s", seconds, "s", nb, result=True)
        if name in ("turtle.serialize", "model.objects", "model.union"):
            run.report(f"{name}_calls", calls, "count", nb, result=True)
        if name == "site.render_html":
            run.report("site.html_pages", calls, "count", nb, result=True)
    run.report("vocab.statements", len(snapshot.vocabulary.statements), "count", result=True)
    run.report("site.files", len(docs), "count", result=True)
    run.report("site.bytes", sum(len(d) for d in docs.values()), "bytes", result=True)
    run.report("cli.build_snapshot_s", snapshot_span.duration, "s", 1, result=True)

    for name, metric in (("vocab.lookup", "vocab.lookup_us"), ("uris.parse", "uris.parse_us"),
                         ("server.parse_accept", "server.parse_accept_us"),
                         ("server.parse_accept_language", "server.parse_accept_language_us"),
                         ("server.negotiate", "server.negotiate_us"),
                         ("server.handle_request", "server.handle_request_us")):
        run.report(metric, replay_us(name), "us", nr, result=True)
    parse_calls = sum(1 for s in all_spans if s.name == "uris.parse" and in_replay(s))
    run.report("uris.parse_calls", parse_calls / nr, "count", nr, result=True)

    handle = [s.duration * 1e6 for s in all_spans
              if s.name == "server.handle_request" and in_replay(s)]
    for status in SERVE_KINDS:
        wire = [lat * 1e6 for st, lat in traffic.responses if st == status]
        local = [d for d, st in zip(handle, replay_status) if st == status]
        value = None if not wire or not local else stats.median(wire) - stats.median(local)
        run.report(f"server.wire_us_{status}", value, "us", len(wire), result=True)

    build_self = spans.self_time_by_layer(all_spans, in_builds)
    for layer in ("cli", "turtle", "jsonld", "model", "vocab", "uris", "site"):
        run.report(f"{layer}.self_s", build_self.get(layer, 0.0) / nb, "s", nb, result=True)
    replay_self = spans.self_time_by_layer(all_spans, in_replay)
    for layer in ("server", "vocab", "uris"):
        run.report(f"{layer}.req_self_us", replay_self.get(layer, 0.0) / nr * 1e6, "us", nr,
                   result=True)
    run.report("build_s", stats.median(untraced), "s", len(untraced))
    run.report("trace.overhead_s", stats.median(traced) - stats.median(untraced), "s",
               len(traced), result=True)
    run.report("trace.spans", len(all_spans), "count", result=True)


# --- entry point ----------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rightsvocab" / "__init__.py").is_file() or not FIXTURE.is_file():
        print("error: run from the root of a rightsvocab checkout "
              "(src/rightsvocab and tests/fixtures are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, work)
    try:
        if args.trace:
            run_traced(run)
        elif args.workload == "serve-crawl":
            run_serve_workload(run)
        else:
            run_build_workload(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; socket traffic crosses loopback (127.0.0.1)")
    for line in run.lines:
        print(line)
    print(f"{'error_rate':<34} {run.failed / max(run.attempted, 1):.6g} ratio "
          f"(n={run.attempted})")
    for problem in run.failures:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
