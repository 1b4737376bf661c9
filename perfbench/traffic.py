"""The serve-crawl request mix and the checks on every response.

Callers are harvesters and browsers that dereference rights statement
URIs one at a time: each job is one user action, such as an abstract URI
GET whose 303 is followed on the same connection to its document.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from checks import ACCEPT_CASES, ACCEPT_LANGUAGE_CASES, MEDIA_BY_SUFFIX, expected_locations, sha256
from httpclient import Request, Response
from vocabgen import GeneratedVocabulary

# Share of jobs of each kind.  The shares are assumed: no published access
# log or harvester survey for rightsstatements.org or a similar service
# gives them.  They decide ops_per_s; op_p50_ms weighs each response kind
# alike, so it does not depend on them.
MIX = (
    ("deref", 0.50),     # abstract statement URI, 303 followed to its document
    ("overview", 0.05),  # the /rs/ concept scheme, 303 followed
    ("doc", 0.15),       # direct document GET
    ("head", 0.10),      # HEAD on a document or an abstract URI
    ("missing", 0.20),   # unknown statement or document: 404
)

QUALIFIERS = ("from/2016-01-01/", "until/2030-12-31/")


@dataclass
class Job:
    request: Request
    expect: str  # "303", "200" or "404"
    base: str = ""
    languages: tuple[str, ...] = ()
    latency_s: float = 0.0
    responses: int = 0
    problems: list[str] = field(default_factory=list)


class Traffic:
    """Seeded job source and response checker over one built site.

    ``docs`` maps each built file's path to its bytes; it must come from a
    tree that passed ``checks.check_tree``.
    """

    def __init__(self, vocab: GeneratedVocabulary, docs: dict[str, bytes], seed: int):
        self.rng = random.Random(f"traffic-{seed}")
        self.docs = {path: (sha256(data), len(data)) for path, data in docs.items()}
        self.doc_paths = sorted(docs)
        all_langs = sorted(set(vocab.title) | {"en"}
                           | {lang for s in vocab.statements for lang in s.labels})
        self.abstract = [("/" + s.dir, s.dir, tuple(s.languages)) for s in vocab.statements]
        self.overview = ("/rs/", "rs/", tuple(all_langs))
        self.missing = self._missing_paths(vocab)
        self.kinds = [k for k, _ in MIX]
        self.weights = [w for _, w in MIX]
        self.sent: list[Request] = []  # every request, in the order sent
        self.responses: list[tuple[int, float]] = []  # (status, latency_s)
        self.jobs_done: list[Job] = []

    def _missing_paths(self, vocab) -> list[str]:
        s = vocab.statements
        rng = self.rng
        return [
            "/favicon.ico",
            "/robots.txt",
            "/rs/zz-unknown/1.0/",
            f"/rs/{rng.choice(s).name}/9.9/",
            f"/rs/{rng.choice(s).name}/1.0/XX/",
            f"/rs/{rng.choice(s).name}/1.0/from/2016-13-45/",
            f"/{rng.choice(s).dir}index.xx.html",
            f"/{rng.choice(s).dir}data.rdf",
        ]

    def _headers(self) -> dict[str, str]:
        headers = {}
        accept = self.rng.choice(ACCEPT_CASES)[0]
        language = self.rng.choice(ACCEPT_LANGUAGE_CASES)
        if accept is not None:
            headers["Accept"] = accept
        if language is not None:
            headers["Accept-Language"] = language
        return headers

    def _send(self, request: Request) -> Request:
        self.sent.append(request)
        return request

    def start_job(self) -> tuple[Job, Request]:
        rng = self.rng
        kind = rng.choices(self.kinds, self.weights)[0]
        headers = self._headers()
        if kind in ("deref", "overview") or (kind == "head" and rng.random() < 0.4):
            if kind == "overview":
                path, base, langs = self.overview
            else:
                path, base, langs = rng.choice(self.abstract)
                if rng.random() < 1 / 3:
                    path += rng.choice(QUALIFIERS)
            method = "HEAD" if kind == "head" else "GET"
            job = Job(Request(method, path, headers), "303", base, langs)
        elif kind == "missing":
            job = Job(Request("GET", rng.choice(self.missing), headers), "404")
        else:
            path = "/" + rng.choice(self.doc_paths)
            job = Job(Request("HEAD" if kind == "head" else "GET", path, headers), "200")
        return job, self._send(job.request)

    def on_response(self, job: Job, response) -> Request | None:
        if not isinstance(response, Response):
            req = job.request
            job.problems.append(f"{req.method} {req.path} {req.headers}: "
                                f"{type(response).__name__}: {response}")
            self.jobs_done.append(job)
            return None
        self.responses.append((response.status, response.latency_s))
        job.responses += 1
        job.latency_s += response.latency_s
        problems = self._check(job, response)
        job.problems += problems
        if not problems and job.expect == "303" and job.request.method == "GET":
            location = response.headers["location"]
            follow = Request("GET", location, job.request.headers)
            job.request, job.expect = follow, "200"
            return self._send(follow)
        self.jobs_done.append(job)
        return None

    def _check(self, job: Job, r: Response) -> list[str]:
        req = job.request
        where = f"{req.method} {req.path} {req.headers}"
        problems = []
        if str(r.status) != job.expect:
            return [f"{where}: status {r.status}, expected {job.expect}"]
        vary = {v.strip().lower() for v in r.headers.get("vary", "").split(",")}
        if vary != {"accept", "accept-language"}:
            problems.append(f"{where}: Vary {r.headers.get('vary')!r}")
        length = int(r.headers["content-length"])
        if req.method == "GET" and length != len(r.body):
            problems.append(f"{where}: Content-Length {length} for {len(r.body)} bytes")
        if req.method == "HEAD" and r.body:
            problems.append(f"{where}: HEAD answered with a body")
        if job.expect == "303":
            allowed = expected_locations(
                job.base, req.headers.get("Accept"), req.headers.get("Accept-Language"),
                job.languages)
            if r.headers.get("location") not in allowed:
                problems.append(f"{where}: Location {r.headers.get('location')!r}, "
                                f"expected one of {sorted(allowed)}")
        elif job.expect == "200":
            rel = req.path.lstrip("/")
            digest, size = self.docs[rel]
            if length != size:
                problems.append(f"{where}: Content-Length {length}, built file has {size}")
            if req.method == "GET" and sha256(r.body) != digest:
                problems.append(f"{where}: body differs from the built file")
            media = MEDIA_BY_SUFFIX["." + rel.rsplit(".", 1)[-1]]
            if not r.headers.get("content-type", "").startswith(media):
                problems.append(f"{where}: Content-Type {r.headers.get('content-type')!r}")
        return problems
