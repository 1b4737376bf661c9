"""Closed-loop HTTP/1.1 client: one process, no threads, a few keep-alive
connections multiplexed with ``selectors``.

Each connection sends its next request only after the previous response
has fully arrived.  ``TCP_NODELAY`` is set on the client so that a stall
measured between send and last body byte belongs to the server.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field

RESPONSE_TIMEOUT_S = 10.0


@dataclass
class Request:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        lines = [f"{self.method} {self.path} HTTP/1.1", "Host: 127.0.0.1"]
        lines += [f"{k}: {v}" for k, v in self.headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


@dataclass
class Response:
    status: int
    headers: dict[str, str]  # lower-cased names
    body: bytes
    latency_s: float  # from the first byte sent to the last byte received


class ProtocolError(Exception):
    pass


def _parse_head(head: bytes) -> tuple[int, dict[str, str]]:
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1.") or not parts[1].isdigit():
        raise ProtocolError(f"bad status line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"bad header line {line!r}")
        name = name.strip().lower()
        value = value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    return int(parts[1]), headers


class Connection:
    def __init__(self, address):
        self.address = address
        self.sock = None
        self.buffer = b""
        self.request = None
        self.sent_at = 0.0
        self.job = None  # the caller's state for the request in flight

    def open(self) -> None:
        self.sock = socket.create_connection(self.address, timeout=RESPONSE_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def send(self, request: Request) -> None:
        self.request = request
        self.sent_at = time.perf_counter()
        self.sock.sendall(request.encode())

    def receive(self):
        """Read what is available; a Response once it is complete."""
        chunk = self.sock.recv(262144)
        now = time.perf_counter()
        if not chunk:
            raise ProtocolError("server closed the connection")
        self.buffer += chunk
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        status, headers = _parse_head(self.buffer[:end])
        if "content-length" not in headers:
            raise ProtocolError("response has no Content-Length")
        length = 0 if self.request.method == "HEAD" else int(headers["content-length"])
        total = end + 4 + length
        if len(self.buffer) < total:
            return None
        if len(self.buffer) > total:
            raise ProtocolError("bytes after the end of the response")
        body = self.buffer[end + 4:]
        self.buffer = b""
        return Response(status, headers, body, now - self.sent_at)


def closed_loop(address, start_job, on_response, seconds: float, connections: int = 2):
    """Drive ``connections`` keep-alive connections for ``seconds``.

    ``start_job()`` returns ``(job, first_request)``.  ``on_response(job,
    response)`` returns the next request of the same job, or None when the
    job is done.  ``on_response(job, exc)`` is called with the exception
    when a connection fails; the connection is then reopened.  Jobs in
    flight at the deadline run to completion.  Returns the measured wall
    time in seconds.
    """
    sel = selectors.DefaultSelector()
    conns = [Connection(address) for _ in range(connections)]
    started = time.perf_counter()
    deadline = started + seconds

    def start(conn):
        if time.perf_counter() >= deadline:
            return
        conn.job, request = start_job()
        conn.send(request)
        sel.register(conn.sock, selectors.EVENT_READ, conn)

    try:
        for conn in conns:
            conn.open()
            start(conn)
        while sel.get_map():
            events = sel.select(timeout=RESPONSE_TIMEOUT_S)
            if not events:
                for key in list(sel.get_map().values()):
                    conn = key.data
                    sel.unregister(conn.sock)
                    on_response(conn.job, ProtocolError("response timed out"))
                    conn.close()
                    conn.open()
                    start(conn)
                continue
            for key, _ in events:
                conn = key.data
                try:
                    response = conn.receive()
                except (OSError, ProtocolError, ValueError) as exc:
                    sel.unregister(conn.sock)
                    on_response(conn.job, exc)
                    conn.close()
                    conn.open()
                    start(conn)
                    continue
                if response is None:
                    continue
                follow = on_response(conn.job, response)
                if follow is not None:
                    conn.send(follow)
                    continue
                sel.unregister(conn.sock)
                start(conn)
        return time.perf_counter() - started
    finally:
        sel.close()
        for conn in conns:
            conn.close()
