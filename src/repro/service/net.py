"""HTTP front end for :class:`~repro.service.service.UpdateService`.

The service's submit/snapshot API is already thread-safe; this module puts
it on a loopback (or any) TCP port with nothing but the standard library:
:class:`http.server.ThreadingHTTPServer` on the server side, one thread per
connection calling the service directly, and :class:`http.client.HTTPConnection`
in :class:`ServiceClient`.  Keep-alive, request parsing and chunked decoding
are the standard library's; this module only routes and renders JSON.

Contract highlights (the README carries the full endpoint table):

* **idempotency rides the WAL.**  ``POST /submit`` accepts a client-chosen
  ``seq``; a seq at or below the WAL high-water mark dup-acks (HTTP 200
  with the seq listed under ``duplicates``) instead of re-enqueueing —
  exactly the :meth:`UpdateService.submit_event` semantics, so an HTTP 200
  means *fsync'd, survives any crash*, and retrying a lost response is
  safe whenever every event carries a seq.  Poison events are still acked
  (durability first), with the quarantine diagnosis carried in the response
  so the client knows the event will land in the DLQ rather than the graph.
* **backpressure maps to 429.**  A full ingest queue raises
  ``ServiceOverloaded``, which becomes ``429 Too Many Requests`` with a
  ``Retry-After`` header.  A blocking submit holds only its own
  connection's thread, so slow ingestion never stalls the readers.
* **bounded waits, bounded threads.**  Submit, drain and long-poll waits are
  client-chosen but clamped to the module constants below; the query
  endpoints read the immutable published snapshot and never wait.  At most
  :data:`MAX_CONNECTIONS` connections (and so handler threads) are open at
  once; the next connect gets an immediate ``503 too_many_connections``.
* **subscriptions push, slow consumers are evicted.**  ``POST /subscribe``
  registers a top-k or vertex-set watch against the service's
  :class:`~repro.service.subscriptions.SubscriptionRegistry`; deltas arrive
  over long-poll (``GET /subscription/{id}/poll?wait=``) or a chunked NDJSON
  stream (``GET /subscription/{id}/stream``), both blocking in
  :meth:`Subscription.take`.  A subscriber that stops draining is evicted by
  the bounded queue and sees ``410 Gone`` (or an ``evicted`` stream record)
  with a resubscribe hint — the writer thread never blocks on a socket.

Values cross the wire as JSON numbers when finite (``repr`` round-trips
float64 exactly) and as the strings ``"nan"``/``"inf"``/``"-inf"``
otherwise, since SSSP-style states legitimately hold infinities and JSON
cannot.  :func:`wire_value` / :func:`value_from_wire` are the two sides.

``python -m repro.service.net --directory DIR`` boots a standalone server
(recovering from ``DIR`` if it holds a WAL), which is what the chaos
harness SIGKILLs mid-stream to prove acked-over-the-wire events survive.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from socketserver import TCPServer
from typing import Dict, Iterator, List, Optional
from urllib.parse import parse_qs, urlsplit

from repro.graph.delta import update_intrinsic_problems
from repro.service.events import update_from_payload, update_payload
from repro.service.faults import ServiceDead, ServiceOverloaded
from repro.service.subscriptions import SubscriptionEvicted

#: open connections (= handler threads); the next connect gets a 503
MAX_CONNECTIONS = 64
#: request body cap in bytes (413 beyond)
MAX_BODY = 1 << 20
MAX_EVENTS_PER_SUBMIT = 1024
#: ceilings on the client-chosen waits (seconds)
SUBMIT_WAIT_MAX = 30.0  # POST /submit backpressure wait
DRAIN_WAIT_MAX = 120.0
POLL_WAIT_MAX = 30.0  # one long-poll, and the stream's heartbeat interval
#: long-poll wait when the request names none
DEFAULT_POLL_WAIT = 10.0
#: a keep-alive connection idle this long is closed
IDLE_TIMEOUT = 60.0

RESUBSCRIBE_HINT = "resubscribe for a fresh baseline"


def wire_value(value: float):
    """A float as it crosses the wire: JSON number, or nan/inf strings."""
    value = float(value)
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def value_from_wire(raw) -> float:
    """Inverse of :func:`wire_value` (``float`` parses the special strings)."""
    return float(raw)


def _jsonable(value):
    """Recursively make a payload safe for ``json.dumps(allow_nan=False)``."""
    if isinstance(value, float):
        return wire_value(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    return str(value)


def _dumps(payload) -> bytes:
    return json.dumps(
        _jsonable(payload), separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


class HttpError(Exception):
    """A request that maps to a specific HTTP status with a JSON body."""

    def __init__(
        self,
        status: int,
        error: str,
        detail: Optional[str] = None,
        *,
        extra: Optional[dict] = None,
    ) -> None:
        super().__init__(detail or error)
        self.status = status
        self.error = error
        self.detail = detail
        self.extra = dict(extra or {})

    def payload(self) -> dict:
        body = {"error": self.error}
        if self.detail:
            body["detail"] = self.detail
        body.update(self.extra)
        return body


def _parse_json(body: bytes) -> dict:
    if not body:
        return {}
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise HttpError(400, "bad_json", str(error))
    if not isinstance(doc, dict):
        raise HttpError(400, "bad_json", "request body must be a JSON object")
    return doc


def _clamped_wait(raw, ceiling: float, error: str = "bad_timeout") -> float:
    try:
        wait = float(raw)
    except (TypeError, ValueError):
        raise HttpError(400, error, repr(raw))
    return min(max(wait, 0.0), ceiling)


class ServiceServer(ThreadingHTTPServer):
    """One HTTP front end bound to one :class:`UpdateService`.

    Usage::

        server = serve(service, port=0)     # port 0 -> ephemeral
        ...
        server.close()
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        #: requests, errors, overloaded, rejected_connections, streams
        self.stats: Counter = Counter()
        self._stats_lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self._rejection = self._response_bytes(
            503,
            {
                "error": "too_many_connections",
                "detail": f"at most {MAX_CONNECTIONS} concurrent connections",
            },
        )
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _Handler)

    def server_bind(self) -> None:
        # TCPServer's bind, without HTTPServer's reverse lookup of the host
        TCPServer.server_bind(self)
        self.host, self.port = self.server_address[:2]

    @staticmethod
    def _response_bytes(status: int, payload) -> bytes:
        body = _dumps(payload)
        reason = BaseHTTPRequestHandler.responses[status][0]
        head = (
            f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        return head.encode("latin-1") + body

    def count(self, key: str) -> None:
        with self._stats_lock:
            self.stats[key] += 1

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="service-net",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        self.server_close()

    # ------------------------------------------------------------------
    # the connection cap
    # ------------------------------------------------------------------
    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            self.count("rejected_connections")
            with contextlib.suppress(OSError):
                request.sendall(self._rejection)
                request.setblocking(False)
                request.recv(1 << 16)  # read what was sent so close() is a FIN
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


class _Handler(BaseHTTPRequestHandler):
    """Routes one connection's requests to the service, replying JSON."""

    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT
    disable_nagle_algorithm = True
    server: ServiceServer

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib name
        pass

    def send_error(self, code, message=None, explain=None) -> None:
        """Protocol errors the stdlib detects get a JSON body as well."""
        self.close_connection = True
        self._reply(code, {"error": message or self.responses[code][0]})

    def _reply(self, status: int, payload, headers=()) -> None:
        body = _dumps(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _handle(self) -> None:
        server = self.server
        server.count("requests")
        parsed = urlsplit(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        headers = []
        try:
            body = self._body()
            if (
                self.command == "GET"
                and len(parts) == 3
                and parts[0] == "subscription"
                and parts[2] == "stream"
            ):
                self._stream(parts[1])
                return
            status, payload = self._dispatch(parts, parse_qs(parsed.query), body)
        except HttpError as error:
            server.count("errors")
            if error.status == 429:
                server.count("overloaded")
                headers = [("Retry-After", "1")]
            status, payload = error.status, error.payload()
        except Exception as error:  # pragma: no cover - defensive surface
            server.count("errors")
            status, payload = 500, {
                "error": "internal",
                "detail": f"{type(error).__name__}: {error}",
            }
        self._reply(status, payload, headers)

    do_GET = do_POST = do_DELETE = do_PUT = do_PATCH = _handle

    def _body(self) -> bytes:
        raw = self.headers.get("Content-Length")
        try:
            length = int(raw or 0)
        except ValueError:
            self.close_connection = True  # the body's end is unknown
            raise HttpError(400, "bad_content_length", raw)
        if length > MAX_BODY:
            self.close_connection = True  # the body stays unread
            raise HttpError(413, "body_too_large", f"{length} bytes > cap {MAX_BODY}")
        return self.rfile.read(length) if length > 0 else b""

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _dispatch(self, parts: List[str], query, body: bytes):
        method = self.command
        if parts == ["health"]:
            self._require("GET", parts)
            return 200, self.server.service.health()
        if parts == ["ready"]:
            self._require("GET", parts)
            return self._ready()
        if len(parts) == 2 and parts[0] == "value":
            self._require("GET", parts)
            return self._value(parts[1])
        if parts == ["topk"]:
            self._require("GET", parts)
            return self._topk(query)
        if parts == ["dlq"]:
            self._require("GET", parts)
            return self._dlq()
        if parts == ["submit"]:
            self._require("POST", parts)
            return self._submit(body)
        if parts == ["drain"]:
            self._require("POST", parts)
            return self._drain(body)
        if parts == ["subscribe"]:
            self._require("POST", parts)
            return self._subscribe(body)
        if len(parts) >= 2 and parts[0] == "subscription":
            if len(parts) == 2 and method == "DELETE":
                return self._unsubscribe(parts[1])
            if len(parts) == 3 and parts[2] == "poll" and method == "GET":
                return self._poll(parts[1], query)
            raise HttpError(405, "method_not_allowed", "/".join(parts))
        raise HttpError(404, "unknown_endpoint", "/" + "/".join(parts))

    def _require(self, expected: str, parts: List[str]) -> None:
        if self.command != expected:
            raise HttpError(
                405,
                "method_not_allowed",
                f"{self.command} /{'/'.join(parts)} (use {expected})",
            )

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _ready(self):
        health = self.server.service.health()
        payload = {
            "ready": health["ready"],
            "replaying": health["replaying"],
            "dead": health["dead"],
        }
        return (200 if health["ready"] else 503), payload

    def _value(self, raw_vertex: str):
        try:
            vertex = int(raw_vertex)
        except ValueError:
            raise HttpError(400, "bad_vertex", f"not an integer: {raw_vertex!r}")
        snapshot = self.server.service.snapshot()
        if vertex not in snapshot.states:
            raise HttpError(
                404,
                "unknown_vertex",
                f"vertex {vertex} not in snapshot seq {snapshot.seq}",
            )
        value = float(snapshot.states[vertex])
        return 200, {
            "vertex": vertex,
            "value": wire_value(value),
            "hex": value.hex(),  # bit-exact round-trip for verification
            "seq": snapshot.seq,
            "checksum": snapshot.checksum,
        }

    def _topk(self, query):
        try:
            k = int(query.get("k", ["8"])[0])
        except ValueError:
            raise HttpError(400, "bad_k", str(query.get("k")))
        if k < 1:
            raise HttpError(400, "bad_k", f"k must be >= 1, got {k}")
        largest = query.get("largest", ["true"])[0].lower() not in (
            "0",
            "false",
            "no",
        )
        snapshot = self.server.service.snapshot()
        entries = snapshot.top_k(k, largest=largest)
        return 200, {
            "k": k,
            "largest": largest,
            "seq": snapshot.seq,
            "checksum": snapshot.checksum,
            "entries": [[vertex, wire_value(value)] for vertex, value in entries],
        }

    def _dlq(self):
        entries = [
            {
                "seq": entry.seq,
                "kind": entry.kind,
                "problems": list(entry.problems),
                "recovered": entry.recovered,
            }
            for entry in self.server.service.dlq.entries()
        ]
        return 200, {"entries": entries}

    def _submit(self, body: bytes):
        doc = _parse_json(body)
        raw_events = doc.get("events")
        if raw_events is None:
            raw_events = [doc]
        if not isinstance(raw_events, list) or not raw_events:
            raise HttpError(400, "bad_events", "events must be a non-empty list")
        if len(raw_events) > MAX_EVENTS_PER_SUBMIT:
            raise HttpError(
                413,
                "too_many_events",
                f"{len(raw_events)} events > cap {MAX_EVENTS_PER_SUBMIT}",
            )
        parsed = []
        for index, entry in enumerate(raw_events):
            if not isinstance(entry, dict) or "update" not in entry:
                raise HttpError(
                    400, "bad_event", f"events[{index}] needs an 'update' payload"
                )
            try:
                update = update_from_payload(entry["update"])
            except Exception as error:
                raise HttpError(
                    400,
                    "bad_update",
                    f"events[{index}]: {type(error).__name__}: {error}",
                )
            seq = entry.get("seq")
            if seq is not None:
                try:
                    seq = int(seq)
                except (TypeError, ValueError):
                    raise HttpError(400, "bad_seq", f"events[{index}].seq: {seq!r}")
            parsed.append((seq, update))
        timeout = _clamped_wait(doc.get("timeout", 10.0), SUBMIT_WAIT_MAX)
        # WAL each event; partial acks survive an error (the client learns
        # exactly which seqs are durable)
        acks: List[int] = []
        duplicates: List[int] = []
        quarantine: Dict[str, dict] = {}
        for seq, update in parsed:
            progress = {"acks": acks, "duplicates": duplicates}
            try:
                acked, duplicate = self.server.service.submit_event(
                    update, seq=seq, timeout=timeout
                )
            except ServiceOverloaded as error:
                raise HttpError(429, "overloaded", str(error), extra=progress)
            except ServiceDead as error:
                raise HttpError(503, "service_unavailable", str(error), extra=progress)
            except ValueError as error:
                raise HttpError(409, "seq_conflict", str(error), extra=progress)
            acks.append(acked)
            if duplicate:
                duplicates.append(acked)
            problems = update_intrinsic_problems(update)
            if problems:
                # acked and durable, but destined for the DLQ: tell the
                # client now instead of letting it discover via /dlq later
                quarantine[str(acked)] = {
                    "problems": list(problems),
                    "disposition": "dead-letter after validation",
                }
        payload = {"acks": acks, "duplicates": duplicates}
        if quarantine:
            payload["quarantine"] = quarantine
        return 200, payload

    def _drain(self, body: bytes):
        doc = _parse_json(body)
        timeout = _clamped_wait(doc.get("timeout", 30.0), DRAIN_WAIT_MAX)
        service = self.server.service
        try:
            service.drain(timeout)
        except ServiceDead as error:
            raise HttpError(503, "service_unavailable", str(error))
        except TimeoutError as error:
            raise HttpError(504, "drain_timeout", str(error) or "drain timed out")
        return 200, {"drained": True, "health": service.health()}

    def _subscribe(self, body: bytes):
        doc = _parse_json(body)
        kind = doc.get("kind", "topk")
        max_pending = doc.get("max_pending")
        if max_pending is not None:
            try:
                max_pending = int(max_pending)
            except (TypeError, ValueError):
                raise HttpError(400, "bad_max_pending", repr(doc.get("max_pending")))
        registry = self.server.service.subscriptions
        try:
            if kind == "topk":
                sub = registry.subscribe_topk(
                    int(doc.get("k", 8)),
                    largest=bool(doc.get("largest", True)),
                    max_pending=max_pending,
                )
            elif kind == "vertices":
                vertices = doc.get("vertices")
                if not isinstance(vertices, list):
                    raise HttpError(
                        400, "bad_vertices", "vertices must be a list of ints"
                    )
                sub = registry.subscribe_vertices(vertices, max_pending=max_pending)
            else:
                raise HttpError(
                    400, "bad_kind", f"unknown subscription kind {kind!r}"
                )
        except (ValueError, RuntimeError) as error:
            raise HttpError(400, "bad_subscription", str(error))
        return 200, {
            "id": sub.id,
            "kind": sub.kind,
            "seq": sub.baseline_seq,
            "baseline": sub.baseline,
            "max_pending": sub.max_pending,
        }

    def _subscription(self, sub_id: str):
        sub = self.server.service.subscriptions.get(sub_id)
        if sub is None:
            raise HttpError(
                404, "unknown_subscription", sub_id, extra={"hint": RESUBSCRIBE_HINT}
            )
        return sub

    def _poll(self, sub_id: str, query):
        sub = self._subscription(sub_id)
        raw = query.get("wait", [DEFAULT_POLL_WAIT])[0]
        wait = _clamped_wait(raw, POLL_WAIT_MAX, "bad_wait")
        try:
            deltas = sub.take(wait)
        except SubscriptionEvicted as error:
            raise HttpError(
                410, "subscriber_evicted", str(error), extra={"hint": RESUBSCRIBE_HINT}
            )
        return 200, {"id": sub.id, "deltas": deltas, "closed": sub.closed}

    def _unsubscribe(self, sub_id: str):
        if not self.server.service.subscriptions.unsubscribe(sub_id):
            raise HttpError(404, "unknown_subscription", sub_id)
        return 200, {"id": sub_id, "unsubscribed": True}

    def _stream(self, sub_id: str) -> None:
        """A chunked NDJSON push stream; it holds the connection until the
        subscription closes or is evicted, or the reader hangs up."""
        self.close_connection = True
        sub = self._subscription(sub_id)
        self.server.count("streams")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            # hello record re-anchors a reconnecting reader on the baseline
            self._chunk(
                {
                    "kind": "hello",
                    "id": sub.id,
                    "seq": sub.baseline_seq,
                    "baseline": sub.baseline,
                }
            )
            while True:
                try:
                    deltas = sub.take(POLL_WAIT_MAX)
                except SubscriptionEvicted as error:
                    self._chunk(
                        {
                            "kind": "evicted",
                            "detail": str(error),
                            "hint": RESUBSCRIBE_HINT,
                        }
                    )
                    break
                for delta in deltas:
                    self._chunk(delta)
                if not deltas and sub.closed:
                    self._chunk({"kind": "closed"})
                    break
                if not deltas:  # the wait ran out: prove the stream is alive
                    seq = self.server.service.snapshot().seq
                    self._chunk({"kind": "heartbeat", "seq": seq})
            self.wfile.write(b"0\r\n\r\n")
        except OSError:
            return  # the reader hung up

    def _chunk(self, payload) -> None:
        data = _dumps(payload) + b"\n"
        self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))


def serve(service, host: str = "127.0.0.1", port: int = 0) -> ServiceServer:
    """Boot a :class:`ServiceServer` on ``host:port`` and return it serving
    on a background thread; :meth:`ServiceServer.close` stops it."""
    return ServiceServer(service, host, port).start()


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
def _resendable(method: str, path: str, payload) -> bool:
    """May a request whose response was lost be sent again?

    Reads and drains repeat harmlessly; a submit does only when every event
    carries a seq, which the server dup-acks.  A seq-less submit may already
    be WAL'd, and a resend would enqueue it twice.
    """
    if method == "GET" or path == "/drain":
        return True
    if path != "/submit" or not isinstance(payload, dict):
        return False
    events = payload.get("events", [payload])
    return all(
        isinstance(entry, dict) and entry.get("seq") is not None for entry in events
    )


class ServiceClient:
    """Minimal synchronous client for :class:`ServiceServer`.

    One keep-alive connection for request/response endpoints (reopened
    after a drop, resending only what is safe to repeat), plus
    :meth:`stream` generators that each open their own connection.  Methods
    return ``(status, doc)`` — callers decide what a non-200 means for them.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port)

    def close(self) -> None:
        self._conn.close()

    def request(self, method: str, path: str, payload=None):
        body = _dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        for attempt in (0, 1):
            try:
                self._conn.request(method, path, body, headers)
                response = self._conn.getresponse()
                raw = response.read()
                break
            except (OSError, http.client.HTTPException):
                self._conn.close()
                if attempt or not _resendable(method, path, payload):
                    raise
        doc = json.loads(raw.decode("utf-8")) if raw else {}
        return response.status, doc

    # -- conveniences --------------------------------------------------
    def submit(self, update, seq: Optional[int] = None, timeout=None):
        entry: dict = {"update": update_payload(update)}
        if seq is not None:
            entry["seq"] = seq
        if timeout is not None:
            entry["timeout"] = timeout
        return self.request("POST", "/submit", entry)

    def submit_batch(self, events, timeout=None):
        """``events`` is an iterable of ``(seq_or_None, update)`` pairs."""
        doc: dict = {
            "events": [
                {"update": update_payload(update), "seq": seq}
                if seq is not None
                else {"update": update_payload(update)}
                for seq, update in events
            ]
        }
        if timeout is not None:
            doc["timeout"] = timeout
        return self.request("POST", "/submit", doc)

    def value(self, vertex: int):
        return self.request("GET", f"/value/{vertex}")

    def topk(self, k: int, largest: bool = True):
        flag = "true" if largest else "false"
        return self.request("GET", f"/topk?k={k}&largest={flag}")

    def health(self):
        return self.request("GET", "/health")

    def ready(self):
        return self.request("GET", "/ready")

    def dlq(self):
        return self.request("GET", "/dlq")

    def drain(self, timeout: float = 30.0):
        return self.request("POST", "/drain", {"timeout": timeout})

    def subscribe_topk(self, k: int, largest: bool = True, max_pending=None):
        doc: dict = {"kind": "topk", "k": k, "largest": largest}
        if max_pending is not None:
            doc["max_pending"] = max_pending
        return self.request("POST", "/subscribe", doc)

    def subscribe_vertices(self, vertices, max_pending=None):
        doc: dict = {"kind": "vertices", "vertices": list(vertices)}
        if max_pending is not None:
            doc["max_pending"] = max_pending
        return self.request("POST", "/subscribe", doc)

    def poll(self, sub_id: str, wait: float = 5.0):
        return self.request("GET", f"/subscription/{sub_id}/poll?wait={wait}")

    def unsubscribe(self, sub_id: str):
        return self.request("DELETE", f"/subscription/{sub_id}")

    def stream(self, sub_id: str) -> Iterator[dict]:
        """Yield push records (hello/deltas/heartbeats/evicted/closed) from
        a chunked stream on a dedicated connection."""
        conn = http.client.HTTPConnection(self.host, self.port)
        try:
            conn.request("GET", f"/subscription/{sub_id}/stream")
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                doc = json.loads(raw.decode("utf-8")) if raw else {}
                raise HttpError(
                    response.status,
                    doc.get("error", "stream_failed"),
                    doc.get("detail"),
                    extra=doc,
                )
            for line in response:
                if line.strip():
                    yield json.loads(line)
        finally:
            conn.close()


# ----------------------------------------------------------------------
# standalone server (chaos harness target)
# ----------------------------------------------------------------------
def demo_graph(seed: int = 5):
    """The community graph the service test-bed runs on."""
    from repro.graph.generators import community_graph

    return community_graph(
        num_communities=3,
        community_size_range=(10, 14),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=seed,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.service.net`` — boot (or recover) and serve.

    Prints ``LISTENING <host> <port>`` once the socket is bound so a parent
    process can drive it, then serves until killed.  If ``--directory``
    already holds an event WAL the service is recovered from it, which is
    exactly what the SIGKILL legs of the chaos/net test suites exercise.
    """
    import argparse
    import os

    from repro.engine.algorithms import make_algorithm
    from repro.incremental import make_engine
    from repro.service.service import UpdateService

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--directory", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--engine", default="kickstarter")
    parser.add_argument("--algorithm", default="sssp")
    parser.add_argument("--source", type=int, default=0)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)

    wal_path = os.path.join(args.directory, UpdateService.EVENTS_LOG)
    if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
        service = UpdateService.recover(
            args.directory, batch_size=args.batch_size
        )
    else:
        engine = make_engine(
            args.engine, make_algorithm(args.algorithm, source=args.source)
        )
        engine.initialize(demo_graph(args.seed))
        service = UpdateService(
            engine, args.directory, batch_size=args.batch_size
        )

    server = ServiceServer(service, args.host, args.port)
    print(f"LISTENING {server.host} {server.port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)  # serve until killed
    except KeyboardInterrupt:
        service.close()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
