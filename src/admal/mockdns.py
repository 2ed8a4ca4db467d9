"""Deterministic farm of simulated filtered DNS providers.

Each provider is a UDP server with a configurable blocklist and block
behavior (sinkhole A record or NXDOMAIN), so the whole pipeline is
testable offline.  A ``truncate`` provider answers UDP with TC=1 and no
answers, and in full over TCP on the same port, so that clients exercise
the TCP fallback.  Responses are a pure function of (spec, seed, query
bytes); the only "randomness" is the drop decision, derived from a hash
of the seed and the queried name so that repeats behave identically.
"""

import hashlib
import json
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import dnswire

BEHAVIOR_SINKHOLE_A = "sinkhole_a"
BEHAVIOR_NXDOMAIN = "nxdomain"


class BindError(OSError):
    pass


@dataclass
class MockProviderSpec:
    provider_id: str
    listen: tuple[str, int] = ("127.0.0.1", 0)
    blocklist: frozenset = frozenset()
    block_behavior: str = BEHAVIOR_SINKHOLE_A
    sinkhole_ip: str = "0.0.0.0"
    default_answer: str = "203.0.113.1"
    latency_ms: int = 0
    drop_rate: float = 0.0
    truncate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be within [0, 1]")
        if self.block_behavior not in (BEHAVIOR_SINKHOLE_A, BEHAVIOR_NXDOMAIN):
            raise ValueError(f"unknown block_behavior {self.block_behavior!r}")
        self.blocklist = frozenset(d.lower() for d in self.blocklist)

    @classmethod
    def from_config(cls, doc: dict) -> "MockProviderSpec":
        host, _, port = doc.get("listen", "127.0.0.1:0").rpartition(":")
        return cls(
            provider_id=doc["provider_id"],
            listen=(host or "127.0.0.1", int(port)),
            blocklist=frozenset(doc.get("blocklist", ())),
            block_behavior=doc.get("block_behavior", BEHAVIOR_SINKHOLE_A),
            sinkhole_ip=doc.get("sinkhole_ip", "0.0.0.0"),
            default_answer=doc.get("default_answer", "203.0.113.1"),
            latency_ms=int(doc.get("latency_ms", 0)),
            drop_rate=float(doc.get("drop_rate", 0.0)),
            truncate=bool(doc.get("truncate", False)),
        )


def _should_drop(seed: int, qname: str, drop_rate: float) -> bool:
    if drop_rate <= 0.0:
        return False
    if drop_rate >= 1.0:
        return True
    digest = hashlib.sha256(f"{seed}:{qname}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64 < drop_rate


def respond(
    spec: MockProviderSpec, seed: int, data: bytes, *, tcp: bool = False
) -> bytes | None:
    """Pure per-query handler; None means the query is silently dropped."""
    try:
        query = dnswire.parse_response(data)
        if not query.questions:
            raise dnswire.MalformedMessage("no question")
    except dnswire.MalformedMessage:
        if len(data) >= 2:
            txid = int.from_bytes(data[:2], "big")
            return dnswire.build_response(
                txid, dnswire.Question("", dnswire.TYPE_A), rcode=dnswire.RCODE_FORMERR
            )
        return None

    question = query.questions[0]
    qname = question.name.lower().rstrip(".")
    if _should_drop(seed, qname, spec.drop_rate):
        return None

    if spec.truncate and not tcp:
        return dnswire.build_response(query.txid, question, tc=True)
    if question.qtype != dnswire.TYPE_A:
        return dnswire.build_response(query.txid, question)
    if qname in spec.blocklist:
        if spec.block_behavior == BEHAVIOR_NXDOMAIN:
            return dnswire.build_response(
                query.txid, question, rcode=dnswire.RCODE_NXDOMAIN
            )
        answers = ((question.name, dnswire.TYPE_A, 60, spec.sinkhole_ip),)
        return dnswire.build_response(query.txid, question, answers=answers)
    answers = ((question.name, dnswire.TYPE_A, 300, spec.default_answer),)
    return dnswire.build_response(query.txid, question, answers=answers)


class MockDnsFarm:
    """Runs one UDP listener per provider spec, plus a TCP listener on the
    same port for ``truncate`` providers; start/stop are idempotent."""

    def __init__(self, specs: list[MockProviderSpec], seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self.addresses: dict[str, tuple[str, int]] = {}
        self._sockets: dict[str, socket.socket] = {}
        self._tcp_sockets: dict[str, socket.socket] = {}
        self._threads: list[threading.Thread] = []
        self._pool: ThreadPoolExecutor | None = None
        self._running = False

    def start(self) -> "MockDnsFarm":
        if self._running:
            return self
        for spec in self.specs:
            try:
                sock = self._bind(spec)
            except OSError as exc:
                self.stop()
                raise BindError(f"{spec.provider_id}: cannot bind {spec.listen}: {exc}")
            # close() alone does not wake a blocked recvfrom; poll instead
            sock.settimeout(0.2)
            self._sockets[spec.provider_id] = sock
            self.addresses[spec.provider_id] = sock.getsockname()[:2]
        self._pool = ThreadPoolExecutor(max_workers=4 * len(self.specs) or 1)
        self._running = True
        for spec in self.specs:
            loops = [self._serve_loop] + ([self._accept_loop] if spec.truncate else [])
            for target in loops:
                thread = threading.Thread(target=target, args=(spec,), daemon=True)
                thread.start()
                self._threads.append(thread)
        return self

    def _bind(self, spec: MockProviderSpec) -> socket.socket:
        """The UDP socket; a truncating provider also gets a TCP listener on
        its port, and an ephemeral port that TCP finds taken is retried."""
        for attempt in range(8):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sock.bind(spec.listen)
                if spec.truncate:
                    tcp = socket.create_server(sock.getsockname())
                    tcp.settimeout(0.2)
                    self._tcp_sockets[spec.provider_id] = tcp
                return sock
            except OSError:
                sock.close()
                if spec.listen[1] or attempt == 7:
                    raise

    def _serve_loop(self, spec: MockProviderSpec):
        sock = self._sockets[spec.provider_id]
        while self._running:
            try:
                data, addr = sock.recvfrom(4096)
            except socket.timeout:
                continue
            except OSError:
                return
            if spec.latency_ms:
                self._pool.submit(self._reply_delayed, spec, sock, data, addr)
            else:
                reply = respond(spec, self.seed, data)
                if reply is not None:
                    try:
                        sock.sendto(reply, addr)
                    except OSError:
                        return

    def _accept_loop(self, spec: MockProviderSpec):
        listener = self._tcp_sockets[spec.provider_id]
        while self._running:
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._pool.submit(self._serve_tcp, spec, conn)

    def _serve_tcp(self, spec: MockProviderSpec, conn: socket.socket):
        """Answer one length-prefixed query (RFC 7766), then close."""
        conn.settimeout(2.0)
        with conn, conn.makefile("rb") as stream:
            try:
                header = stream.read(2)
                length = struct.unpack("!H", header)[0] if len(header) == 2 else 0
                data = stream.read(length)
                reply = respond(spec, self.seed, data, tcp=True)
                if reply is not None:
                    time.sleep(spec.latency_ms / 1000.0)
                    conn.sendall(struct.pack("!H", len(reply)) + reply)
            except OSError:
                pass

    def _reply_delayed(self, spec, sock, data, addr):
        reply = respond(spec, self.seed, data)
        time.sleep(spec.latency_ms / 1000.0)
        if reply is not None:
            try:
                sock.sendto(reply, addr)
            except OSError:
                pass

    def stop(self):
        self._running = False
        for sock in [*self._sockets.values(), *self._tcp_sockets.values()]:
            sock.close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self._threads.clear()
        self._sockets.clear()
        self._tcp_sockets.clear()

    def manifest(self) -> dict:
        return {
            "seed": self.seed,
            "providers": [
                {
                    "provider_id": spec.provider_id,
                    "address": "%s:%d" % self.addresses[spec.provider_id],
                    "block_behavior": spec.block_behavior,
                    "blocklist_size": len(spec.blocklist),
                    "drop_rate": spec.drop_rate,
                }
                for spec in self.specs
            ],
        }

    def __enter__(self) -> "MockDnsFarm":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def load_farm_config(path) -> MockDnsFarm:
    """Load a farm config file: {"providers": [spec...], "seed": int}."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    specs = [MockProviderSpec.from_config(p) for p in doc.get("providers", [])]
    return MockDnsFarm(specs, seed=int(doc.get("seed", 0)))
