"""Deterministic farm of simulated filtered DNS providers.

Each provider is a UDP server with a configurable blocklist and block
behavior (sinkhole A record or NXDOMAIN), so the whole pipeline is
testable offline.  A ``truncate`` provider answers UDP with TC=1 and no
answers, and in full over TCP on the same port, so that clients exercise
the TCP fallback.  Responses are a pure function of (spec, seed, query
bytes); the only "randomness" is the drop decision, derived from a hash
of the seed and the queried name so that repeats behave identically.

One asyncio loop on one daemon thread serves the whole farm, as in
``dnsclient``: each UDP socket is drained per wakeup, and latency delays a
reply on a loop timer, so it caps no throughput.  asyncio is imported on
that thread, so importing this module stays cheap.
"""

import contextlib
import functools
import hashlib
import ipaddress
import json
import socket
import threading
from typing import NamedTuple

from . import dnswire, library_logs
from .config import _format_address, _parse_address

BEHAVIOR_SINKHOLE_A = "sinkhole_a"
BEHAVIOR_NXDOMAIN = "nxdomain"


class BindError(OSError):
    pass


class _MockProviderSpec(NamedTuple):
    provider_id: str
    listen: tuple[str, int] = ("127.0.0.1", 0)
    blocklist: frozenset = frozenset()
    block_behavior: str = BEHAVIOR_SINKHOLE_A
    sinkhole_ip: str = "0.0.0.0"
    default_answer: str = "203.0.113.1"
    latency_ms: int = 0
    drop_rate: float = 0.0
    truncate: bool = False


class MockProviderSpec(_MockProviderSpec):
    """One simulated provider; its blocklist is held lowercased."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if type(self.latency_ms) is not int or self.latency_ms < 0:
            raise ValueError(f"latency_ms must be a nonnegative int, got {self.latency_ms!r}")
        if type(self.drop_rate) not in (int, float) or not 0 <= self.drop_rate <= 1:
            raise ValueError(f"drop_rate must be a number within [0, 1], got {self.drop_rate!r}")
        if type(self.truncate) is not bool:
            raise ValueError(f"truncate must be true or false, got {self.truncate!r}")
        if self.block_behavior not in (BEHAVIOR_SINKHOLE_A, BEHAVIOR_NXDOMAIN):
            raise ValueError(f"unknown block_behavior {self.block_behavior!r}")
        if isinstance(self.blocklist, str):
            raise ValueError(f"blocklist must be a list of names, got {self.blocklist!r}")
        for address in (self.sinkhole_ip, self.default_answer):
            ipaddress.IPv4Address(str(address))  # ValueError for anything else
        return self._replace(blocklist=frozenset(map(str.lower, self.blocklist)))

    @classmethod
    def from_config(cls, doc: dict) -> "MockProviderSpec":
        """One farm-file provider, ``listen`` in a resolver address form such
        as ``[::1]:0``; KeyError, TypeError or ValueError for a bad setting."""
        return cls(
            provider_id=doc["provider_id"],
            listen=_parse_address(doc.get("listen", "127.0.0.1:0")),
            blocklist=doc.get("blocklist", ()),
            block_behavior=doc.get("block_behavior", BEHAVIOR_SINKHOLE_A),
            sinkhole_ip=doc.get("sinkhole_ip", "0.0.0.0"),
            default_answer=doc.get("default_answer", "203.0.113.1"),
            latency_ms=doc.get("latency_ms", 0),
            drop_rate=doc.get("drop_rate", 0.0),
            truncate=doc.get("truncate", False),
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
    """Serves one UDP listener per provider spec, plus a TCP listener on the
    same port for ``truncate`` providers, from one loop thread; start/stop
    are idempotent."""

    def __init__(self, specs: list[MockProviderSpec], seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self.addresses: dict[str, tuple[str, int]] = {}
        self._sockets: dict[str, socket.socket] = {}
        self._tcp_sockets: dict[str, socket.socket] = {}
        self._thread: threading.Thread | None = None
        self._stop = None  # resolves the loop thread's stop future

    def start(self) -> "MockDnsFarm":
        if self._thread is not None:
            return self
        for spec in self.specs:
            try:
                sock = self._bind(spec)
            except OSError as exc:
                self.stop()
                raise BindError(f"{spec.provider_id}: cannot bind {spec.listen}: {exc}")
            self._sockets[spec.provider_id] = sock
            self.addresses[spec.provider_id] = sock.getsockname()[:2]
        ready = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(ready,), daemon=True)
        self._thread.start()
        ready.wait()
        return self

    def _bind(self, spec: MockProviderSpec) -> socket.socket:
        """The UDP socket; a truncating provider also gets a TCP listener on
        its port, and an ephemeral port that TCP finds taken is retried."""
        family = socket.AF_INET6 if ":" in spec.listen[0] else socket.AF_INET
        for attempt in range(8):
            sock = socket.socket(family, socket.SOCK_DGRAM)
            try:
                sock.bind(spec.listen)
                if spec.truncate:
                    self._tcp_sockets[spec.provider_id] = socket.create_server(
                        sock.getsockname()[:2], family=family)
                sock.setblocking(False)
                return sock
            except OSError:
                sock.close()
                if spec.listen[1] or attempt == 7:
                    raise

    def _run(self, ready: threading.Event) -> None:
        import asyncio

        library_logs()

        async def serve():
            loop = asyncio.get_running_loop()
            stopped = loop.create_future()
            self._stop = lambda: loop.call_soon_threadsafe(stopped.set_result, None)
            try:
                for spec in self.specs:
                    sock = self._sockets[spec.provider_id]
                    loop.add_reader(sock.fileno(), self._readable, loop, spec, sock)
                    if spec.truncate:
                        await asyncio.start_server(functools.partial(self._serve_tcp, spec),
                                                   sock=self._tcp_sockets[spec.provider_id])
            finally:
                ready.set()
            await stopped  # asyncio.run then ends the TCP exchanges and closes the loop

        asyncio.run(serve())

    def _readable(self, loop, spec: MockProviderSpec, sock: socket.socket) -> None:
        """Drain the socket, answering each query after the provider's latency."""
        while True:
            try:
                data, addr = sock.recvfrom(4096)
            except OSError:
                return  # BlockingIOError: nothing more queued
            if (reply := respond(spec, self.seed, data)) is None:
                continue
            if spec.latency_ms:
                loop.call_later(spec.latency_ms / 1000.0, _send, sock, reply, addr)
            else:
                _send(sock, reply, addr)

    async def _serve_tcp(self, spec: MockProviderSpec, reader, writer) -> None:
        """Answer one length-prefixed query (RFC 7766), then close."""
        import asyncio

        try:
            length = await asyncio.wait_for(reader.readexactly(2), 2.0)
            data = await asyncio.wait_for(reader.readexactly(int.from_bytes(length, "big")), 2.0)
            reply = respond(spec, self.seed, data, tcp=True)
            if reply is not None:
                await asyncio.sleep(spec.latency_ms / 1000.0)
                writer.write(len(reply).to_bytes(2, "big") + reply)
                await writer.drain()
        except (asyncio.IncompleteReadError, asyncio.TimeoutError, OSError):
            pass
        finally:
            writer.close()

    def stop(self):
        if self._thread is not None:
            self._stop()
            self._thread.join()
            self._thread = self._stop = None
        for sock in [*self._sockets.values(), *self._tcp_sockets.values()]:
            sock.close()
        self._sockets.clear()
        self._tcp_sockets.clear()

    def manifest(self) -> dict:
        return {
            "seed": self.seed,
            "providers": [
                {
                    "provider_id": spec.provider_id,
                    "address": _format_address(self.addresses[spec.provider_id]),
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


def _send(sock: socket.socket, reply: bytes, addr) -> None:
    with contextlib.suppress(OSError):  # a full buffer: lost like a dropped datagram
        sock.sendto(reply, addr)


def load_farm_config(path) -> MockDnsFarm:
    """Load a farm config file: {"providers": [spec...], "seed": int}.
    KeyError, TypeError or ValueError for a file that is not such JSON."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or type(doc.get("seed", 0)) is not int:
        raise ValueError("a farm file is an object with a providers list and an int seed")
    specs = [MockProviderSpec.from_config(p) for p in doc.get("providers", [])]
    return MockDnsFarm(specs, seed=doc.get("seed", 0))
