"""Asynchronous DNS queries over UDP with TCP fallback, from one asyncio loop.

Each endpoint gets a fixed pool of connected UDP sockets, and each socket a
table of pending transaction ids.  A datagram completes a query only when it
comes from the endpoint (the connected socket drops other sources), is a
response to a pending txid and echoes that query's question (RFC 5452 §9.1);
anything else is dropped.  Resends are driven by loop deadlines: one
timeout's deadlines come in send order, so each distinct timeout has one
deque of (deadline, attempt future) and one loop timer for its head.  A
reply with TC set is asked again over TCP (RFC 7766).  A caller that paces
passes ``query`` a slot, awaited before every datagram, a resend included,
and before every TCP connect.  asyncio is imported when a client is made,
so importing this module stays cheap.
"""

import random
import socket
import struct
from collections import defaultdict, deque

from . import dnswire
from .dnswire import DnsResponse, MalformedMessage


class QueryTimeout(Exception):
    """No response within the profile's timeout after all retries."""


# a few source ports per endpoint (RFC 5452 §9.2) without a socket per query
_SOCKETS_PER_ENDPOINT = 4


def _echoes(response: DnsResponse, name: str, qtype: int) -> bool:
    """RFC 5452 §9.1: a reply must be a response that echoes the question."""
    return (
        response.is_response
        and len(response.questions) == 1
        and response.questions[0].qtype == qtype
        and response.questions[0].name.rstrip(".").lower() == name
    )


class _Pending:
    """A query waiting on a UDP socket: the question a reply must echo, the
    future that wakes the current attempt, the reply that completed the
    query, and whether an undecodable reply came."""

    __slots__ = ("name", "qtype", "future", "response", "malformed")

    def __init__(self, name: str, qtype: int):
        self.name, self.qtype = name, qtype
        self.future = None
        self.response: DnsResponse | None = None
        self.malformed = False


async def _now() -> None:
    """The slot of an unpaced query: every send is due at once."""


async def _tcp_exchange(address: tuple[str, int], message: bytes) -> bytes:
    import asyncio

    reader, writer = await asyncio.open_connection(address[0], address[1])
    try:
        writer.write(struct.pack("!H", len(message)) + message)
        (length,) = struct.unpack("!H", await reader.readexactly(2))
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise MalformedMessage("TCP stream closed mid-message") from None
    finally:
        writer.close()


class DnsClient:
    """Sends DNS queries from the running asyncio loop; create it inside that
    loop and close it before the loop ends.  An endpoint's sockets are taken
    in turn, so concurrent queries share them yet keep several source ports
    (RFC 5452 §9.2)."""

    def __init__(self):
        import asyncio

        self._loop = asyncio.get_running_loop()
        self._pools: dict[tuple[str, int], list[tuple[socket.socket, dict]]] = {}
        self._turn = 0
        # per timeout: unexpired attempts as (deadline, future), and the timer of the head
        self._deadlines: dict[float, deque] = defaultdict(deque)
        self._timers: dict[float, object] = {}

    def close(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for pool in self._pools.values():
            for sock, _pending in pool:
                self._loop.remove_reader(sock.fileno())
                sock.close()
        self._pools.clear()

    def _socket(self, address: tuple[str, int]) -> tuple[socket.socket, dict]:
        pool = self._pools.get(address)
        if pool is None:
            family, _, _, _, sockaddr = socket.getaddrinfo(
                address[0], address[1], type=socket.SOCK_DGRAM)[0]
            socks = []
            try:
                for _ in range(_SOCKETS_PER_ENDPOINT):
                    socks.append(socket.socket(family, socket.SOCK_DGRAM))
                    socks[-1].setblocking(False)
                    socks[-1].connect(sockaddr)  # the kernel drops other sources
            except OSError:
                for sock in socks:
                    sock.close()
                raise
            pool = self._pools[address] = [(sock, {}) for sock in socks]
            for sock, pending in pool:
                self._loop.add_reader(sock.fileno(), _readable, sock, pending)
        self._turn += 1
        return pool[self._turn % _SOCKETS_PER_ENDPOINT]

    def _arm(self, timeout_s: float, deadline: float, future) -> None:
        """Wake ``future`` at ``deadline``, ``timeout_s`` after its send,
        unless it is done by then.  Answered heads are popped here, so the
        deque holds only attempts in flight or not yet expired."""
        queue = self._deadlines[timeout_s]
        while queue and queue[0][1].done():
            queue.popleft()
        queue.append((deadline, future))
        if timeout_s not in self._timers:
            self._timers[timeout_s] = self._loop.call_at(deadline, self._expire, timeout_s)

    def _expire(self, timeout_s: float) -> None:
        """Wake every due, unanswered attempt of one timeout; re-arm for the next."""
        queue, now = self._deadlines[timeout_s], self._loop.time()
        while queue and (queue[0][0] <= now or queue[0][1].done()):
            future = queue.popleft()[1]
            if not future.done():
                future.set_result(None)
        if queue:
            self._timers[timeout_s] = self._loop.call_at(queue[0][0], self._expire, timeout_s)
        else:
            del self._timers[timeout_s]

    async def query(
        self, address: tuple[str, int], domain: str, qtype: int = dnswire.TYPE_A,
        *, timeout_ms: int = 3000, retries: int = 2, transport: str = "udp+tcp",
        qname: bytes | None = None, slot=_now,
    ) -> DnsResponse:
        """One resolution attempt chain: UDP first, TCP on truncation, resends
        on timeout.  ``qname`` is ``domain`` as encode_name encodes it, for a
        caller that has it.  ``await slot()`` returns when the next send to
        the endpoint is due; it is awaited before each datagram and each TCP
        connect.  Raises QueryTimeout / MalformedMessage / OSError."""
        timeout_s = timeout_ms / 1000.0
        name = domain.rstrip(".").lower()
        if transport != "tcp":
            response = await self._udp(address, domain, qname or domain, name, qtype,
                                       timeout_s, retries, slot)
            if not response.truncated:
                return response
        import asyncio

        txid = random.getrandbits(16)
        message = dnswire.build_query(qname or domain, qtype, txid)
        for _attempt in range(retries + 1):
            await slot()
            started = self._loop.time()
            try:
                data = await asyncio.wait_for(_tcp_exchange(address, message), timeout_s)
            except asyncio.TimeoutError:
                continue
            response = dnswire.parse_response(data)
            if response.txid != txid or not _echoes(response, name, qtype):
                raise MalformedMessage("TCP response does not match the query")
            return response._replace(latency_ms=int((self._loop.time() - started) * 1000))
        raise QueryTimeout(f"{domain} via {address[0]} port {address[1]} over TCP")

    async def _udp(self, address, domain, qname, name, qtype, timeout_s, retries,
                   slot) -> DnsResponse:
        loop = self._loop
        sock, pending = self._socket(address)
        txid = random.getrandbits(16)
        while txid in pending:
            txid = random.getrandbits(16)
        message = dnswire.build_query(qname, qtype, txid)
        entry = pending[txid] = _Pending(name, qtype)
        started = loop.time()
        try:
            for _attempt in range(retries + 1):
                entry.future = future = loop.create_future()
                await slot()
                # a late reply to the last send, come while this one waited
                # for its slot, completes the query with nothing sent
                if not future.done():
                    try:
                        sock.send(message)
                    except ConnectionRefusedError:
                        sock.send(message)  # an earlier datagram's ICMP error, reported once
                    except BlockingIOError:
                        pass  # lost like a dropped datagram; the deadline resends it
                    started = loop.time()  # the deadline runs from the actual send
                    self._arm(timeout_s, started + timeout_s, future)
                    await future
                if entry.response is not None:
                    return entry.response._replace(latency_ms=int((loop.time() - started) * 1000))
        finally:
            del pending[txid]
        if entry.malformed:
            raise MalformedMessage(f"undecodable reply for {domain} from {address[0]}")
        raise QueryTimeout(f"{domain} via {address[0]} port {address[1]}")


def _readable(sock: socket.socket, pending: dict) -> None:
    """Drain a socket; a datagram completes the query whose txid it carries
    only if it echoes that query's question.  Anything else is dropped."""
    while True:
        try:
            data = sock.recv(4096)
        except OSError:
            return  # nothing queued, or an ICMP error: the deadline decides
        entry = pending.get(int.from_bytes(data[:2], "big")) if len(data) >= 2 else None
        if entry is None or entry.future.done():
            continue
        try:
            response = dnswire.parse_response(data)
        except MalformedMessage:
            entry.malformed = True
            continue
        if _echoes(response, entry.name, entry.qtype):
            entry.response = response  # the future wakes the query; the deque never holds a reply
            entry.future.set_result(None)
