import asyncio
import collections
import logging
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from admal import dnsclient, dnswire, mockdns
from admal.config import SIG_SINKHOLE_AAAA, _parse_address, default_profiles
from admal.dnsbroker import (
    BLOCKED,
    INCONCLUSIVE,
    NOT_BLOCKED,
    BlockSignature,
    CampaignLimits,
    Classification,
    QueryTimeout,
    ResolverProfile,
    SIG_NXDOMAIN,
    SIG_REFUSED,
    SIG_SINKHOLE_A,
    SIG_ZERO_ANSWER,
    classify,
    matches,
    run_campaign,
)
from admal.dnsclient import DnsClient
from admal.dnswire import MalformedMessage, Question, build_response, parse_response
from admal.repository import KIND_DNS, KIND_TI, Repository, StorageError, VerdictRecord


def resp(rcode=0, answers=(), txid=0):
    return parse_response(
        build_response(txid, Question("q.example", dnswire.TYPE_A),
                       rcode=rcode, answers=answers)
    )


def a_answer(ip, name="q.example", ttl=60):
    return (name, dnswire.TYPE_A, ttl, ip)


def aaaa_answer(ip, name="q.example", ttl=60):
    return (name, dnswire.TYPE_AAAA, ttl, ip)


SINK_A = BlockSignature(SIG_SINKHOLE_A, ("0.0.0.0",))
SINK_AAAA = BlockSignature(SIG_SINKHOLE_AAAA, ("::",))
NX = BlockSignature(SIG_NXDOMAIN)


def profile(signatures, control=("198.51.100.53", 53)):
    return ResolverProfile(
        provider_id="p",
        display_name="P",
        filtered_address=("198.51.100.1", 53),
        control_address=control,
        blocked_signatures=tuple(signatures),
        timeout_ms=500,
        retries=0,
    )


class TestBlockSignature:
    def test_sinkhole_a_match(self):
        assert matches(SINK_A, resp(answers=(a_answer("0.0.0.0"),)))
        assert not matches(SINK_A, resp(answers=(a_answer("203.0.113.9"),)))

    def test_sinkhole_aaaa_match(self):
        assert matches(SINK_AAAA, resp(answers=(aaaa_answer("::"),)))
        assert not matches(SINK_AAAA, resp(answers=(aaaa_answer("2001:db8::1"),)))

    def test_sinkhole_ignores_error_rcodes(self):
        assert not matches(SINK_A, resp(rcode=dnswire.RCODE_NXDOMAIN))

    def test_nxdomain_match(self):
        assert matches(NX, resp(rcode=dnswire.RCODE_NXDOMAIN))
        assert not matches(NX, resp())

    def test_refused_match(self):
        sig = BlockSignature(SIG_REFUSED)
        assert matches(sig, resp(rcode=dnswire.RCODE_REFUSED))
        assert not matches(sig, resp())

    def test_zero_answer_match(self):
        sig = BlockSignature(SIG_ZERO_ANSWER)
        assert matches(sig, resp())
        assert not matches(sig, resp(answers=(a_answer("203.0.113.9"),)))
        assert not matches(sig, resp(rcode=dnswire.RCODE_NXDOMAIN))

    def test_sinkhole_requires_ips(self):
        with pytest.raises(ValueError):
            BlockSignature(SIG_SINKHOLE_A)

    def test_config_round_trip(self):
        sig = BlockSignature(SIG_SINKHOLE_A, ("146.112.61.104", "146.112.61.105"))
        assert BlockSignature.from_config(sig.to_config()) == sig


class TestClassify:
    def test_sinkhole_with_resolving_control_blocked(self):
        result = classify(
            resp(answers=(a_answer("0.0.0.0"),)),
            resp(answers=(a_answer("93.184.216.34"),)),
            profile([SINK_A]),
        )
        assert result.verdict == BLOCKED
        assert result.matched_signature == "sinkhole_a:0.0.0.0"

    def test_nxdomain_on_both_inconclusive(self):
        result = classify(
            resp(rcode=dnswire.RCODE_NXDOMAIN),
            resp(rcode=dnswire.RCODE_NXDOMAIN),
            profile([NX]),
        )
        assert result.verdict == INCONCLUSIVE
        assert result.reason == "nxdomain-on-control"

    def test_clean_answer_not_blocked(self):
        result = classify(resp(answers=(a_answer("203.0.113.9"),)), None, profile([SINK_A]))
        assert result.verdict == NOT_BLOCKED

    def test_signature_without_control_blocked(self):
        result = classify(resp(rcode=dnswire.RCODE_NXDOMAIN), None, profile([NX]))
        assert result.verdict == BLOCKED
        assert result.matched_signature == "nxdomain"

    def test_control_servfail_inconclusive(self):
        result = classify(
            resp(rcode=dnswire.RCODE_NXDOMAIN),
            resp(rcode=dnswire.RCODE_SERVFAIL),
            profile([NX]),
        )
        assert result == Classification(INCONCLUSIVE, reason="control-not-resolving")

    @pytest.mark.parametrize(
        "rcode,reason",
        [
            (dnswire.RCODE_NXDOMAIN, "nxdomain"),
            (dnswire.RCODE_SERVFAIL, "servfail"),
            (dnswire.RCODE_REFUSED, "refused"),
            (9, "rcode-9"),
        ],
    )
    def test_unmatched_failures_inconclusive(self, rcode, reason):
        result = classify(resp(rcode=rcode), None, profile([SINK_A]))
        assert result.verdict == INCONCLUSIVE
        assert result.reason == reason

    def test_noerror_without_addresses_inconclusive(self):
        result = classify(resp(), None, profile([SINK_A]))
        assert result == Classification(INCONCLUSIVE, reason="no-address-answers")

    def test_inconclusive_requires_reason(self):
        with pytest.raises(ValueError):
            Classification(INCONCLUSIVE)

    def test_blocked_requires_signature(self):
        with pytest.raises(ValueError):
            Classification(BLOCKED)

    def test_deterministic(self):
        filtered = resp(answers=(a_answer("0.0.0.0"),))
        control = resp(answers=(a_answer("1.2.3.4"),))
        first = classify(filtered, control, profile([SINK_A]))
        assert all(
            classify(filtered, control, profile([SINK_A])) == first for _ in range(20)
        )


class TestProfiles:
    def test_default_profiles(self):
        profiles = default_profiles()
        ids = [p.provider_id for p in profiles]
        assert len(ids) == len(set(ids)) == 3
        by_id = {p.provider_id: p for p in profiles}
        assert by_id["cloudflare"].filtered_address == ("1.1.1.2", 53)
        assert by_id["cloudflare"].control_address == ("1.1.1.1", 53)
        assert by_id["quad9"].blocked_signatures[0].kind == SIG_NXDOMAIN
        assert by_id["cisco"].blocked_signatures[0].sinkhole_ips  # overridable

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            ResolverProfile("x", "X", ("127.0.0.1", 53), timeout_ms=0)

    @pytest.mark.parametrize("text,address", [
        ("9.9.9.9", ("9.9.9.9", 53)),
        ("127.0.0.1:5353", ("127.0.0.1", 5353)),
        ("2620:fe::fe", ("2620:fe::fe", 53)),
        ("[2620:fe::fe]", ("2620:fe::fe", 53)),
        ("[2620:fe::fe]:5353", ("2620:fe::fe", 5353)),
    ])
    def test_address_forms(self, text, address):
        assert _parse_address(text) == address

    @pytest.mark.parametrize("text", ["[2620:fe::fe", "[2620:fe::fe]53", "1.1.1.1:x",
                                      "127.0.0.1:70000", "127.0.0.1:-1", "[::1]:70000"])
    def test_bad_address_rejected(self, text):
        with pytest.raises(ValueError):
            _parse_address(text)

    def test_ipv6_from_config(self):
        doc = {"provider_id": "q6", "display_name": "Q6",
               "filtered_address": "[2620:fe::fe]:53", "control_address": "[::1]:5353"}
        assert ResolverProfile.from_config(doc) == ResolverProfile(
            "q6", "Q6", ("2620:fe::fe", 53), control_address=("::1", 5353))


CONTROL = ("198.51.100.250", 53)

StubCall = collections.namedtuple(
    "StubCall", "time address domain qtype timeout_ms retries transport")


class StubClient:
    """Canned resolver with DnsClient's query signature: the CONTROL address
    always resolves, every other address sinkholes the domains in
    ``blocked`` (every domain when ``blocked`` is None).  Each call awaits
    its slot and is then recorded, with its loop time, before ``fail(calls)``
    may name an exception to raise in place of the answer."""

    def __init__(self, blocked=frozenset(), fail=None):
        self.blocked, self.fail = blocked, fail
        self.calls: list[StubCall] = []
        self.closed = False

    async def query(self, address, domain, qtype=dnswire.TYPE_A, *, timeout_ms=3000,
                    retries=2, transport="udp+tcp", slot=None):
        if slot is not None:
            await slot()
        self.calls.append(StubCall(asyncio.get_running_loop().time(), address, domain, qtype,
                                   timeout_ms, retries, transport))
        if self.fail is not None and (exc := self.fail(self.calls)) is not None:
            raise exc
        sinkholed = address != CONTROL and (self.blocked is None or domain in self.blocked)
        ip = "0.0.0.0" if sinkholed else "93.184.216.34"
        return parse_response(build_response(1, Question(domain, qtype),
                                             answers=((domain, dnswire.TYPE_A, 60, ip),)))

    def close(self):
        self.closed = True


class TestPacing:
    def test_shared_control_endpoint_paced(self, tmp_path):
        """Two profiles send their control queries to one endpoint; the rate
        holds at that endpoint, not once per profile."""
        profiles = [
            ResolverProfile(f"prov{i}", f"P{i}", ("198.51.100.1", 53 + i),
                            control_address=CONTROL, blocked_signatures=(SINK_A,))
            for i in range(2)
        ]
        client = StubClient(blocked=None)
        qps = 40.0
        with Repository(tmp_path / "repo") as repo:
            summary = run_campaign([f"d{i}.example" for i in range(8)], profiles,
                                   CampaignLimits(16, qps), repo, "c1", client=client)
        assert summary.written == 16
        for address in {c.address for c in client.calls}:
            # the k-th query to an endpoint waits for slot k of its schedule
            times = sorted(c.time for c in client.calls if c.address == address)
            for k, t in enumerate(times):
                assert t - times[0] >= k / qps - 1e-3, (address, k, t - times[0])
        assert sum(1 for c in client.calls if c.address == CONTROL) == 16

    def test_silent_endpoint_gets_at_most_qps_datagrams_a_second(self, tmp_path):
        """Resends take slots too: against an endpoint that answers nothing,
        no second holds more than per_provider_qps datagrams."""
        silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        silent.bind(("127.0.0.1", 0))
        silent.settimeout(0.05)
        arrivals, done = [], threading.Event()

        def receive():
            while not done.is_set():
                try:
                    silent.recv(512)
                except OSError:
                    continue
                arrivals.append(time.monotonic())

        receiver = threading.Thread(target=receive, daemon=True)
        receiver.start()
        profile = ResolverProfile("mute", "M", silent.getsockname()[:2], timeout_ms=200,
                                  retries=2)
        qps = 20
        try:
            with Repository(tmp_path / "repo") as repo:
                run_campaign([f"d{i}.example" for i in range(10)], [profile],
                             CampaignLimits(16, qps), repo, "c1")
                reasons = {r.payload["reason"] for r in repo.query("c1")}
        finally:
            done.set()
            receiver.join()
            silent.close()
        assert reasons == {"timeout"}
        assert len(arrivals) == 30  # retries + 1 datagrams per query
        # any qps + 1 datagrams span a second; 50 ms (one interval) of slack
        # for the receiving thread's wake-ups
        assert all(arrivals[i + qps] - arrivals[i] >= 0.95 for i in range(len(arrivals) - qps))

    def test_tcp_connects_take_slots(self, tmp_path, monkeypatch):
        """A truncating provider's TCP attempt waits for its slot, as the UDP
        datagram that drew the truncated reply did."""
        arrivals = []
        respond = mockdns.respond

        def timed(spec, seed, data, **kw):
            arrivals.append((time.monotonic(), kw.get("tcp", False)))
            return respond(spec, seed, data, **kw)

        monkeypatch.setattr(mockdns, "respond", timed)
        qps = 20.0
        with mockdns.MockDnsFarm([mockdns.MockProviderSpec("tc", truncate=True)]) as farm:
            profile = ResolverProfile("tc", "T", farm.addresses["tc"], timeout_ms=1000,
                                      retries=0)
            with Repository(tmp_path / "repo") as repo:
                run_campaign([f"d{i}.example" for i in range(5)], [profile],
                             CampaignLimits(8, qps), repo, "c1")
                records = repo.query("c1")
        assert {r.payload["evidence"]["filtered"]["tc"] for r in records} == {False}
        assert sorted(tcp for _t, tcp in arrivals) == [False] * 5 + [True] * 5
        times = sorted(t for t, _tcp in arrivals)
        for k, t in enumerate(times):
            # the k-th send waits for slot k; 20 ms of slack for the farm's thread
            assert t - times[0] >= k / qps - 0.02, (k, t - times[0])

    def test_paced_dropping_provider_gets_retries_plus_one_sends(self, tmp_path,
                                                                 monkeypatch):
        sends = []
        respond = mockdns.respond

        def counting(spec, seed, data, **kw):
            sends.append(parse_response(data).questions[0].name)
            return respond(spec, seed, data, **kw)

        monkeypatch.setattr(mockdns, "respond", counting)
        names = [f"d{i}.example" for i in range(6)]
        with mockdns.MockDnsFarm([mockdns.MockProviderSpec("p", drop_rate=1.0)]) as farm:
            profile = ResolverProfile("p", "P", farm.addresses["p"], timeout_ms=80, retries=2)
            with Repository(tmp_path / "repo") as repo:
                run_campaign(names, [profile], CampaignLimits(6, 200.0), repo, "c1")
                reasons = [r.payload["reason"] for r in repo.query("c1")]
        assert reasons == ["timeout"] * 6
        assert sorted(sends) == sorted(names * 3)

    def test_rejects_nonpositive_rate(self):
        for limits in ({"per_provider_qps": 0}, {"max_inflight": 0},
                       {"max_inflight": True}, {"max_inflight": 2.9},
                       {"per_provider_qps": float("inf")}):
            with pytest.raises(ValueError):
                CampaignLimits(**limits)


def udp_oneshot_server(replies):
    """Serve canned reply builders on an ephemeral UDP port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    addr = sock.getsockname()[:2]

    def run():
        for build in replies:
            try:
                data, peer = sock.recvfrom(4096)
            except OSError:
                return
            reply = build(data)
            if reply is not None:
                sock.sendto(reply, peer)
        sock.close()

    threading.Thread(target=run, daemon=True).start()
    return addr


def query_endpoint(address, domain, **kwargs):
    """One DnsClient.query on a fresh loop."""
    async def run():
        client = DnsClient()
        try:
            return await client.query(address, domain, **kwargs)
        finally:
            client.close()

    return asyncio.run(run())


class TestQueryEndpoint:
    def test_mock_roundtrip(self):
        spec = mockdns.MockProviderSpec(
            "p", ("127.0.0.1", 0), frozenset({"bad.example"}), "sinkhole_a"
        )
        with mockdns.MockDnsFarm([spec]) as farm:
            r = query_endpoint(farm.addresses["p"], "bad.example", timeout_ms=1000)
            assert r.address_answers() == ("0.0.0.0",)
            assert r.latency_ms >= 0

    def test_timeout_after_retries(self):
        spec = mockdns.MockProviderSpec(
            "p", ("127.0.0.1", 0), frozenset(), "nxdomain", drop_rate=1.0
        )
        with mockdns.MockDnsFarm([spec]) as farm:
            started = time.monotonic()
            with pytest.raises(QueryTimeout):
                query_endpoint(farm.addresses["p"], "x.example",
                               timeout_ms=150, retries=1)
            assert time.monotonic() - started >= 0.3  # two full attempts

    def test_late_reply_while_the_resend_waits_for_its_slot(self):
        """A reply to the first datagram that comes past its deadline, while
        the resend waits for its slot, completes the query unsent."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(0.5)
        received = []

        def run():
            data, peer = sock.recvfrom(4096)
            received.append(data)
            time.sleep(0.15)  # past the 100 ms deadline, within the resend's wait
            parsed = parse_response(data)
            sock.sendto(build_response(parsed.txid, parsed.questions[0], answers=(
                (parsed.questions[0].name, dnswire.TYPE_A, 60, "1.2.3.4"),)), peer)
            try:
                received.append(sock.recv(4096))
            except OSError:
                pass
            sock.close()

        server = threading.Thread(target=run, daemon=True)
        server.start()
        slots = []

        async def slot():
            slots.append(None)
            if len(slots) == 2:
                await asyncio.sleep(0.3)

        r = query_endpoint(sock.getsockname()[:2], "late.example", timeout_ms=100, retries=1,
                           slot=slot)
        server.join()
        assert r.address_answers() == ("1.2.3.4",)
        assert (len(slots), len(received)) == (2, 1)
        # from the send to the reply's arrival, not to the end of the slot's wait
        assert 150 <= r.latency_ms < 300

    def test_stray_txid_ignored(self):
        def wrong_then_right(data):
            parsed = parse_response(data)
            question = parsed.questions[0]
            wrong = build_response((parsed.txid + 1) & 0xFFFF, question,
                                   answers=((question.name, dnswire.TYPE_A, 60, "9.9.9.9"),))
            return wrong

        def right(data):
            parsed = parse_response(data)
            question = parsed.questions[0]
            return build_response(parsed.txid, question,
                                  answers=((question.name, dnswire.TYPE_A, 60, "1.2.3.4"),))

        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        addr = sock.getsockname()[:2]

        def run():
            data, peer = sock.recvfrom(4096)
            sock.sendto(wrong_then_right(data), peer)
            sock.sendto(right(data), peer)
            sock.close()

        threading.Thread(target=run, daemon=True).start()
        r = query_endpoint(addr, "s.example", timeout_ms=2000)
        assert r.address_answers() == ("1.2.3.4",)

    def test_tcp_fallback_on_truncation(self):
        """UDP answers TC=1; the client retries the same query over TCP."""
        tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        tcp.bind(("127.0.0.1", 0))
        tcp.listen(1)
        tcp_addr = tcp.getsockname()[:2]

        def tcp_run():
            conn, _ = tcp.accept()
            length = struct.unpack("!H", conn.recv(2))[0]
            data = conn.recv(length)
            parsed = parse_response(data)
            question = parsed.questions[0]
            reply = build_response(parsed.txid, question,
                                   answers=((question.name, dnswire.TYPE_A, 60, "5.6.7.8"),))
            conn.sendall(struct.pack("!H", len(reply)) + reply)
            conn.close()
            tcp.close()

        threading.Thread(target=tcp_run, daemon=True).start()

        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        udp.bind(("127.0.0.1", tcp_addr[1]))  # same port so fallback finds it
        udp_addr = udp.getsockname()[:2]

        def udp_run():
            data, peer = udp.recvfrom(4096)
            parsed = parse_response(data)
            udp.sendto(build_response(parsed.txid, parsed.questions[0], tc=True), peer)
            udp.close()

        threading.Thread(target=udp_run, daemon=True).start()
        r = query_endpoint(udp_addr, "t.example", timeout_ms=2000)
        assert r.address_answers() == ("5.6.7.8",)

    def test_tcp_transport_direct(self):
        tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        tcp.bind(("127.0.0.1", 0))
        tcp.listen(1)
        addr = tcp.getsockname()[:2]

        def run():
            conn, _ = tcp.accept()
            length = struct.unpack("!H", conn.recv(2))[0]
            parsed = parse_response(conn.recv(length))
            reply = build_response(parsed.txid, parsed.questions[0],
                                   rcode=dnswire.RCODE_NXDOMAIN)
            conn.sendall(struct.pack("!H", len(reply)) + reply)
            conn.close()
            tcp.close()

        threading.Thread(target=run, daemon=True).start()
        r = query_endpoint(addr, "t.example", timeout_ms=2000, transport="tcp")
        assert r.rcode == dnswire.RCODE_NXDOMAIN

    def test_closed_port_times_out(self):
        """ICMP port-unreachable errors on the shared connected sockets are
        not failures of their own: every query times out, as it would on an
        unconnected socket."""
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()[:2]
        probe.close()

        async def run():
            client = DnsClient()
            try:
                return await asyncio.gather(*(
                    client.query(addr, f"c{i}.example", timeout_ms=100, retries=2)
                    for i in range(32)), return_exceptions=True)
            finally:
                client.close()

        outcomes = asyncio.run(run())
        assert {type(o) for o in outcomes} == {QueryTimeout}

    def test_ipv6_endpoint(self):
        try:
            sock = socket.socket(socket.AF_INET6, socket.SOCK_DGRAM)
            sock.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback")
        addr = sock.getsockname()[:2]

        def run():
            data, peer = sock.recvfrom(4096)
            parsed = parse_response(data)
            question = parsed.questions[0]
            sock.sendto(build_response(parsed.txid, question, answers=(
                (question.name, dnswire.TYPE_A, 60, "7.7.7.7"),)), peer)
            sock.close()

        threading.Thread(target=run, daemon=True).start()
        r = query_endpoint(addr, "v6.example", timeout_ms=2000)
        assert r.address_answers() == ("7.7.7.7",)


class TestDeadlineQueues:
    def test_each_timeout_expires_on_its_own(self):
        """Two profiles' timeouts on one client: each query times out after
        its own timeout times its attempts, not after the other's."""
        silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        silent.bind(("127.0.0.1", 0))
        addr = silent.getsockname()[:2]
        fast = ResolverProfile("fast", "F", addr, timeout_ms=150, retries=1)
        slow = ResolverProfile("slow", "S", addr, timeout_ms=500, retries=0)

        async def timed(client, profile, domain):
            started = time.monotonic()
            with pytest.raises(QueryTimeout):
                await client.query(addr, domain, timeout_ms=profile.timeout_ms,
                                   retries=profile.retries)
            return time.monotonic() - started

        async def run():
            client = DnsClient()
            try:
                elapsed = await asyncio.gather(timed(client, slow, "s.example"),
                                               timed(client, fast, "f.example"))
                return elapsed
            finally:
                client.close()

        try:
            slow_s, fast_s = asyncio.run(run())
        finally:
            silent.close()
        assert 0.3 <= fast_s < slow_s
        assert slow_s >= 0.5

    def test_dropping_provider_gets_retries_plus_one_sends(self, monkeypatch):
        # the farm's drop decision is a pure function of (seed, qname), so
        # drop_rate 1.0 drops every resend of a query too
        sends = []
        respond = mockdns.respond

        def counting(spec, seed, data, **kw):
            sends.append(parse_response(data).questions[0].name)
            return respond(spec, seed, data, **kw)

        monkeypatch.setattr(mockdns, "respond", counting)
        spec = mockdns.MockProviderSpec("p", ("127.0.0.1", 0), frozenset(), drop_rate=1.0)
        names = [f"d{i}.example" for i in range(6)]

        async def run(address):
            client = DnsClient()
            try:
                return await asyncio.gather(*(
                    client.query(address, name, timeout_ms=80, retries=2) for name in names),
                    return_exceptions=True)
            finally:
                client.close()

        with mockdns.MockDnsFarm([spec]) as farm:
            outcomes = asyncio.run(run(farm.addresses["p"]))
        assert {type(o) for o in outcomes} == {QueryTimeout}
        assert sorted(sends) == sorted(names * 3)

    def test_an_ended_attempt_cancels_its_timer(self, monkeypatch):
        """An attempt answered at once and one cancelled while it waits leave
        no deadline behind to fire."""
        woken, wake = [], dnsclient._wake

        def recording(future):
            woken.append(future)
            wake(future)  # a slow reply fails the test rather than hanging it

        monkeypatch.setattr(dnsclient, "_wake", recording)
        silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        silent.bind(("127.0.0.1", 0))
        spec = mockdns.MockProviderSpec("p", ("127.0.0.1", 0), frozenset())

        async def run(address):
            client = DnsClient()
            try:
                answered = await client.query(address, "a.example", timeout_ms=100)
                waiting = asyncio.ensure_future(client.query(
                    silent.getsockname()[:2], "c.example", timeout_ms=100))
                await asyncio.sleep(0.02)  # sent, and awaiting its reply
                waiting.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await waiting
                await asyncio.sleep(0.2)  # past both deadlines
                return answered
            finally:
                client.close()

        try:
            with mockdns.MockDnsFarm([spec]) as farm:
                answered = asyncio.run(run(farm.addresses["p"]))
        finally:
            silent.close()
        assert answered.rcode == dnswire.RCODE_NOERROR
        assert woken == []


class TestRunCampaign:
    def make_profiles(self, n=3):
        return [
            ResolverProfile(
                provider_id=f"prov{i}",
                display_name=f"Prov {i}",
                filtered_address=("198.51.100.1", 53 + i),
                control_address=CONTROL,
                blocked_signatures=(SINK_A,),
                timeout_ms=200,
                retries=0,
            )
            for i in range(n)
        ]

    def test_cardinality(self, tmp_path):
        domains = [f"d{i}.example" for i in range(10)]
        client = StubClient()
        with Repository(tmp_path / "repo") as repo:
            summary = run_campaign(
                domains, self.make_profiles(), CampaignLimits(8, 1000.0),
                repo, "c1", client=client,
            )
            assert summary.written == 30
            assert len(repo.query("c1", kind=KIND_DNS)) == 30
        assert client.closed

    def test_resume_skips_existing(self, tmp_path):
        domains = [f"d{i}.example" for i in range(10)]
        profiles = self.make_profiles()
        with Repository(tmp_path / "repo") as repo:
            for domain in domains[:4]:
                repo.upsert(VerdictRecord(
                    domain=domain, provider_id="prov0", campaign_id="c1",
                    kind=KIND_DNS,
                    payload={"verdict": "not_blocked", "reason": None,
                             "evidence": {}, "queried_at": "x"},
                    recorded_at="x",
                ))
            summary = run_campaign(
                domains, profiles, CampaignLimits(8, 1000.0),
                repo, "c1", client=StubClient(),
            )
            assert summary.skipped_existing == 4
            assert summary.written == 26
            assert len(repo.query("c1", kind=KIND_DNS)) == 30

    def test_control_only_queried_on_signature_match(self, tmp_path):
        client = StubClient({"blocked.example"})
        domains = ["blocked.example", "clean.example"]
        profiles = self.make_profiles(1)
        with Repository(tmp_path / "repo") as repo:
            run_campaign(domains, profiles, CampaignLimits(1, 1000.0), repo, "c1",
                         client=client)
        control_calls = [c.domain for c in client.calls if c.address == CONTROL]
        assert control_calls == ["blocked.example"]

    def test_verdicts_against_mock_farm(self, tmp_path):
        blocked = {f"bad{i}.example" for i in range(5)}
        corpus = sorted(blocked | {f"ok{i}.example" for i in range(5)})
        specs = [
            mockdns.MockProviderSpec("sink", ("127.0.0.1", 0), frozenset(blocked), "sinkhole_a"),
            mockdns.MockProviderSpec("nx", ("127.0.0.1", 0), frozenset(), "nxdomain"),
            mockdns.MockProviderSpec("ctrl", ("127.0.0.1", 0), frozenset(), "nxdomain"),
        ]
        with mockdns.MockDnsFarm(specs) as farm:
            profiles = [
                ResolverProfile("sink", "S", farm.addresses["sink"],
                                control_address=farm.addresses["ctrl"],
                                blocked_signatures=(SINK_A,), timeout_ms=1000, retries=1),
                ResolverProfile("nx", "N", farm.addresses["nx"],
                                control_address=farm.addresses["ctrl"],
                                blocked_signatures=(NX,), timeout_ms=1000, retries=1),
            ]
            with Repository(tmp_path / "repo") as repo:
                run_campaign(corpus, profiles, CampaignLimits(16, 10_000.0), repo, "c1")
                records = repo.query("c1", kind=KIND_DNS)
                by_provider = {}
                for record in records:
                    if record.payload["verdict"] == BLOCKED:
                        by_provider.setdefault(record.provider_id, set()).add(record.domain)
                assert by_provider == {"sink": blocked}

    def test_timeouts_become_inconclusive(self, tmp_path):
        spec = mockdns.MockProviderSpec("drop", ("127.0.0.1", 0), frozenset(), "nxdomain",
                                        drop_rate=1.0)
        with mockdns.MockDnsFarm([spec]) as farm:
            profiles = [ResolverProfile("drop", "D", farm.addresses["drop"],
                                        blocked_signatures=(SINK_A,),
                                        timeout_ms=100, retries=0)]
            with Repository(tmp_path / "repo") as repo:
                summary = run_campaign(["a.example", "b.example"], profiles,
                                       CampaignLimits(2, 1000.0), repo, "c1")
                assert summary.inconclusive == {"drop": 2}
                for record in repo.query("c1", kind=KIND_DNS):
                    assert record.payload["verdict"] == INCONCLUSIVE
                    assert record.payload["reason"] == "timeout"

    def test_malformed_reply_becomes_inconclusive(self, tmp_path):
        def garbage(data):
            return data[:2] + b"\xff" * 6  # echo txid, then junk too short

        addr = udp_oneshot_server([garbage])
        profiles = [ResolverProfile("g", "G", addr,
                                    blocked_signatures=(SINK_A,),
                                    timeout_ms=500, retries=0)]
        with Repository(tmp_path / "repo") as repo:
            run_campaign(["m.example"], profiles, CampaignLimits(1, 1000.0), repo, "c1")
            record = repo.query("c1", kind=KIND_DNS)[0]
            assert record.payload["verdict"] == INCONCLUSIVE
            assert record.payload["reason"] == "malformed-response"

    def test_manifest_written(self, tmp_path):
        domains = ["d.example"]
        with Repository(tmp_path / "repo") as repo:
            run_campaign(domains, self.make_profiles(2), CampaignLimits(2, 1000.0),
                         repo, "c9", client=StubClient())
            manifest = repo.read_manifest("c9")
            assert manifest["domains"] == 1
            assert manifest["providers"] == ["prov0", "prov1"]
            assert manifest["started"] <= manifest["finished"]
            assert manifest["inconclusive"] == {"prov0": 0, "prov1": 0}

    def test_manifest_keeps_inconclusive_of_providers_not_scanned(self, tmp_path):
        # "gone" left an inconclusive verdict in an earlier run with another
        # profile list; "quiet" left none, so only "gone" joins the map
        with Repository(tmp_path / "repo") as repo:
            for domain, provider, verdict in [("d.example", "gone", INCONCLUSIVE),
                                              ("e.example", "gone", INCONCLUSIVE),
                                              ("d.example", "quiet", BLOCKED)]:
                repo.upsert(VerdictRecord(domain, provider, "c9", KIND_DNS,
                                          {"verdict": verdict}, "x"))
            summary = run_campaign(["d.example"], self.make_profiles(2),
                                   CampaignLimits(2, 1000.0), repo, "c9",
                                   client=StubClient())
            expected = {"prov0": 0, "prov1": 0, "gone": 2}
            assert summary.inconclusive == expected
            assert repo.read_manifest("c9")["inconclusive"] == expected

    def test_noop_resume_leaves_manifest_alone(self, tmp_path):
        profiles = self.make_profiles(2)
        with Repository(tmp_path / "repo") as repo:
            run_campaign(["d.example"], profiles, CampaignLimits(2, 1000.0),
                         repo, "c9", client=StubClient())
            path = repo.manifest_path("c9")
            before, inode = path.read_bytes(), path.stat().st_ino
            rerun = run_campaign(["d.example"], profiles, CampaignLimits(2, 1000.0),
                                 repo, "c9", client=StubClient())
            assert rerun.written == 0
            assert (path.read_bytes(), path.stat().st_ino) == (before, inode)

    def test_rerun_after_interrupt_rewrites_manifest(self, tmp_path):
        profiles = self.make_profiles(2)
        with Repository(tmp_path / "repo") as repo:
            run_campaign(["d.example"], profiles, CampaignLimits(2, 1000.0),
                         repo, "c9", client=StubClient())
            manifest = repo.read_manifest("c9")
            repo.write_manifest("c9", {**manifest, "interrupted": True})
            run_campaign(["d.example"], profiles, CampaignLimits(2, 1000.0),
                         repo, "c9", client=StubClient())
            rewritten = repo.read_manifest("c9")
            assert rewritten["interrupted"] is False
            assert {**rewritten, "finished": None} == {**manifest, "finished": None}

    def test_pair_whose_record_changed_kind_is_pending(self, tmp_path):
        profiles = self.make_profiles(1)
        with Repository(tmp_path / "repo") as repo:
            run_campaign(["a.example", "b.example"], profiles, CampaignLimits(2, 1000.0),
                         repo, "c1", client=StubClient())
            repo.upsert(VerdictRecord("a.example", "prov0", "c1", KIND_TI,
                                      {"status": "no_report"}, "x"))
            assert repo.held("c1", KIND_DNS, ["a.example", "b.example"], ["prov0"]) == {
                "prov0": b"\x00\x01"}
            rerun = run_campaign(["a.example", "b.example"], profiles,
                                 CampaignLimits(2, 1000.0), repo, "c1",
                                 client=StubClient())
            assert (rerun.written, rerun.skipped_existing) == (1, 1)
            assert repo.get("a.example", "prov0", "c1").kind == KIND_DNS

    def test_order_invariant_verdicts(self, tmp_path):
        domains = [f"d{i}.example" for i in range(12)]
        blocked = {d for i, d in enumerate(domains) if i % 3 == 0}

        def verdicts(order, root):
            with Repository(root) as repo:
                run_campaign(order, self.make_profiles(2), CampaignLimits(4, 1000.0),
                             repo, "c", client=StubClient(blocked))
                return {
                    (r.domain, r.provider_id, r.payload["verdict"])
                    for r in repo.query("c", kind=KIND_DNS)
                }

        forward = verdicts(domains, tmp_path / "f")
        backward = verdicts(list(reversed(domains)), tmp_path / "b")
        assert forward == backward

    def test_unencodable_name_becomes_inconclusive(self, tmp_path):
        domains = ["ok.example", "bad..example"]
        first, second = self.make_profiles(2)
        profiles = [first, second._replace(timeout_ms=700, retries=3, transport="tcp")]
        client = StubClient()
        with Repository(tmp_path / "repo") as repo:
            summary = run_campaign(domains, profiles, CampaignLimits(2, 1000.0),
                                   repo, "c1", client=client)
            # only the encodable name reaches the client, with the settings
            # of the profile it is asked for
            assert sorted(c.address for c in client.calls) == [p.filtered_address
                                                               for p in profiles]
            for call, prof in zip(sorted(client.calls, key=lambda c: c.address), profiles):
                assert (call.domain, call.qtype) == ("ok.example", dnswire.TYPE_A)
                assert (call.timeout_ms, call.retries, call.transport) == (
                    prof.timeout_ms, prof.retries, prof.transport)
            assert summary.written == 4
            assert summary.inconclusive == {"prov0": 1, "prov1": 1}
            for provider in ("prov0", "prov1"):
                payload = repo.get("bad..example", provider, "c1").payload
                assert payload["verdict"] == INCONCLUSIVE
                assert payload["reason"] == "unencodable-name"
            rerun = run_campaign(domains, profiles, CampaignLimits(2, 1000.0),
                                 repo, "c1", client=StubClient())
            assert rerun.written == 0
            assert rerun.skipped_existing == 4

    def test_truncating_farm_matches_plain_farm(self, tmp_path):
        """TC=1 over UDP sends every query to the farm's TCP listener; the
        verdicts are those of a farm that answers in full over UDP."""
        blocked = {f"bad{i}.example" for i in range(4)}
        corpus = sorted(blocked | {f"ok{i}.example" for i in range(4)})

        def verdicts(truncate, root):
            specs = [
                mockdns.MockProviderSpec("sink", blocklist=frozenset(blocked),
                                         truncate=truncate),
                mockdns.MockProviderSpec("nx", blocklist=frozenset(blocked),
                                         block_behavior="nxdomain", truncate=truncate),
                mockdns.MockProviderSpec("ctrl", truncate=truncate),
            ]
            with mockdns.MockDnsFarm(specs) as farm:
                profiles = [
                    ResolverProfile("sink", "S", farm.addresses["sink"],
                                    blocked_signatures=(SINK_A,), timeout_ms=1000),
                    ResolverProfile("nx", "N", farm.addresses["nx"],
                                    control_address=farm.addresses["ctrl"],
                                    blocked_signatures=(NX,), timeout_ms=1000),
                ]
                with Repository(root) as repo:
                    run_campaign(corpus, profiles, CampaignLimits(8, 10_000.0), repo, "c")
                    records = repo.query("c", kind=KIND_DNS)
            return {
                (r.domain, r.provider_id): (
                    r.payload["verdict"], r.payload["reason"],
                    r.payload["evidence"]["matched_signature"],
                    r.payload["evidence"]["filtered"]["tc"],
                )
                for r in records
            }

        truncated = verdicts(True, tmp_path / "tc")
        assert truncated == verdicts(False, tmp_path / "plain")
        assert len(truncated) == 16
        assert {d for (d, p), v in truncated.items() if v[0] == BLOCKED} == blocked

    def test_keyboard_interrupt_marks_manifest(self, tmp_path):
        client = StubClient(fail=lambda calls: KeyboardInterrupt if len(calls) == 5 else None)
        domains = [f"d{i}.example" for i in range(20)]
        with Repository(tmp_path / "repo") as repo:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(domains, self.make_profiles(1), CampaignLimits(1, 1000.0),
                             repo, "c1", client=client)
            assert client.closed
            assert repo.read_manifest("c1")["interrupted"] is True
            assert len(repo.query("c1", kind=KIND_DNS)) == 4
            resumed = run_campaign(domains, self.make_profiles(1),
                                   CampaignLimits(1, 1000.0), repo, "c1",
                                   client=StubClient())
            assert (resumed.skipped_existing, resumed.written) == (4, 16)
            assert repo.read_manifest("c1")["interrupted"] is False

    def test_storage_error_ends_run_and_closes_client(self, tmp_path, monkeypatch):
        def refuse(records):
            raise StorageError("log append failed: disk full")

        client = StubClient()
        with Repository(tmp_path / "repo") as repo:
            monkeypatch.setattr(repo, "upsert_many", refuse)
            with pytest.raises(StorageError, match="disk full"):
                run_campaign(["d.example", "e.example"], self.make_profiles(1),
                             CampaignLimits(2, 1000.0), repo, "c1", client=client)
        assert client.closed

    @pytest.mark.parametrize("exc, on_control, reason", [
        (QueryTimeout, False, "timeout"),
        (MalformedMessage, False, "malformed-response"),
        (OSError, False, "network-error"),
        (QueryTimeout, True, "control-timeout"),
        (MalformedMessage, True, "control-malformed"),
        (OSError, True, "control-network-error"),
    ])
    def test_query_failure_maps_to_reason(self, tmp_path, exc, on_control, reason):
        """The domain is sinkholed, so a control query follows a filtered one
        that answers; either query may fail instead."""
        client = StubClient({"d.example"},
                            fail=lambda calls: exc if (calls[-1].address == CONTROL) == on_control
                            else None)
        with Repository(tmp_path / "repo") as repo:
            run_campaign(["d.example"], self.make_profiles(1), CampaignLimits(1, 1000.0),
                         repo, "c1", client=client)
            payload = repo.get("d.example", "prov0", "c1").payload
        assert (payload["verdict"], payload["reason"]) == (INCONCLUSIVE, reason)
        assert [c.address == CONTROL for c in client.calls] == [False, True][:1 + on_control]

    def test_requires_profiles(self, tmp_path):
        with Repository(tmp_path / "repo") as repo:
            with pytest.raises(ValueError):
                run_campaign(["d.example"], [], CampaignLimits(), repo, "c")


DECOYS = ("wrong-txid", "query-echo", "wrong-name", "wrong-qtype")


def decoy(kind, parsed):
    """A datagram that must not complete the query ``parsed``."""
    question = parsed.questions[0]
    answer = ((question.name, dnswire.TYPE_A, 60, "0.0.0.0"),)
    if kind == "wrong-txid":
        return build_response(parsed.txid ^ 0x5A5A, question, answers=answer)
    if kind == "query-echo":  # QR bit clear
        return dnswire.build_query(question.name, question.qtype, parsed.txid)
    if kind == "wrong-name":
        return build_response(parsed.txid, Question("other." + question.name,
                                                    question.qtype), answers=answer)
    return build_response(parsed.txid, Question(question.name, dnswire.TYPE_AAAA))


def hostile_responder(noise, blocked):
    """UDP resolver that sends ``noise`` (raw bytes and decoys) before each
    true answer; returns (address, stop)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(0.05)
    running = [True]

    def run():
        while running[0]:
            try:
                data, peer = sock.recvfrom(4096)
            except socket.timeout:
                continue
            parsed = parse_response(data)
            question = parsed.questions[0]
            for item in noise:
                sock.sendto(item if isinstance(item, bytes) else decoy(item, parsed), peer)
            ip = "0.0.0.0" if question.name in blocked else "203.0.113.7"
            sock.sendto(build_response(parsed.txid, question, answers=(
                (question.name, dnswire.TYPE_A, 60, ip),)), peer)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def stop():
        running[0] = False
        thread.join(timeout=2)
        sock.close()

    return sock.getsockname()[:2], stop


class TestHostileReplies:
    @settings(max_examples=25, deadline=None)
    @given(noise=st.lists(st.one_of(st.binary(max_size=40), st.sampled_from(DECOYS)),
                          max_size=6))
    def test_every_pair_gets_its_true_verdict(self, tmp_path_factory, noise):
        domains = [f"h{i}.example" for i in range(6)]
        blocked = set(domains[::2])
        errors = []
        handler = logging.Handler(logging.ERROR)
        handler.emit = errors.append
        logging.getLogger("asyncio").addHandler(handler)
        address, stop = hostile_responder(noise, blocked)
        try:
            profiles = [ResolverProfile("h", "H", address, blocked_signatures=(SINK_A,),
                                        timeout_ms=1000, retries=0)]
            with Repository(tmp_path_factory.mktemp("repo")) as repo:
                summary = run_campaign(domains, profiles, CampaignLimits(4, 10_000.0),
                                       repo, "c")
                records = repo.query("c", kind=KIND_DNS)
        finally:
            stop()
            logging.getLogger("asyncio").removeHandler(handler)
        assert errors == []
        assert summary.written == len(domains) == len(records)
        assert {r.domain: r.payload["verdict"] for r in records} == {
            d: BLOCKED if d in blocked else NOT_BLOCKED for d in domains
        }
