import json
import select
import socket
import struct
import threading
import time

import pytest

from admal import dnswire
from admal.dnsbroker import (
    SIG_SINKHOLE_A,
    BlockSignature,
    CampaignLimits,
    ResolverProfile,
    run_campaign,
)
from admal.keydir import BLOCKED, NOT_BLOCKED
from admal.mockdns import (
    BEHAVIOR_NXDOMAIN,
    BEHAVIOR_SINKHOLE_A,
    BindError,
    MockDnsFarm,
    MockProviderSpec,
    load_farm_config,
    respond,
)
from admal.repository import Repository


def spec(**kw):
    kw.setdefault("provider_id", "p1")
    kw.setdefault("blocklist", frozenset({"bad.example"}))
    return MockProviderSpec(**kw)


def query_bytes(domain, txid=0x1234, qtype=dnswire.TYPE_A):
    return dnswire.build_query(domain, qtype, txid=txid)


class TestSpec:
    def test_drop_rate_bounds(self):
        with pytest.raises(ValueError):
            spec(drop_rate=1.5)
        with pytest.raises(ValueError):
            spec(drop_rate=-0.1)

    def test_unknown_behavior(self):
        with pytest.raises(ValueError):
            spec(block_behavior="refuse")

    def test_blocklist_lowercased(self):
        s = spec(blocklist={"Bad.Example"})
        assert s.blocklist == frozenset({"bad.example"})

    def test_from_config(self):
        s = MockProviderSpec.from_config({
            "provider_id": "mock1",
            "listen": "127.0.0.1:9953",
            "blocklist": ["bad.example"],
            "block_behavior": "nxdomain",
            "drop_rate": 0.25,
            "truncate": True,
        })
        assert s.listen == ("127.0.0.1", 9953)
        assert s.block_behavior == BEHAVIOR_NXDOMAIN
        assert s.drop_rate == 0.25
        assert s.truncate is True


class TestRespond:
    def test_blocked_gets_sinkhole(self):
        reply = respond(spec(sinkhole_ip="0.0.0.0"), 0, query_bytes("bad.example"))
        parsed = dnswire.parse_response(reply)
        assert parsed.rcode == dnswire.RCODE_NOERROR
        assert parsed.address_answers() == ("0.0.0.0",)

    def test_not_blocked_gets_default(self):
        reply = respond(spec(), 0, query_bytes("good.example"))
        assert dnswire.parse_response(reply).address_answers() == ("203.0.113.1",)

    def test_nxdomain_behavior(self):
        s = spec(block_behavior=BEHAVIOR_NXDOMAIN)
        reply = respond(s, 0, query_bytes("bad.example"))
        parsed = dnswire.parse_response(reply)
        assert parsed.rcode == dnswire.RCODE_NXDOMAIN
        assert parsed.answers == ()

    def test_case_insensitive_blocklist(self):
        reply = respond(spec(), 0, query_bytes("BAD.Example"))
        assert dnswire.parse_response(reply).address_answers() == ("0.0.0.0",)

    def test_txid_echoed(self):
        reply = respond(spec(), 0, query_bytes("bad.example", txid=0xBEEF))
        assert dnswire.parse_response(reply).txid == 0xBEEF

    def test_non_a_query_empty_noerror(self):
        reply = respond(spec(), 0, query_bytes("bad.example", qtype=dnswire.TYPE_AAAA))
        parsed = dnswire.parse_response(reply)
        assert parsed.rcode == dnswire.RCODE_NOERROR
        assert parsed.answers == ()

    def test_malformed_gets_formerr(self):
        reply = respond(spec(), 0, b"\xab\xcd\x00")
        parsed = dnswire.parse_response(reply)
        assert parsed.txid == 0xABCD
        assert parsed.rcode == dnswire.RCODE_FORMERR

    def test_truncate_only_over_udp(self):
        s = spec(truncate=True)
        udp = dnswire.parse_response(respond(s, 0, query_bytes("bad.example")))
        assert udp.truncated and udp.answers == ()
        tcp = dnswire.parse_response(respond(s, 0, query_bytes("bad.example"), tcp=True))
        assert not tcp.truncated and tcp.address_answers() == ("0.0.0.0",)

    def test_tiny_garbage_dropped(self):
        assert respond(spec(), 0, b"\x01") is None

    def test_deterministic_bytes(self):
        s = spec()
        q = query_bytes("bad.example", txid=7)
        assert respond(s, 0, q) == respond(s, 0, q)

    def test_drop_all(self):
        assert respond(spec(drop_rate=1.0), 0, query_bytes("x.example")) is None

    def test_drop_decision_per_name_deterministic(self):
        s = spec(drop_rate=0.5)
        names = [f"d{i}.example" for i in range(200)]
        first = [respond(s, 3, query_bytes(n)) is None for n in names]
        second = [respond(s, 3, query_bytes(n)) is None for n in names]
        assert first == second
        assert 20 < sum(first) < 180  # rate is actually applied

    def test_drop_decision_varies_with_seed(self):
        s = spec(drop_rate=0.5)
        names = [f"d{i}.example" for i in range(200)]
        a = [respond(s, 1, query_bytes(n)) is None for n in names]
        b = [respond(s, 2, query_bytes(n)) is None for n in names]
        assert a != b


def udp_ask(address, payload, timeout=2.0):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        sock.sendto(payload, address)
        data, _ = sock.recvfrom(4096)
    return data


def tcp_ask(address, payload, timeout=2.0):
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(struct.pack("!H", len(payload)) + payload)
        with sock.makefile("rb") as stream:
            (length,) = struct.unpack("!H", stream.read(2))
            return stream.read(length)


class TestFarm:
    def test_serves_over_udp(self):
        with MockDnsFarm([spec()], seed=0) as farm:
            addr = farm.addresses["p1"]
            reply = udp_ask(addr, query_bytes("bad.example"))
            assert dnswire.parse_response(reply).address_answers() == ("0.0.0.0",)
            reply = udp_ask(addr, query_bytes("fine.example"))
            assert dnswire.parse_response(reply).address_answers() == ("203.0.113.1",)

    def test_multiple_providers(self):
        specs = [
            spec(provider_id="sink"),
            spec(provider_id="nx", block_behavior=BEHAVIOR_NXDOMAIN),
            spec(provider_id="open", blocklist=frozenset()),
        ]
        with MockDnsFarm(specs) as farm:
            assert set(farm.addresses) == {"sink", "nx", "open"}
            q = query_bytes("bad.example")
            assert dnswire.parse_response(
                udp_ask(farm.addresses["sink"], q)).address_answers() == ("0.0.0.0",)
            assert dnswire.parse_response(
                udp_ask(farm.addresses["nx"], q)).rcode == dnswire.RCODE_NXDOMAIN
            assert dnswire.parse_response(
                udp_ask(farm.addresses["open"], q)).address_answers() == ("203.0.113.1",)

    def test_manifest(self):
        with MockDnsFarm([spec(drop_rate=0.5)], seed=9) as farm:
            manifest = farm.manifest()
        assert manifest["seed"] == 9
        entry = manifest["providers"][0]
        assert entry["provider_id"] == "p1"
        assert entry["block_behavior"] == BEHAVIOR_SINKHOLE_A
        assert entry["blocklist_size"] == 1
        assert entry["drop_rate"] == 0.5
        host, port = entry["address"].rsplit(":", 1)
        assert host == "127.0.0.1"
        assert int(port) > 0

    def test_bind_conflict(self):
        with MockDnsFarm([spec()]) as farm:
            taken = farm.addresses["p1"]
            with pytest.raises(BindError):
                MockDnsFarm([spec(provider_id="p2", listen=taken)]).start()

    def test_start_stop_idempotent(self):
        farm = MockDnsFarm([spec()])
        farm.start()
        addr = farm.addresses["p1"]
        farm.start()  # no-op
        assert farm.addresses["p1"] == addr
        farm.stop()
        farm.stop()  # no-op

    def test_truncating_provider_answers_over_tcp(self):
        with MockDnsFarm([spec(truncate=True)]) as farm:
            addr = farm.addresses["p1"]
            udp = dnswire.parse_response(udp_ask(addr, query_bytes("bad.example")))
            assert udp.truncated and udp.answers == ()
            tcp = dnswire.parse_response(tcp_ask(addr, query_bytes("bad.example")))
            assert not tcp.truncated
            assert tcp.address_answers() == ("0.0.0.0",)

    def test_latency_applied(self):
        with MockDnsFarm([spec(latency_ms=120)]) as farm:
            start = time.monotonic()
            udp_ask(farm.addresses["p1"], query_bytes("bad.example"))
            assert time.monotonic() - start >= 0.1

    def test_latency_does_not_cap_throughput(self):
        """Delayed replies wait on timers, not on workers: 64 queries in
        flight at once come back after about one delay, not 64 / workers."""
        socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(64)]
        try:
            with MockDnsFarm([spec(latency_ms=200)]) as farm:
                start = time.monotonic()
                for i, sock in enumerate(socks):
                    sock.sendto(query_bytes(f"q{i}.example", txid=i), farm.addresses["p1"])
                waiting = set(socks)
                while waiting and time.monotonic() - start < 5:
                    for sock in select.select(list(waiting), [], [], 0.5)[0]:
                        sock.recv(4096)
                        waiting.discard(sock)
                elapsed = time.monotonic() - start
        finally:
            for sock in socks:
                sock.close()
        assert not waiting
        assert 0.2 <= elapsed < 1.5

    def test_one_thread_serves_the_farm(self):
        specs = [spec(provider_id="a"), spec(provider_id="b"),
                 spec(provider_id="c", truncate=True)]
        before = set(threading.enumerate())
        with MockDnsFarm(specs) as farm:
            tcp = dnswire.parse_response(tcp_ask(farm.addresses["c"], query_bytes("bad.example")))
            assert tcp.address_answers() == ("0.0.0.0",)
            (loop_thread,) = set(threading.enumerate()) - before
        assert not loop_thread.is_alive()

    def test_ipv6_listen(self, tmp_path):
        try:
            with socket.socket(socket.AF_INET6, socket.SOCK_DGRAM) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback")
        provider = MockProviderSpec.from_config(
            {"provider_id": "p6", "listen": "[::1]:0", "blocklist": ["bad.example"]})
        with MockDnsFarm([provider]) as farm:
            host, _, port = farm.manifest()["providers"][0]["address"].rpartition(":")
            assert host == "[::1]" and int(port) > 0
            profile = ResolverProfile("p6", "P6", farm.addresses["p6"], timeout_ms=1000,
                                      blocked_signatures=(BlockSignature(SIG_SINKHOLE_A,
                                                                         ("0.0.0.0",)),))
            with Repository(tmp_path) as repo:
                run_campaign(["bad.example", "good.example"], [profile],
                             CampaignLimits(4, 1000.0), repo, "c6")
                verdicts = {r.domain: r.payload["verdict"] for r in repo.query("c6")}
        assert verdicts == {"bad.example": BLOCKED, "good.example": NOT_BLOCKED}


class TestFarmConfig:
    def test_load(self, tmp_path):
        path = tmp_path / "farm.json"
        path.write_text(json.dumps({
            "seed": 11,
            "providers": [
                {"provider_id": "a", "blocklist": ["x.example"]},
                {"provider_id": "b", "block_behavior": "nxdomain"},
            ],
        }))
        farm = load_farm_config(path)
        assert farm.seed == 11
        assert [s.provider_id for s in farm.specs] == ["a", "b"]
        with farm:
            reply = udp_ask(farm.addresses["a"], query_bytes("x.example"))
            assert dnswire.parse_response(reply).address_answers() == ("0.0.0.0",)
