import hashlib
import json
import os
import re
import shutil
import sys
import threading
import time
from array import array
from datetime import datetime, timedelta, timezone
from itertools import compress
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admal import repository
from admal.keydir import AD, BLOCKED, DNS_STATES, NO_REPORT, ONLY, REPORT, TI_STATES
from admal.repository import (
    HINT_NAME,
    KIND_AD,
    KIND_DNS,
    KIND_TI,
    KINDS,
    RecordSchemaError,
    Repository,
    StorageError,
    VerdictRecord,
    utc_now_rfc3339,
)

from conftest import snapshot

TS = "2024-06-01T00:00:00.000Z"
TALLIES = {"status": "report", "harmless": 3, "undetected": 0, "suspicious": 1,
           "malicious": 0, "timeout": 0}


def rec(domain="d.example", provider="quad9", campaign="c1", kind=KIND_DNS,
        payload=None, ts=TS):
    return VerdictRecord(domain, provider, campaign, kind,
                         payload if payload is not None else {"verdict": "blocked"}, ts)


def _reference_timestamp(ns: int) -> str:
    then = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=ns // 1000)
    return then.strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


class TestRecord:
    def test_json_round_trip(self):
        r = rec(payload={"verdict": "blocked", "reason": None})
        assert VerdictRecord.from_json_line(r.to_json(), 1) == r

    def test_canonical_field_order(self):
        keys = list(json.loads(rec().to_json()).keys())
        assert keys == ["domain", "provider", "campaign", "kind", "payload", "ts"]

    @pytest.mark.parametrize("line,fragment", [
        ("not json", "invalid JSON"),
        ("[1,2]", "not an object"),
        ('{"domain":"d"}', "missing field"),
        ('{"domain":"d","provider":"p","campaign":"c","kind":"weird","payload":{},"ts":""}',
         "unknown kind"),
        ('{"domain":"d","provider":"p","campaign":"c","kind":"dns","payload":7,"ts":""}',
         "payload is not an object"),
    ])
    def test_schema_errors_carry_line_no(self, line, fragment):
        with pytest.raises(RecordSchemaError) as exc:
            VerdictRecord.from_json_line(line, 42)
        assert exc.value.line_no == 42
        assert fragment in str(exc.value)

    def test_timestamp_format(self):
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z",
                            utc_now_rfc3339())

    def test_timestamp_matches_datetime_formatting(self, monkeypatch):
        # the text cached per second gives what formatting a datetime gives,
        # across .999 -> .000, within one second, and back to an older second
        base = 1_717_200_000 * 10**9  # 2024-06-01T00:00:00Z
        ticks = [base - 1, base, base + 999_999_999, base + 10**9, base + 10**9 + 1_000_000,
                 base + 10**9 + 999_999_999, base + 60 * 10**9, base - 10**6, base - 10**6,
                 base + 86_400 * 10**9 - 1, 0, 10**18]
        clock = iter(ticks)
        monkeypatch.setattr(repository, "time", SimpleNamespace(
            time_ns=lambda: next(clock), gmtime=time.gmtime, strftime=time.strftime))
        for ns in ticks:
            assert utc_now_rfc3339() == _reference_timestamp(ns)

    def test_timestamp_threads_never_mix_seconds(self, monkeypatch):
        # every call reads a tick about a third of a second on from the last,
        # so threads keep replacing each other's cached second
        seen, ticks = threading.local(), iter(range(1_717_200_000 * 10**9, 2**62, 333_333_337))

        def time_ns():
            seen.ns = next(ticks)
            return seen.ns

        monkeypatch.setattr(repository, "time", SimpleNamespace(
            time_ns=time_ns, gmtime=time.gmtime, strftime=time.strftime))
        wrong = []

        def work():
            for _ in range(3000):
                text = utc_now_rfc3339()
                if text != _reference_timestamp(seen.ns):
                    wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestLatestWins:
    def test_upsert_get(self, tmp_path):
        with Repository(tmp_path) as repo:
            r = rec()
            repo.upsert(r)
            assert repo.get("d.example", "quad9", "c1") == r
            assert repo.get("other.example", "quad9", "c1") is None

    def test_same_key_overwrites(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(rec(payload={"verdict": "blocked"}))
            repo.upsert(rec(payload={"verdict": "not_blocked"}, ts="2024-06-02T00:00:00.000Z"))
            assert len(repo) == 1
            assert repo.get("d.example", "quad9", "c1").payload["verdict"] == "not_blocked"

    def test_distinct_kinds_share_key_space(self, tmp_path):
        # key is (domain, provider, campaign); a TI record under its own
        # provider id never collides with the DNS verdict
        with Repository(tmp_path) as repo:
            repo.upsert(rec(kind=KIND_DNS))
            repo.upsert(rec(provider="ti", kind=KIND_TI, payload={"status": "no_report"}))
            assert len(repo) == 2

    def test_durable_across_reopen(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(rec())
            repo.upsert(rec(domain="e.example"))
        with Repository(tmp_path) as repo:
            assert len(repo) == 2
            assert repo.get("d.example", "quad9", "c1") is not None

    def test_partner_map_must_match_tallies(self, tmp_path):
        tallies = {"status": "report", "harmless": 1, "undetected": 0,
                   "suspicious": 0, "malicious": 1, "timeout": 0}
        good = rec(provider="ti", kind=KIND_TI,
                   payload={**tallies, "partners": {"p1": "harmless", "p2": "malicious"}})
        bad = rec(domain="e.example", provider="ti", kind=KIND_TI,
                  payload={**tallies, "partners": {"p1": "harmless", "p2": "harmless"}})
        # a report whose tallies cannot rebuild a TiReport is refused as well
        unfit = [rec(domain="e.example", provider="ti", kind=KIND_TI, payload=payload)
                 for payload in ({**tallies, "harmless": -1}, {**tallies, "timeout": "0"},
                                 {**tallies, "malicious": True}, {"status": "report"})]
        with Repository(tmp_path) as repo:
            repo.upsert(good)
            with pytest.raises(ValueError, match="tally"):
                repo.upsert(bad)
            for record in unfit:
                with pytest.raises(ValueError, match="not a nonnegative int"):
                    repo.upsert(record)
            assert len(repo) == 1
        log = tmp_path / "records.jsonl"
        good_line = log.read_text()
        for record in (bad, *unfit):
            log.write_text(good_line + record.to_json() + "\n")
            with pytest.raises(StorageError, match="corrupt log record at line 2"):
                Repository(tmp_path)

    def test_overwrite_survives_reopen(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(rec(payload={"verdict": "blocked"}))
            repo.upsert(rec(payload={"verdict": "inconclusive"}))
        with Repository(tmp_path) as repo:
            assert len(repo) == 1
            assert repo.get("d.example", "quad9", "c1").payload["verdict"] == "inconclusive"

    @pytest.mark.parametrize("bad", [
        rec(kind="weird"),
        rec(kind=None),
        rec(domain=7),
        rec(provider=None),
        rec(campaign=("c1",)),
        rec(payload=["blocked"]),
        rec(payload="blocked"),
        rec(payload={"verdict": {1, 2}}),
        rec(payload={"verdict": "sinkholed"}),
        rec(payload={"verdict": 1}),
        rec(payload={"verdict": True}),
        rec(payload={"verdict": None}),
        rec(payload={"verdict": []}),
        rec(kind=KIND_TI, payload={**TALLIES, "status": "pending"}),
        rec(kind=KIND_TI, payload={"status": "report"}),
        rec(kind=KIND_TI, payload={**TALLIES, "harmless": -1}),
        rec(kind=KIND_TI, payload={**TALLIES, "undetected": 65536}),
        rec(kind=KIND_TI, payload={**TALLIES, "malicious": 1.0}),
    ], ids=["kind", "kind-none", "domain", "provider", "campaign", "payload-list",
            "payload-str", "payload-not-json", "verdict-unknown", "verdict-1",
            "verdict-true", "verdict-null", "verdict-list", "status-pending",
            "status-without-tallies", "tally-negative", "tally-65536", "tally-float"])
    def test_upsert_refuses_what_replay_refuses(self, tmp_path, bad):
        log = tmp_path / "records.jsonl"
        with Repository(tmp_path) as repo:
            repo.upsert(rec())
            before = log.read_bytes()
            with pytest.raises(ValueError):
                repo.upsert(bad)
            assert log.read_bytes() == before
            assert len(repo) == 1
        with Repository(tmp_path) as repo:
            assert len(repo) == 1


class TestQuery:
    def fill(self, repo):
        for i in range(10):
            for p in ("quad9", "cisco", "cloudflare"):
                repo.upsert(rec(domain=f"d{i:02d}.example", provider=p))

    def test_ten_by_three(self, tmp_path):
        with Repository(tmp_path) as repo:
            self.fill(repo)
            assert len(repo) == 30
            assert len(repo.query("c1")) == 30
            assert len(repo.query("c1", provider_id="cisco")) == 10

    def test_sorted_by_domain_then_provider(self, tmp_path):
        with Repository(tmp_path) as repo:
            self.fill(repo)
            keys = [(r.domain, r.provider_id) for r in repo.query("c1")]
        assert keys == sorted(keys)
        assert keys[0] == ("d00.example", "cisco")

    def test_kind_filter(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(rec(kind=KIND_DNS))
            repo.upsert(rec(provider="adlists", kind=KIND_AD, payload={"is_ad": True}))
            assert [r.kind for r in repo.query("c1", kind=KIND_AD)] == [KIND_AD]

    def test_unknown_campaign_empty(self, tmp_path):
        with Repository(tmp_path) as repo:
            self.fill(repo)
            assert repo.query("nope") == []

    def test_kind_change_moves_the_key(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(rec(domain="a.example"))
            repo.upsert(rec(domain="b.example"))
            repo.upsert(rec(domain="a.example", kind=KIND_TI, payload={"status": "no_report"}))
            domains = ["a.example", "b.example"]
            assert repo.held("c1", KIND_DNS, domains, ["quad9"]) == {"quad9": b"\x00\x01"}
            assert repo.held("c1", KIND_TI, domains, ["quad9"]) == {"quad9": b"\x01\x00"}
            # one column holds both kinds: a.example's row is now a TI state
            assert repo.columns("c1", KIND_DNS) == repo.columns("c1", KIND_TI) == (
                domains, [("quad9", bytearray([TI_STATES[NO_REPORT], DNS_STATES[BLOCKED]]), None)])

    def test_verdicts_keep_json_types_apart(self, tmp_path):
        # a verdict is one of the pipeline's own words, so a value of another
        # JSON type is refused at upsert and never counted as its string
        with Repository(tmp_path) as repo:
            for i, verdict in enumerate(["blocked", "not_blocked", "inconclusive", "blocked"]):
                repo.upsert(rec(domain=f"d{i}.example", payload={"verdict": verdict}))
            for value in ("1", 1, True, 1.0, None, {"a": [1]}):
                with pytest.raises(ValueError):
                    repo.upsert(rec(domain="x.example", payload={"verdict": value}))
                with pytest.raises(ValueError):
                    repo.upsert(rec(domain="x.example", provider="ti", kind=KIND_TI,
                                    payload={**TALLIES, "status": value}))
            repo.upsert(rec(domain="y.example", provider="cisco", payload={"verdict": "blocked"}))
            repo.upsert(rec(domain="z.example", provider="adlists", kind=KIND_AD, payload={}))
            domains, taken = repo.columns("c1", KIND_DNS)
            assert domains == ["d0.example", "d1.example", "d2.example", "d3.example",
                               "y.example", "z.example"]
            states = {provider: bytes(states) for provider, states, _tallies in taken}
            blocked, not_blocked, inconclusive = DNS_STATES.values()
            assert states == {"quad9": bytes([blocked, not_blocked, inconclusive, blocked, 0, 0]),
                              "cisco": bytes([0, 0, 0, 0, blocked, 0])}
            assert list(compress(domains, states["quad9"].translate(ONLY[blocked]))) == [
                "d0.example", "d3.example"]
            assert repo.columns("c2", KIND_DNS) == ([], [])

    def test_existing_pairs(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(rec(domain="a.example", provider="quad9"))
            repo.upsert(rec(domain="a.example", provider="cisco"))
            domains = ["a.example", "b.example"]
            assert repo.held("c1", KIND_DNS, domains, ["quad9", "cisco", "ti"]) == {
                "quad9": b"\x01\x00", "cisco": b"\x01\x00", "ti": b"\x00\x00"}
            assert repo.held("c1", KIND_TI, domains, ["quad9"]) == {"quad9": b"\x00\x00"}


class TestBlocksetFixture:
    def test_provider_record_counts(self, blockset_repo):
        assert len(blockset_repo.query("reference", provider_id="quad9")) == 3_395
        assert len(blockset_repo.query("reference", provider_id="cisco")) == 472
        assert len(blockset_repo.query("reference", provider_id="cloudflare")) == 2_229


class TestCrashTolerance:
    def seed(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(rec(domain="a.example"))
            repo.upsert(rec(domain="b.example"))

    def test_torn_final_line_dropped(self, tmp_path):
        self.seed(tmp_path)
        log = tmp_path / "records.jsonl"
        log.write_bytes(log.read_bytes() + b'{"domain":"torn.exa')
        with Repository(tmp_path) as repo:
            assert len(repo) == 2
            repo.upsert(rec(domain="c.example"))
        # the fragment must not contaminate later appends
        with Repository(tmp_path) as repo:
            assert len(repo) == 3

    def test_torn_line_missing_only_newline(self, tmp_path):
        self.seed(tmp_path)
        log = tmp_path / "records.jsonl"
        log.write_bytes(log.read_bytes() + rec(domain="c.example").to_json().encode())
        with Repository(tmp_path) as repo:
            assert len(repo) == 3
            repo.upsert(rec(domain="d.example"))
        with Repository(tmp_path) as repo:
            assert len(repo) == 4

    def test_interior_corruption_raises(self, tmp_path):
        self.seed(tmp_path)
        log = tmp_path / "records.jsonl"
        good = log.read_bytes()
        first, rest = good.split(b"\n", 1)
        for corrupt in (first[:20], first[:20] + b"\xff\xfe" + first[22:]):
            log.write_bytes(corrupt + b"\n" + rest)
            with pytest.raises(StorageError, match="corrupt log record at line 1"):
                Repository(tmp_path)

    def test_repeated_kill_recover_cycles(self, tmp_path):
        log = tmp_path / "records.jsonl"
        for i in range(5):
            with Repository(tmp_path) as repo:
                repo.upsert(rec(domain=f"d{i}.example"))
            log.write_bytes(log.read_bytes() + b"{brok")
        with Repository(tmp_path) as repo:
            assert len(repo) == 5


class TestUpsertMany:
    BATCH = [rec(domain="b.example"), rec(domain="c.example", provider="cisco"),
             rec(domain="b.example", payload={"verdict": "not_blocked", "note": "é"}),
             rec(domain="d.example", provider="ti", kind=KIND_TI, payload=dict(TALLIES))]

    def test_read_your_writes(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert_many(self.BATCH)
            assert repo.get("b.example", "quad9", "c1") == self.BATCH[2]
            assert repo.get("c.example", "cisco", "c1") == self.BATCH[1]
            assert repo.query("c1", kind=KIND_DNS) == [self.BATCH[2], self.BATCH[1]]
            assert repo.query("c1", kind=KIND_TI) == [self.BATCH[3]]
            assert len(repo) == 3

    def test_log_bytes_equal_one_by_one(self, tmp_path):
        with Repository(tmp_path / "many") as repo:
            repo.upsert_many(self.BATCH)
        with Repository(tmp_path / "one") as repo:
            for record in self.BATCH:
                repo.upsert(record)
        assert ((tmp_path / "many" / "records.jsonl").read_bytes()
                == (tmp_path / "one" / "records.jsonl").read_bytes())

    def test_refused_record_writes_none_of_the_batch(self, tmp_path):
        with Repository(tmp_path) as repo:
            with pytest.raises(ValueError):
                repo.upsert_many([rec(), rec(domain="x.example", payload={"verdict": "maybe"})])
            assert len(repo) == 0
        assert (tmp_path / "records.jsonl").read_bytes() == b""

    def test_cut_inside_a_batch_reopens_to_the_whole_lines(self, tmp_path):
        """A writer killed at any byte of a batch leaves a log that reopens
        to exactly the lines whose JSON text lies wholly before the cut."""
        with Repository(tmp_path / "full") as repo:
            repo.upsert(rec(domain="a.example"))
            start = (tmp_path / "full" / "records.jsonl").stat().st_size
            repo.upsert_many(self.BATCH)
        full = (tmp_path / "full" / "records.jsonl").read_bytes()
        ends, at = [], start  # where each batch line's JSON text ends, newline excluded
        for record in self.BATCH:
            at += len(record.to_json().encode())
            ends.append(at)
            at += 1
        cut_root = tmp_path / "cut"
        for cut in range(start, len(full) + 1):
            shutil.rmtree(cut_root, ignore_errors=True)
            cut_root.mkdir()
            (cut_root / "records.jsonl").write_bytes(full[:cut])
            whole = [r for r, end in zip(self.BATCH, ends) if end <= cut]
            latest = {r.key: r for r in [rec(domain="a.example"), *whole]}
            with Repository(cut_root) as repo:
                assert repo.query("c1") == sorted(latest.values(), key=lambda r: r.key), cut
            kept = full[:ends[len(whole) - 1] + 1] if whole else full[:start]
            assert (cut_root / "records.jsonl").read_bytes() == kept, cut


class TestManifests:
    def test_round_trip(self, tmp_path):
        with Repository(tmp_path) as repo:
            manifest = {"domains": 10, "providers": ["quad9"], "started": TS}
            repo.write_manifest("c1", manifest)
            assert repo.read_manifest("c1") == manifest
            assert repo.read_manifest("absent") is None

    def test_rewrite_replaces(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.write_manifest("c1", {"domains": 1})
            repo.write_manifest("c1", {"domains": 2, "finished": TS})
            assert repo.read_manifest("c1") == {"domains": 2, "finished": TS}


def _keydir(repo):
    """The keydir as {(domain, provider, campaign): (state, offset, tallies)}
    in key order, read from the repository's columns; tallies are a report's
    five, None for any other state."""
    keydir = {}
    for campaign, (rows, columns) in repo._campaigns.items():
        for provider, col in columns.items():
            for domain, row in rows.items():
                if col.offsets[row] < 0:
                    continue
                state = col.states[row]
                tallies = (tuple(column[row] for column in col.tallies)
                           if state == TI_STATES[REPORT] else None)
                keydir[domain, provider, campaign] = (state, col.offsets[row], tallies)
    return dict(sorted(keydir.items()))


def _replayed(root, scratch):
    """What a full replay of ``root``'s log gives: ("keydir", dict) or
    ("error", message); opens a copy, without the hint, in the new directory
    ``scratch``."""
    scratch.mkdir()
    shutil.copyfile(root / "records.jsonl", scratch / "records.jsonl")
    try:
        repo = Repository(scratch)
    except StorageError as exc:
        return "error", str(exc)
    with repo:
        assert repo._hinted is None
        return "keydir", _keydir(repo)


def _opened(root):
    """What opening ``root`` gives, in _replayed's terms; the repository is
    left open when it opens."""
    try:
        repo = Repository(root)
    except StorageError as exc:
        return None, ("error", str(exc))
    return repo, ("keydir", _keydir(repo))


def _hint_parts(hint):
    """A version-4 hint as (header, parts): per campaign (its line, []), per
    provider (its line, its blocks as arrays)."""
    with open(hint, "rb") as fh:
        head, parts = json.loads(fh.readline()), []
        while type(doc := json.loads(fh.readline())) is list:
            blocks = []
            if doc[0] == "campaign":
                rows = len(doc[2])
            else:
                blocks = [array(code) for code in "qB" + "H" * 5 * doc[2]]
            for block in blocks:
                block.fromfile(fh, rows)
            parts.append((doc, blocks))
    return head, parts


def _write_hint_parts(hint, head, parts):
    """Write a hint from _hint_parts' terms, with the trailer that fits it."""
    out = [head, *(item for doc, blocks in parts for item in (doc, *blocks))]
    raw = b"".join(item.tobytes() if isinstance(item, array)
                   else json.dumps(item, separators=(",", ":")).encode() + b"\n" for item in out)
    trailer = json.dumps({"sha256": hashlib.sha256(raw).hexdigest()})
    hint.write_bytes(raw + trailer.encode() + b"\n")


class TestHint:
    def fill(self, root, n=30):
        with Repository(root) as repo:
            for i in range(n):
                repo.upsert(rec(domain=f"d{i % 12}.example", provider=("quad9", "cisco")[i % 2],
                                payload={"verdict": ("blocked", "not_blocked")[i % 3 == 0],
                                         "i": i}))
                repo.upsert(rec(domain=f"d{i}.example", provider="ti", kind=KIND_TI,
                                payload={"status": "report", "harmless": i, "undetected": 1,
                                         "suspicious": 0, "malicious": i % 2, "timeout": 0}))
            repo.upsert(rec(domain="ad.example", provider="adlists", kind=KIND_AD,
                            payload={"is_ad": True}))

    def test_reopen_reads_the_hint_not_the_log(self, tmp_path, monkeypatch):
        self.fill(tmp_path)
        expected = _replayed(tmp_path, tmp_path / "ref")
        hint = tmp_path / HINT_NAME
        inode = hint.stat().st_ino
        monkeypatch.setattr("admal.repository._parse_line", None)  # replay would fail
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted == (tmp_path / "records.jsonl").stat().st_size
            assert got == expected
        # nothing changed, so close left the hint alone
        assert hint.stat().st_ino == inode

    def test_empty_repository_reopens_from_its_hint(self, tmp_path):
        with Repository(tmp_path):
            pass
        hint = tmp_path / HINT_NAME
        inode = hint.stat().st_ino
        with Repository(tmp_path) as repo:
            assert repo._hinted == 0
            assert len(repo) == 0
        assert hint.stat().st_ino == inode

    def test_log_appended_behind_the_hint(self, tmp_path):
        self.fill(tmp_path)
        log = tmp_path / "records.jsonl"
        hinted = log.stat().st_size
        with open(log, "ab") as fh:
            fh.write((rec(domain="late.example").to_json() + "\n").encode())
            fh.write(b'{"domain":"torn')
        expected = _replayed(tmp_path, tmp_path / "ref")
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted == hinted
            assert got == expected
            assert repo.get("late.example", "quad9", "c1") is not None
        # the tail made close rewrite the hint, and the next open takes it whole
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted == log.stat().st_size
            assert got == expected

    @pytest.mark.parametrize("hint", ["kept", "deleted"])
    def test_corrupt_line_behind_the_hint_keeps_its_line_number(self, tmp_path, hint):
        self.fill(tmp_path)
        log = tmp_path / "records.jsonl"
        # a torn fragment is cut off, not counted as a line
        with open(log, "ab") as fh:
            fh.write(b'{"domain":"torn')
        if hint == "deleted":
            (tmp_path / HINT_NAME).unlink()
        with Repository(tmp_path) as repo:
            repo.upsert(rec(domain="late.example"))
        lines = len(log.read_bytes().splitlines())
        with open(log, "ab") as fh:
            fh.write((rec(domain="later.example").to_json() + "\n").encode() + b"{garbage}\n")
        with pytest.raises(StorageError, match=f"corrupt log record at line {lines + 2}$"):
            Repository(tmp_path)
        assert _replayed(tmp_path, tmp_path / "ref") == (
            "error", f"corrupt log record at line {lines + 2}")

    def test_interior_line_rewritten_at_same_length(self, tmp_path):
        self.fill(tmp_path)
        log = tmp_path / "records.jsonl"
        good = log.read_bytes()
        first, rest = good.split(b"\n", 1)
        garbled = first[:20] + b"#" * (len(first) - 20)
        log.write_bytes(garbled + b"\n" + rest)
        assert (tmp_path / HINT_NAME).exists()
        with pytest.raises(StorageError, match="corrupt log record at line 1$"):
            Repository(tmp_path)
        # a valid line with other bytes at the same length is read, not hinted
        at = good.rindex(b'"verdict":"blocked","i":29}') + len(b'"verdict":"blocked","i":')
        log.write_bytes(good[:at] + b"99" + good[at + 2:])
        expected = _replayed(tmp_path, tmp_path / "ref")
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted is None
            assert got == expected
            assert repo.get("d5.example", "cisco", "c1").payload["i"] == 99

    def test_log_shorter_than_the_hint(self, tmp_path):
        self.fill(tmp_path)
        log = tmp_path / "records.jsonl"
        data = log.read_bytes()
        log.write_bytes(data[:data.rindex(b"\n", 0, len(data) - 1) + 1])
        expected = _replayed(tmp_path, tmp_path / "ref")
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted is None
            assert got == expected

    @pytest.mark.parametrize("damage", ["delete", "truncate", "garble", "not-json",
                                        "foreign-version", "other-byte-order",
                                        "block-cut-short", "empty"])
    def test_damaged_hint_falls_back_to_replay(self, tmp_path, damage):
        self.fill(tmp_path)
        hint = tmp_path / HINT_NAME
        data = hint.read_bytes()
        head, parts = _hint_parts(hint)
        if damage == "delete":
            hint.unlink()
        elif damage == "truncate":
            hint.write_bytes(data[:len(data) // 2])
        elif damage == "garble":
            middle = len(data) // 2
            hint.write_bytes(data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1:])
        elif damage == "not-json":
            hint.write_bytes(b"\x80\x81 pickle?\n")
        elif damage == "foreign-version":
            _write_hint_parts(hint, {**head, "keydir_hint": 9}, parts)
        elif damage == "other-byte-order":
            # only the header changes: blocks in another byte order are never
            # read, even where their values would pass the fit checks
            other = {"little": "big", "big": "little"}[sys.byteorder]
            _write_hint_parts(hint, {**head, "byteorder": other}, parts)
        elif damage == "block-cut-short":
            # the file ends after half the items of the first provider's offsets
            end = data.index(b"\n", data.index(b'["provider"')) + 1
            hint.write_bytes(data[:end + len(parts[0][0][2]) // 2 * 8])
        else:
            hint.write_bytes(b"")
        expected = _replayed(tmp_path, tmp_path / "ref")
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted is None
            assert got == expected
        # close replaced the damaged hint with one the next open uses
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted is not None
            assert got == expected

    def check_older_hint(self, tmp_path, version):
        """Rewrite the hint as the same keydir in an older format, which an
        open replays past and close rewrites as version 4.  Version 2
        held a value table, then per provider offsets, first lines, kinds,
        codes into the table, tallies and a side table; version 3 offsets,
        first lines, states and tallies, all as JSON; the offsets stand in
        for the first lines, which version 4 dropped."""
        hint = tmp_path / HINT_NAME
        head, parts = _hint_parts(hint)
        del head["byteorder"]
        docs = [{**head, "keydir_hint": version}]
        if version == 2:
            docs.append(["values", ["blocked", "not_blocked", "report"]])
        for doc, blocks in parts:
            if doc[0] == "provider":
                offsets, states, *tallies = map(list, blocks)
                tallies = tallies or None
                doc = [*doc[:2], offsets, offsets, states, tallies] if version == 3 else [
                    *doc[:2], offsets, offsets, [(0, 1, 1, 1, 2, 2, 3)[s] for s in states],
                    [(-1, 0, 1, -1, 2, -1, -1)[s] for s in states], tallies, []]
            docs.append(doc)
        lines = [json.dumps(doc, separators=(",", ":")).encode() + b"\n" for doc in docs]
        trailer = json.dumps({"sha256": hashlib.sha256(b"".join(lines)).hexdigest()})
        hint.write_bytes(b"".join(lines) + trailer.encode() + b"\n")
        expected = _replayed(tmp_path, tmp_path / "ref")
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted is None
            assert got == expected
        assert json.loads(hint.read_bytes().splitlines()[0])["keydir_hint"] == 4
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted is not None
            assert got == expected

    def test_version_2_hint_falls_back_to_replay(self, tmp_path):
        self.fill(tmp_path)
        self.check_older_hint(tmp_path, 2)

    def test_version_3_hint_is_replayed_once_then_rewritten(self, tmp_path):
        self.fill(tmp_path)
        self.check_older_hint(tmp_path, 3)

    def test_summary_values_keep_their_json_type(self, tmp_path):
        # every verdict and status of the vocabulary reopens from the hint as
        # replay reads it; a line holding another JSON type is refused by
        # replay, behind the hint and with the hint gone
        with Repository(tmp_path) as repo:
            for i, verdict in enumerate(["blocked", "not_blocked", "inconclusive"]):
                repo.upsert(rec(domain=f"d{i}.example", payload={"verdict": verdict}))
            repo.upsert(rec(domain="r.example", provider="ti", kind=KIND_TI, payload=TALLIES))
            repo.upsert(rec(domain="n.example", provider="ti", kind=KIND_TI,
                            payload={"status": "no_report"}))
        expected = _replayed(tmp_path, tmp_path / "ref")
        repo, got = _opened(tmp_path)
        with repo:
            assert repo._hinted is not None
            assert repr(got) == repr(expected)
        log, hint = tmp_path / "records.jsonl", tmp_path / HINT_NAME
        good_log, good_hint = log.read_text(), hint.read_bytes()
        lines = good_log.count("\n")
        bad = [record for value in (None, 1, True, 1.0, {"a": [1]}, "1") for record in (
            rec(payload={"verdict": value}),
            rec(provider="ti", kind=KIND_TI, payload={**TALLIES, "status": value}))]
        for record in bad:
            for hint_kept in (True, False):
                log.write_text(good_log + record.to_json() + "\n")
                if hint_kept:
                    hint.write_bytes(good_hint)
                else:
                    hint.unlink()
                with pytest.raises(StorageError,
                                   match=f"corrupt log record at line {lines + 1}"):
                    Repository(tmp_path)

    @pytest.mark.parametrize("edit", [None, "offset-past-prefix", "record-without-offset",
                                      "unknown-kind", "dns-without-code",
                                      "code-past-table", "short-column",
                                      "report-without-tallies", "duplicate-domain"])
    def test_hint_whose_columns_do_not_fit_falls_back_to_replay(self, tmp_path, edit):
        self.fill(tmp_path)
        hint = tmp_path / HINT_NAME
        head, parts = _hint_parts(hint)
        cisco = next(part for part in parts if part[0][:2] == ["provider", "cisco"])
        ti = next(part for part in parts if part[0][:2] == ["provider", "ti"])
        offsets, states = cisco[1]
        row = states.index(1)  # the first row holding a blocked verdict
        if edit == "offset-past-prefix":
            offsets[row] = head["log_size"]
        elif edit == "record-without-offset":
            offsets[row] = -1
        elif edit == "unknown-kind":
            states[row] = 7
        elif edit == "dns-without-code":
            states[row] = 0  # its offset stays
        elif edit == "code-past-table":
            states[row] = 255
        elif edit == "short-column":
            ti[1][4].pop()  # the blocks after it shift by one tally
        elif edit == "report-without-tallies":
            ti[0][2] = False
            del ti[1][2:]
        elif edit == "duplicate-domain":
            campaign = next(doc for doc, _blocks in parts if doc[0] == "campaign")
            campaign[2][1] = campaign[2][0]
        _write_hint_parts(hint, head, parts)
        expected = _replayed(tmp_path, tmp_path / "ref")
        repo, got = _opened(tmp_path)
        with repo:
            assert (repo._hinted is None) is (edit is not None)
            assert got == expected


# -- keydir against a plain dict model ---------------------------------------

_tally = st.integers(0, 3)
_payloads = {
    KIND_DNS: st.builds(
        lambda verdict, n: {"verdict": verdict, "reason": None, "evidence": {"n": n}},
        st.sampled_from(["blocked", "not_blocked", "inconclusive"]), st.integers(0, 9)),
    KIND_TI: st.one_of(
        st.just({"status": "no_report", "fetched_at": ""}),
        st.builds(
            lambda h, u, s, m, t: {"status": "report", "harmless": h, "undetected": u,
                                   "suspicious": s, "malicious": m, "timeout": t,
                                   "fetched_at": ""},
            _tally, _tally, _tally, _tally, _tally)),
    KIND_AD: st.builds(lambda is_ad: {"is_ad": is_ad}, st.booleans()),
}
_records = st.sampled_from(KINDS).flatmap(lambda kind: st.builds(
    VerdictRecord,
    domain=st.sampled_from(["a.example", "b.example", "c.example"]),
    provider_id=st.sampled_from(["quad9", "cisco"]),
    campaign_id=st.sampled_from(["c1", "c2"]),
    kind=st.just(kind),
    payload=_payloads[kind],
    recorded_at=st.just(TS),
))
# a step upserts a record or reopens the repository.  Before a reopen, a
# crash may have left a torn fragment or a last line without its newline,
# something else may have appended a whole line or a corrupt one behind the
# hint, and the hint may be gone, cut short or garbled at any byte.
_tails = st.one_of(
    st.none(), st.just(b'{"domain":"to'), st.just(b'{"domain":"corrupt"}\n'),
    st.tuples(_records, st.booleans()),
)
_steps = st.one_of(
    st.tuples(st.just("upsert"), _records),
    st.tuples(st.just("reopen"),
              st.tuples(_tails, st.one_of(
                  st.sampled_from([None, "delete"]),
                  st.tuples(st.sampled_from(["truncate", "garble"]), st.integers(0, 1 << 20))))),
)


def _damage(hint, how):
    """Delete the hint, or cut it to, or flip a bit of the byte at, a
    position drawn for any hint length."""
    if how == "delete":
        hint.unlink()
    elif how is not None:
        how, at = how
        data = hint.read_bytes()
        at %= len(data)
        hint.unlink()
        hint.write_bytes(data[:at] if how == "truncate"
                         else data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])


_KIND_STATES = {KIND_DNS: set(DNS_STATES.values()), KIND_TI: set(TI_STATES.values()),
                KIND_AD: {AD}}


def _model_state(record):
    """What the keydir's columns hold for a record: its state code and, for
    a TI report, its five tallies."""
    payload = record.payload
    if record.kind == KIND_DNS:
        return DNS_STATES[payload["verdict"]], ()
    if record.kind == KIND_TI:
        if payload["status"] == NO_REPORT:
            return TI_STATES[NO_REPORT], ()
        return TI_STATES[REPORT], (payload["harmless"], payload["undetected"],
                                   payload["suspicious"], payload["malicious"], payload["timeout"])
    return AD, ()


def _column_states(repo, campaign, kind):
    """{(domain, provider): (state, tallies)} of the rows ``columns`` gives
    for a kind, tallies read for a report only."""
    domains, taken = repo.columns(campaign, kind)
    assert len(set(domains)) == len(domains)
    found = {}
    for provider, states, tallies in taken:
        assert len(states) == len(domains)
        for row, state in enumerate(states):
            if state in _KIND_STATES[kind]:
                found[domains[row], provider] = (state, tuple(
                    column[row] for column in tallies) if state == TI_STATES[REPORT] else ())
    assert {provider for provider, _s, _t in taken} == {provider for _d, provider in found}
    return found


def _check_against_model(repo, model):
    assert len(repo) == len(model)
    for key, record in model.items():
        assert repo.get(*key) == record
    assert repo.get("absent.example", "quad9", "c1") is None
    in_order = sorted(model.values(), key=lambda r: (r.domain, r.provider_id))
    for campaign in ("c1", "c2"):
        mine = [r for r in in_order if r.campaign_id == campaign]
        assert repo.query(campaign) == mine
        assert repo.query(campaign, provider_id="cisco") == [
            r for r in mine if r.provider_id == "cisco"]
        for kind in KINDS:
            of_kind = [r for r in mine if r.kind == kind]
            assert repo.query(campaign, kind=kind) == of_kind
            domains = ["a.example", "b.example", "c.example", "absent.example"]
            assert repo.held(campaign, kind, domains, ["quad9", "cisco"]) == {
                p: bytes((d, p) in {(r.domain, r.provider_id) for r in of_kind} for d in domains)
                for p in ("quad9", "cisco")}
            assert _column_states(repo, campaign, kind) == {
                (r.domain, r.provider_id): _model_state(r) for r in of_kind}
    assert snapshot(repo, ("c1", "c2")) == sorted(model.values(), key=lambda r: r.key)


class TestKeydirModel:
    # directories come from the session-scoped factory: hypothesis reruns the
    # test body many times, and each example needs a fresh repository
    @given(steps=st.lists(_steps, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, tmp_path_factory, steps):
        root = tmp_path_factory.mktemp("keydir")
        scratch = tmp_path_factory.mktemp("replay")
        log = root / "records.jsonl"
        model = {}
        repo = Repository(root)
        try:
            for step_no, (action, arg) in enumerate(steps):
                if action == "upsert":
                    repo.upsert(arg)
                    model[arg.key] = arg
                    _check_against_model(repo, model)
                    continue
                tail, damage = arg
                repo.close()
                size = log.stat().st_size
                if isinstance(tail, tuple):
                    record, newline = tail
                    tail = (record.to_json() + "\n" * newline).encode()
                    model[record.key] = record
                with open(log, "ab") as fh:
                    fh.write(tail or b"")
                _damage(root / HINT_NAME, damage)
                # every reopen gives what a full replay gives, error included
                expected = _replayed(root, scratch / str(step_no))
                repo, got = _opened(root)
                assert got == expected
                if repo is None:
                    # both refused the corrupt whole line; cut it off
                    os.truncate(log, size)
                    repo = Repository(root)
                # and takes the keydir from the hint whenever it is intact
                assert (repo._hinted is None) is (damage is not None)
                _check_against_model(repo, model)
        finally:
            if repo is not None:
                repo.close()
