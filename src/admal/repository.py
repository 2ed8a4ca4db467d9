"""Durable storage for per-(domain, provider) verdicts.

An append-only JSONL log, chosen over a database so campaign data stays
auditable and diffable, indexed by a keydir in the manner of Bitcask: memory
holds, for each (domain, provider, campaign) key, only the byte offset of its
latest line and one state code from a closed vocabulary (the three DNS
verdicts, the two TI statuses, an ad record), plus five tallies for a TI
report.  A record outside that vocabulary is refused where it enters: by
``upsert`` with ValueError, by replay with StorageError naming its line.  The
keydir is laid out by column (``keydir.py``): per campaign one ``domain ->
row`` dict shared by its providers, per (campaign, provider) typed columns
indexed by row.  Evidence and full payloads stay on disk and are read back by
offset.  Every count and domain list of a report is a reduction of the state
and tally columns that ``columns`` copies out; ``held``, ``get``, ``query``
and ``latest_elsewhere`` serve the commands that fetch and resume.

Opening a repository streams the log once, validating every line, unless the
keydir hint file (Bitcask's hint file, version 4: per campaign its domain
list as JSON and per provider its columns as raw array blocks) covers a
prefix of the log: then the keydir is read from the hint, the prefix is only
hashed, and just the lines after it are replayed.  Any other hint, one of
version 3 among them, is passed over and rewritten by ``close``.  One writer
per repository instance; ``upsert_many`` appends a batch in one write and
flushes it before returning, so a killed campaign resumes from exactly the
whole lines that reached the log.
"""

import hashlib
import json
import os
import time
from itertools import compress, repeat
from pathlib import Path
from typing import NamedTuple

from .keydir import (AD, ANY, DNS_STATES, NO_REPORT, REPORT, TI_STATES, Column, check_report, flags,
                     open_aside, read_hint, write_hint)

KIND_DNS = "dns"
KIND_TI = "ti"
KIND_AD = "ad"
KINDS = (KIND_DNS, KIND_TI, KIND_AD)
_OF_KIND = {KIND_DNS: flags(DNS_STATES.values()), KIND_TI: flags(TI_STATES.values()),
            KIND_AD: flags({AD})}

_FSYNC_EVERY = 1000

HINT_NAME = "keydir.hint"
_NO_CAMPAIGN = ({}, {})  # the rows and columns of a campaign with no record

_FIELDS = ("domain", "provider", "campaign", "kind", "payload", "ts")
_KEY_FIELDS = ("domain", "provider", "campaign")
_encode = json.JSONEncoder(separators=(",", ":")).encode
_clock = (None, "")  # (a UTC second, its date-time text), replaced whole


class StorageError(Exception):
    pass


class RecordSchemaError(ValueError):
    """Corrupt or invalid record line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def utc_now_rfc3339() -> str:
    """Current UTC time, RFC3339 with milliseconds; formatted once a second."""
    global _clock
    ms = time.time_ns() // 1_000_000
    second, text = _clock
    if second != ms // 1000:
        second = ms // 1000
        text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(second))
        _clock = (second, text)
    return f"{text}.{ms % 1000:03d}Z"


def _parse_line(line: str | bytes, line_no: int) -> dict:
    """One log line as a validated record document."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        doc = json.loads(line)
    except UnicodeDecodeError:
        raise RecordSchemaError(line_no, "not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise RecordSchemaError(line_no, f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise RecordSchemaError(line_no, "record is not an object")
    for name in _FIELDS:
        if name not in doc:
            raise RecordSchemaError(line_no, f"missing field {name!r}")
    problem = _unfit(doc["domain"], doc["provider"], doc["campaign"], doc["kind"], doc["payload"])
    if problem is not None:
        raise RecordSchemaError(line_no, problem)
    return doc


def _unfit(domain, provider, campaign, kind, payload) -> str | None:
    """Why a record may not be in the log, or None; replay and upsert share
    these rules, so nothing upsert writes fails the next open."""
    for name, value in zip(_KEY_FIELDS, (domain, provider, campaign)):
        if type(value) is not str:
            return f"{name} is not a string"
    if type(kind) is not str or kind not in KINDS:
        return f"unknown kind {kind!r}"
    if not isinstance(payload, dict):
        return "payload is not an object"
    return None


def payload_tallies(payload: dict) -> tuple:
    """The (harmless, undetected, suspicious, malicious, timeout) a
    repository keeps in memory for a stored report payload, or () for a
    no_report one.  Analyze reduces them alone, so they must pass
    ``keydir.check_report``; raises ValueError for a report that does not
    and for any other status."""
    status = payload.get("status")
    if status == NO_REPORT:
        return ()
    if status != REPORT:
        raise ValueError(f"bad TI payload: unknown status {status!r}")
    tallies = (payload.get("harmless"), payload.get("undetected"), payload.get("suspicious"),
               payload.get("malicious"), payload.get("timeout", 0))
    try:
        check_report(tallies, payload.get("partners"))
    except ValueError as exc:
        raise ValueError(f"bad TI payload: {exc}") from None
    return tallies


def _state(kind: str, payload: dict) -> tuple:
    """What the keydir keeps of a payload: its state code and a TI report's
    five tallies; ValueError for a verdict or status outside the vocabulary,
    a tally that does not fit its column, or a partner map that disagrees
    with the tallies."""
    if kind == KIND_DNS:
        verdict = payload.get("verdict")
        state = type(verdict) is str and DNS_STATES.get(verdict)  # a list is unhashable
        if not state:
            raise ValueError(f"unknown DNS verdict {verdict!r}")
        return state, ()
    if kind == KIND_TI:
        tallies = payload_tallies(payload)
        return TI_STATES[REPORT if tallies else NO_REPORT], tallies
    return AD, ()


class VerdictRecord(NamedTuple):
    domain: str
    provider_id: str
    campaign_id: str
    kind: str
    payload: dict
    recorded_at: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.domain, self.provider_id, self.campaign_id)

    def to_json(self) -> str:
        # canonical field order: domain, provider, campaign, kind, payload, ts
        return _encode(
            {
                "domain": self.domain,
                "provider": self.provider_id,
                "campaign": self.campaign_id,
                "kind": self.kind,
                "payload": self.payload,
                "ts": self.recorded_at,
            }
        )

    @classmethod
    def from_json_line(cls, line: str | bytes, line_no: int) -> "VerdictRecord":
        doc = _parse_line(line, line_no)
        return cls(doc["domain"], doc["provider"], doc["campaign"],
                   doc["kind"], doc["payload"], doc["ts"])


class Repository:
    """Latest-wins keydir over an append-only log under ``root/records.jsonl``,
    with its hint in ``root/keydir.hint``.  It belongs to the one thread that
    opened it, and takes no lock."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "manifests").mkdir(exist_ok=True)
        self.log_path = self.root / "records.jsonl"
        self.hint_path = self.root / HINT_NAME
        self._reader = None  # opened on the first read-back
        self._appends_since_sync = 0
        # the keydir of the log's first _size bytes, which hold _lines lines
        # and hash to _digest: campaign -> (domain -> row, provider -> Column)
        self._campaigns: dict[str, tuple[dict, dict]] = {}
        self._size = self._lines = 0
        self._digest = hashlib.sha256()
        # how many log bytes the hint file on disk indexes; None for none
        self._hinted = None
        hint = read_hint(self.hint_path, self.log_path)
        if hint is not None:
            self._campaigns, self._size, self._lines, self._digest = hint
            self._hinted = self._size
        self._replay()
        try:
            self._fh = open(self.log_path, "ab")
        except OSError as exc:
            raise StorageError(f"cannot open log: {exc}") from exc

    def _replay(self) -> None:
        """Index, validating each, the log lines after the first ``_size``
        bytes, which the keydir already covers."""
        digest = self._digest
        offset, line_no = self._size, self._lines
        try:
            fh = open(self.log_path, "rb+")
        except FileNotFoundError:
            return
        with fh:
            fh.seek(offset)
            for line_no, raw in enumerate(fh, start=line_no + 1):
                if raw == b"\n":
                    offset += 1
                    digest.update(raw)
                    continue
                try:
                    doc = _parse_line(raw, line_no)
                except RecordSchemaError:
                    if raw.endswith(b"\n"):
                        raise StorageError(f"corrupt log record at line {line_no}") from None
                    # a killed writer leaves a partial final line; drop it so
                    # the next append does not concatenate onto garbage
                    fh.truncate(offset)
                    line_no -= 1
                    break
                try:
                    state, tallies = _state(doc["kind"], doc["payload"])
                except ValueError as exc:
                    raise StorageError(f"corrupt log record at line {line_no}: {exc}") from None
                self._put(doc["domain"], doc["provider"], doc["campaign"], offset, state, tallies)
                offset += len(raw)
                digest.update(raw)
                if not raw.endswith(b"\n"):
                    # the final line parses and only its newline was lost
                    fh.seek(offset)
                    fh.write(b"\n")
                    digest.update(b"\n")
                    offset += 1
        self._size, self._lines = offset, line_no

    def _put(self, domain, provider, campaign, offset, state, tallies) -> None:
        """Point a key at the line starting at ``offset``."""
        rows, columns = self._campaigns.setdefault(campaign, ({}, {}))
        row = rows.get(domain)
        if row is None:
            row = rows[domain] = len(rows)
            for col in columns.values():
                col.grow()
        col = columns.get(provider)
        if col is None:
            col = columns[provider] = Column(len(rows))
        col.put(row, state, offset, tallies)

    def _save_hint(self) -> None:
        """Rewrite the hint for the whole log."""
        try:
            write_hint(self.hint_path, self._campaigns, self._size, self._lines,
                       self._digest.hexdigest())
        except OSError:
            return  # a hint is only a shortcut: the next open replays the log
        self._hinted = self._size

    def _read(self, offset: int) -> VerdictRecord:
        """The full record whose line starts at ``offset``."""
        if self._reader is None:
            self._reader = open(self.log_path, "rb")
        self._reader.seek(offset)
        try:
            return VerdictRecord.from_json_line(self._reader.readline(), 0)
        except RecordSchemaError:
            raise StorageError(f"corrupt log record at byte {offset}") from None

    def upsert(self, record: VerdictRecord) -> None:
        """Append one record, as upsert_many does."""
        self.upsert_many((record,))

    def upsert_many(self, records) -> None:
        """Append the records in one write, flushed before returning.  If
        one of them is a record that replay would refuse, among them one
        outside the record vocabulary, or is not JSON-serializable, raise
        ValueError and write none of them."""
        lines, entries = [], []
        for record in records:
            problem = _unfit(*record[:5])
            if problem is not None:
                raise ValueError(problem)
            state, tallies = _state(record.kind, record.payload)
            try:
                lines.append((record.to_json() + "\n").encode("utf-8"))
            except TypeError as exc:
                raise ValueError(f"record is not JSON-serializable: {exc}") from None
            entries.append((record.key, state, tallies))
        data = b"".join(lines)
        try:
            self._fh.write(data)
            self._fh.flush()
            self._appends_since_sync += len(lines)
            if self._appends_since_sync >= _FSYNC_EVERY:
                os.fsync(self._fh.fileno())
                self._appends_since_sync = 0
        except OSError as exc:
            raise StorageError(f"log append failed: {exc}") from exc
        for line, (key, state, tallies) in zip(lines, entries):
            self._put(*key, self._size, state, tallies)
            self._size += len(line)
        self._lines += len(lines)
        self._digest.update(data)

    def get(self, domain: str, provider_id: str, campaign_id: str) -> VerdictRecord | None:
        rows, columns = self._campaigns.get(campaign_id, _NO_CAMPAIGN)
        row, col = rows.get(domain), columns.get(provider_id)
        if row is None or col is None or col.offsets[row] < 0:
            return None
        return self._read(col.offsets[row])

    def query(
        self,
        campaign_id: str,
        provider_id: str | None = None,
        kind: str | None = None,
    ) -> list[VerdictRecord]:
        """Latest records for a campaign, sorted by (domain, provider)."""
        wanted, found = ANY if kind is None else _OF_KIND[kind], []
        rows, columns = self._campaigns.get(campaign_id, _NO_CAMPAIGN)
        for provider, col in columns.items():
            if provider_id in (None, provider):
                found += compress(zip(rows, repeat(provider), col.offsets),
                                  col.states.translate(wanted))
        found.sort()  # keys are unique, so no two entries tie before the offset
        return [self._read(offset) for _domain, _provider, offset in found]

    def columns(self, campaign_id: str, kind: str) -> tuple:
        """(domains by row, [(provider, states, five tally columns or None)])
        of the campaign's providers holding a record of ``kind``, copied: the
        records held now, which analyze and the scan manifest reduce without
        an object per row."""
        rows, columns = self._campaigns.get(campaign_id, _NO_CAMPAIGN)
        return list(rows), [
            (provider, col.states[:], col.tallies and [column[:] for column in col.tallies])
            for provider, col in columns.items() if 1 in col.states.translate(_OF_KIND[kind])]

    def held(self, campaign_id: str, kind: str, domains: list, providers) -> dict[str, bytes]:
        """For each provider, one byte per domain: 1 where the domain's latest
        record from that provider in the campaign is of ``kind``, else 0."""
        rows, columns = self._campaigns.get(campaign_id, _NO_CAMPAIGN)
        at = list(map(rows.get, domains, repeat(len(rows))))  # len(rows): no row
        flags = {}
        for provider in providers:
            col = columns.get(provider)
            hit = col.states.translate(_OF_KIND[kind]) if col else bytes(len(rows))
            flags[provider] = bytes(map((hit + b"\0").__getitem__, at))
        return flags

    def latest_elsewhere(self, campaign_id: str, provider_id: str, kind: str, domains: list):
        """Yield, in log order, the latest record, by log offset, of ``kind``
        from the provider for each of ``domains`` held in any campaign but
        ``campaign_id``; domains held in none are left out.  Each record is
        read back when it is asked for, so the caller may upsert between
        records."""
        latest = {}
        for campaign, (rows, columns) in self._campaigns.items():
            col = columns.get(provider_id)
            if campaign == campaign_id or col is None:
                continue
            hit, offsets = col.states.translate(_OF_KIND[kind]), col.offsets
            for domain in domains:
                row = rows.get(domain)
                if row is not None and hit[row] and offsets[row] > latest.get(domain, -1):
                    latest[domain] = offsets[row]
        for offset in sorted(latest.values()):
            yield self._read(offset)

    def __len__(self) -> int:
        return sum(len(col.states) - col.states.count(0)
                   for _rows, columns in self._campaigns.values() for col in columns.values())

    def manifest_path(self, campaign_id: str) -> Path:
        return self.root / "manifests" / f"{campaign_id}.json"

    def write_manifest(self, campaign_id: str, manifest: dict) -> None:
        with open_aside(self.manifest_path(campaign_id)) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())

    def read_manifest(self, campaign_id: str) -> dict | None:
        """The campaign's manifest, or None for none; StorageError for a file
        that does not hold a JSON object."""
        path = self.manifest_path(campaign_id)
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_bytes())
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
            raise StorageError(f"corrupt manifest {path}: {exc}") from None
        if not isinstance(manifest, dict):
            raise StorageError(f"corrupt manifest {path}: not a JSON object")
        return manifest

    def close(self) -> None:
        """Flush the log and, if the keydir changed since the hint was
        written, rewrite the hint."""
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            if self._hinted != self._size:
                self._save_hint()

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
