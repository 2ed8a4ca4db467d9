"""Durable storage for per-(domain, provider) verdicts.

An append-only JSONL log, chosen over a database so campaign data stays
auditable and diffable, indexed by a keydir in the manner of Bitcask: memory
holds, for each (domain, provider, campaign) key, only its kind, the byte
offset of its latest line and a small summary (the verdict for ``dns``, the
status and five tallies for ``ti``, nothing for ``ad``).  Evidence and full
payloads stay on disk and are read back by offset.  Opening a repository
streams the log once, validating every line.  One writer per repository
instance; appends are flushed before the ack so a killed campaign can resume
from exactly what reached the log.
"""

import json
import os
import sys
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .ticlient import payload_summary

KIND_DNS = "dns"
KIND_TI = "ti"
KIND_AD = "ad"
KINDS = (KIND_DNS, KIND_TI, KIND_AD)

_FSYNC_EVERY = 1000

_FIELDS = ("domain", "provider", "campaign", "kind", "payload", "ts")
_KEY_FIELDS = ("domain", "provider", "campaign")


class StorageError(Exception):
    pass


class RecordSchemaError(ValueError):
    """Corrupt or invalid record line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def utc_now_rfc3339() -> str:
    """Current UTC time, RFC3339 with millisecond precision."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


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
    for name in _KEY_FIELDS:
        if not isinstance(doc[name], str):
            raise RecordSchemaError(line_no, f"{name} is not a string")
    if doc["kind"] not in KINDS:
        raise RecordSchemaError(line_no, f"unknown kind {doc['kind']!r}")
    if not isinstance(doc["payload"], dict):
        raise RecordSchemaError(line_no, "payload is not an object")
    return doc


def _summary(kind: str, payload: dict):
    """What the keydir keeps of a payload; raises ValueError for a ``ti``
    payload whose partner map disagrees with its tallies."""
    if kind == KIND_DNS:
        verdict = payload.get("verdict")
        return sys.intern(verdict) if type(verdict) is str else verdict
    if kind == KIND_TI:
        return payload_summary(payload)
    return None


@dataclass(frozen=True)
class VerdictRecord:
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
        return json.dumps(
            {
                "domain": self.domain,
                "provider": self.provider_id,
                "campaign": self.campaign_id,
                "kind": self.kind,
                "payload": self.payload,
                "ts": self.recorded_at,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json_line(cls, line: str | bytes, line_no: int) -> "VerdictRecord":
        doc = _parse_line(line, line_no)
        return cls(doc["domain"], doc["provider"], doc["campaign"],
                   doc["kind"], doc["payload"], doc["ts"])


class Repository:
    """Latest-wins keydir over an append-only log under ``root/records.jsonl``."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "manifests").mkdir(exist_ok=True)
        self.log_path = self.root / "records.jsonl"
        self._lock = threading.Lock()
        # (domain, provider, campaign) -> (kind, byte offset of its line, summary)
        self._keydir: dict[tuple[str, str, str], tuple[str, int, object]] = {}
        self._reader = None  # opened on the first read-back
        self._appends_since_sync = 0
        self._size = self._replay()
        try:
            self._fh = open(self.log_path, "ab")
        except OSError as exc:
            raise StorageError(f"cannot open log: {exc}") from exc

    def _replay(self) -> int:
        """Index every line of the log; returns the log's size in bytes."""
        if not self.log_path.exists():
            return 0
        intern = sys.intern
        offset = 0
        with open(self.log_path, "rb+") as fh:
            for line_no, raw in enumerate(fh, start=1):
                if raw == b"\n":
                    offset += 1
                    continue
                try:
                    doc = _parse_line(raw, line_no)
                except RecordSchemaError:
                    if raw.endswith(b"\n"):
                        raise StorageError(f"corrupt log record at line {line_no}") from None
                    # a killed writer leaves a partial final line; drop it so
                    # the next append does not concatenate onto garbage
                    fh.truncate(offset)
                    break
                try:
                    summary = _summary(doc["kind"], doc["payload"])
                except ValueError as exc:
                    raise StorageError(f"corrupt log record at line {line_no}: {exc}") from None
                key = (intern(doc["domain"]), intern(doc["provider"]), intern(doc["campaign"]))
                self._keydir[key] = (intern(doc["kind"]), offset, summary)
                offset += len(raw)
                if not raw.endswith(b"\n"):
                    # the final line parses and only its newline was lost
                    fh.seek(offset)
                    fh.write(b"\n")
                    offset += 1
        return offset

    def _read(self, offset: int) -> VerdictRecord:
        """The full record whose line starts at ``offset``; caller holds the lock."""
        if self._reader is None:
            self._reader = open(self.log_path, "rb")
        self._reader.seek(offset)
        try:
            return VerdictRecord.from_json_line(self._reader.readline(), 0)
        except RecordSchemaError:
            raise StorageError(f"corrupt log record at byte {offset}") from None

    def _sorted_records(self, keys) -> list:
        """(key, offset) pairs of the given keys in (domain, provider) order."""
        keydir = self._keydir
        return sorted(((key, keydir[key][1]) for key in keys), key=lambda item: item[0][:2])

    def upsert(self, record: VerdictRecord) -> None:
        """Append the record; the log write is flushed before returning.
        A ``ti`` payload whose partner map disagrees with its tallies raises
        ValueError and is not written."""
        summary = _summary(record.kind, record.payload)
        line = (record.to_json() + "\n").encode("utf-8")
        intern = sys.intern
        key = (intern(record.domain), intern(record.provider_id), intern(record.campaign_id))
        with self._lock:
            offset = self._size
            try:
                self._fh.write(line)
                self._fh.flush()
                self._appends_since_sync += 1
                if self._appends_since_sync >= _FSYNC_EVERY:
                    os.fsync(self._fh.fileno())
                    self._appends_since_sync = 0
            except OSError as exc:
                raise StorageError(f"log append failed: {exc}") from exc
            self._size += len(line)
            self._keydir[key] = (intern(record.kind), offset, summary)

    def get(self, domain: str, provider_id: str, campaign_id: str) -> VerdictRecord | None:
        with self._lock:
            entry = self._keydir.get((domain, provider_id, campaign_id))
            return self._read(entry[1]) if entry is not None else None

    def query(
        self,
        campaign_id: str,
        provider_id: str | None = None,
        kind: str | None = None,
    ) -> list[VerdictRecord]:
        """Latest records for a campaign, sorted by (domain, provider)."""
        with self._lock:
            keys = [
                key
                for key, (k, _offset, _summary) in self._keydir.items()
                if key[2] == campaign_id
                and (provider_id is None or key[1] == provider_id)
                and (kind is None or k == kind)
            ]
            return [self._read(offset) for _key, offset in self._sorted_records(keys)]

    def summaries(self, campaign_id: str, kind: str):
        """Yield (domain, provider, summary) of a campaign's records of one
        kind, in no set order, without reading the log.  The summary is the
        verdict string for ``dns``, (status, harmless, undetected,
        suspicious, malicious, timeout) for ``ti`` and None for ``ad``."""
        with self._lock:
            keys = [key for key, entry in self._keydir.items()
                    if key[2] == campaign_id and entry[0] == kind]
        keydir = self._keydir
        for key in keys:
            # keys are never removed, but an upsert may have changed the kind
            entry_kind, _offset, summary = keydir[key]
            if entry_kind == kind:
                yield key[0], key[1], summary

    def existing_pairs(self, campaign_id: str, kind: str) -> set[tuple[str, str]]:
        return {(domain, provider_id)
                for domain, provider_id, _summary in self.summaries(campaign_id, kind)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._keydir)

    def _write_sorted(self, fh) -> list:
        """Write every latest record to ``fh`` in (domain, provider) order;
        returns (key, new offset) pairs as they would sit in that file."""
        placed, offset = [], 0
        for key, old_offset in self._sorted_records(self._keydir):
            line = (self._read(old_offset).to_json() + "\n").encode("utf-8")
            fh.write(line)
            placed.append((key, offset))
            offset += len(line)
        return placed

    def export(self, path) -> int:
        """Write the latest-wins view as sorted JSONL; returns record count."""
        with self._lock, open(path, "wb") as fh:
            return len(self._write_sorted(fh))

    def import_records(self, path) -> int:
        """Ingest an exported JSONL file; idempotent for repeated imports."""
        count = 0
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                record = VerdictRecord.from_json_line(line, line_no)
                try:
                    self.upsert(record)
                except ValueError as exc:
                    raise RecordSchemaError(line_no, str(exc)) from None
                count += 1
        return count

    def compact(self) -> None:
        """Rewrite the log with only the latest record per key."""
        with self._lock:
            tmp = self.log_path.with_suffix(".jsonl.tmp")
            try:
                with open(tmp, "wb") as fh:
                    placed = self._write_sorted(fh)
                    fh.flush()
                    os.fsync(fh.fileno())
                    size = fh.tell()
                self._fh.close()
                self._close_reader()
                os.replace(tmp, self.log_path)
                self._fh = open(self.log_path, "ab")
            except OSError as exc:
                raise StorageError(f"compaction failed: {exc}") from exc
            keydir = self._keydir
            for key, offset in placed:
                kind, _old, summary = keydir[key]
                keydir[key] = (kind, offset, summary)
            self._size = size

    def manifest_path(self, campaign_id: str) -> Path:
        return self.root / "manifests" / f"{campaign_id}.json"

    def write_manifest(self, campaign_id: str, manifest: dict) -> None:
        path = self.manifest_path(campaign_id)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def read_manifest(self, campaign_id: str) -> dict | None:
        path = self.manifest_path(campaign_id)
        if not path.exists():
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def _close_reader(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def close(self) -> None:
        with self._lock:
            self._close_reader()
            if not self._fh.closed:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
