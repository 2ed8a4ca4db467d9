"""Durable storage for per-(domain, provider) verdicts.

An append-only JSONL log, chosen over a database so campaign data stays
auditable and diffable, indexed by a keydir in the manner of Bitcask: memory
holds, for each (domain, provider, campaign) key, only its kind, the byte
offset of its latest line and a small summary (the verdict for ``dns``, the
status and five tallies for ``ti``, nothing for ``ad``).  Evidence and full
payloads stay on disk and are read back by offset.  Opening a repository
streams the log once, validating every line, unless a keydir hint file
(Bitcask's hint file) covers a prefix of the log: then the keydir is read
from the hint, the prefix is only hashed, and just the lines after it are
replayed.  One writer per repository instance; appends are flushed before the
ack so a killed campaign can resume from exactly what reached the log.
"""

import hashlib
import json
import os
import sys
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path

from .ticlient import payload_summary

KIND_DNS = "dns"
KIND_TI = "ti"
KIND_AD = "ad"
KINDS = (KIND_DNS, KIND_TI, KIND_AD)

_FSYNC_EVERY = 1000

HINT_NAME = "keydir.hint"
_HINT_VERSION = 1
_HINT_KEYS_PER_LINE = 1024
_HASH_READ = 1 << 16
# entries of a hint row, by kind: domain, provider, campaign, kind, offset,
# then the summary (a value reference, or a status reference and five tallies)
_ROW_LEN = {KIND_DNS: 6, KIND_TI: 11, KIND_AD: 5}
_KIND_INDEX = {kind: i for i, kind in enumerate(KINDS)}

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


# -- keydir hint file ----------------------------------------------------------
#
# JSON lines, never pickle, since a repository directory may come from
# elsewhere.  A header names the log prefix the hint indexes (size, line count,
# SHA-256); each following line holds up to _HINT_KEYS_PER_LINE keys as
# [new names, new values, domains, rows]; a trailer holds the SHA-256 of every
# line before it.  Provider and campaign names and the verdict and TI-status
# values are written on the line that first uses them and referred to by index
# from then on; domains are listed once per line.  A row is [domain, provider,
# campaign, kind index, offset] plus, for ``dns``, a value index, and for
# ``ti`` a status value index and the five tallies.


class _Refs(dict):
    """Value -> index in order of first use; ``fresh`` collects the values
    added since it was last cleared."""

    def __init__(self):
        super().__init__()
        self.fresh = []

    def __missing__(self, value):
        index = self[value] = len(self)
        self.fresh.append(value)
        return index


def _value_key(value):
    # a string stands for itself; any other value by its JSON text, so that
    # values Python calls equal but JSON spells apart (1, 1.0, true) stay apart
    return value if type(value) is str else (json.dumps(value),)


def _write_hint(path: Path, keydir: dict, size: int, lines: int, log_sha256: str) -> None:
    """Save ``keydir`` as the hint for a log whose first ``size`` bytes hold
    ``lines`` lines and hash to ``log_sha256``.  Written aside, then the old
    hint is unlinked and the new one renamed in: renaming over an existing
    file makes ext4 flush it synchronously.  No fsync: a hint that did not
    reach the disk whole fails its own digest and is not used."""
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    names, values = _Refs(), _Refs()
    with open(tmp, "wb") as fh:
        def put(doc) -> None:
            raw = (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")
            digest.update(raw)
            fh.write(raw)

        put({"keydir_hint": _HINT_VERSION, "log_size": size, "log_lines": lines,
             "log_sha256": log_sha256})
        items = iter(keydir.items())
        while chunk := list(islice(items, _HINT_KEYS_PER_LINE)):
            domains, rows = _Refs(), []
            for (domain, provider, campaign), (kind, offset, summary) in chunk:
                row = [domains[domain], names[provider], names[campaign], _KIND_INDEX[kind], offset]
                if kind == KIND_DNS:
                    row.append(values[_value_key(summary)])
                elif kind == KIND_TI:
                    row.append(values[_value_key(summary[0])])
                    row += summary[1:]
                rows.append(row)
            fresh_values = [k if type(k) is str else json.loads(k[0]) for k in values.fresh]
            put([names.fresh, fresh_values, domains.fresh, rows])
            names.fresh, values.fresh = [], []
        fh.write((json.dumps({"sha256": digest.hexdigest()}) + "\n").encode("ascii"))
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    os.rename(tmp, path)


def _read_hint(path: Path):
    """(keydir, log size, log lines, log SHA-256) from a whole, well-formed
    hint file; None for a missing, torn, garbled or foreign one."""
    intern = sys.intern
    digest = hashlib.sha256()
    keydir: dict = {}
    names: list = []
    values: list = []
    try:
        with open(path, "rb") as fh:
            raw = fh.readline()
            digest.update(raw)
            head = json.loads(raw)
            if type(head) is not dict or head.get("keydir_hint") != _HINT_VERSION:
                return None
            size, lines, log_sha256 = head["log_size"], head["log_lines"], head["log_sha256"]
            if type(size) is not int or type(lines) is not int or size < 0 or lines < 0 \
                    or type(log_sha256) is not str:
                return None
            for raw in fh:
                doc = json.loads(raw)
                if type(doc) is dict:  # the trailer
                    if doc.get("sha256") != digest.hexdigest():
                        return None
                    return keydir, size, lines, log_sha256
                digest.update(raw)
                new_names, new_values, domains, rows = doc
                names += map(intern, new_names)
                values += [intern(v) if type(v) is str else v for v in new_values]
                domains = list(map(intern, domains))
                for row in rows:
                    kind = KINDS[row[3]]
                    offset = row[4]
                    if type(offset) is not int or not 0 <= offset < size \
                            or len(row) != _ROW_LEN[kind]:
                        return None
                    if kind is KIND_DNS:
                        summary = values[row[5]]
                    elif kind is KIND_TI:
                        summary = (values[row[5]], *row[6:])
                    else:
                        summary = None
                    keydir[domains[row[0]], names[row[1]], names[row[2]]] = (kind, offset, summary)
    except (OSError, ValueError, TypeError, KeyError, IndexError):
        return None
    return None  # no trailer: the hint is torn


class Repository:
    """Latest-wins keydir over an append-only log under ``root/records.jsonl``,
    with its hint in ``root/keydir.hint``."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "manifests").mkdir(exist_ok=True)
        self.log_path = self.root / "records.jsonl"
        self.hint_path = self.root / HINT_NAME
        self._lock = threading.Lock()
        self._reader = None  # opened on the first read-back
        self._appends_since_sync = 0
        # (domain, provider, campaign) -> (kind, byte offset of its line, summary)
        # for the log's first _size bytes, which hold _lines lines and hash to
        # _digest
        self._keydir: dict[tuple[str, str, str], tuple[str, int, object]] = {}
        self._size = self._lines = 0
        self._digest = hashlib.sha256()
        # how many log bytes the hint file on disk indexes; None for none
        self._hinted = self._load_hint()
        self._replay()
        try:
            self._fh = open(self.log_path, "ab")
        except OSError as exc:
            raise StorageError(f"cannot open log: {exc}") from exc

    def _load_hint(self) -> int | None:
        """Take the keydir from the hint file if the log's first bytes still
        hash as the hint says; returns how many bytes it covers, or None."""
        hint = _read_hint(self.hint_path)
        if hint is None:
            return None
        keydir, size, lines, log_sha256 = hint
        digest = hashlib.sha256()
        try:
            with open(self.log_path, "rb") as fh:
                remaining = size
                while remaining:
                    block = fh.read(min(remaining, _HASH_READ))
                    if not block:
                        return None  # the log is shorter than the hint says
                    digest.update(block)
                    remaining -= len(block)
        except OSError:
            return None
        if digest.hexdigest() != log_sha256:
            return None
        self._keydir, self._size, self._lines, self._digest = keydir, size, lines, digest
        return size

    def _replay(self) -> None:
        """Index, validating each, the log lines after the first ``_size``
        bytes, which the keydir already covers."""
        intern = sys.intern
        keydir, digest = self._keydir, self._digest
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
                    summary = _summary(doc["kind"], doc["payload"])
                except ValueError as exc:
                    raise StorageError(f"corrupt log record at line {line_no}: {exc}") from None
                key = (intern(doc["domain"]), intern(doc["provider"]), intern(doc["campaign"]))
                keydir[key] = (intern(doc["kind"]), offset, summary)
                offset += len(raw)
                digest.update(raw)
                if not raw.endswith(b"\n"):
                    # the final line parses and only its newline was lost
                    fh.seek(offset)
                    fh.write(b"\n")
                    digest.update(b"\n")
                    offset += 1
        self._size, self._lines = offset, line_no

    def _save_hint(self) -> None:
        """Rewrite the hint for the whole log; caller holds the lock."""
        try:
            _write_hint(self.hint_path, self._keydir, self._size, self._lines,
                        self._digest.hexdigest())
        except OSError:
            return  # a hint is only a shortcut: the next open replays the log
        self._hinted = self._size

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
        A record that replay would refuse, one that is not JSON-serializable,
        and a ``ti`` payload whose partner map disagrees with its tallies
        raise ValueError and are not written."""
        problem = _unfit(record.domain, record.provider_id, record.campaign_id,
                         record.kind, record.payload)
        if problem is not None:
            raise ValueError(problem)
        summary = _summary(record.kind, record.payload)
        try:
            line = (record.to_json() + "\n").encode("utf-8")
        except TypeError as exc:
            raise ValueError(f"record is not JSON-serializable: {exc}") from None
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
            self._lines += 1
            self._digest.update(line)
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

    def _write_sorted(self, fh):
        """Write every latest record to ``fh`` in (domain, provider) order;
        returns (key, new offset) pairs as they would sit in that file, and
        the SHA-256 of what was written."""
        placed, offset, digest = [], 0, hashlib.sha256()
        for key, old_offset in self._sorted_records(self._keydir):
            line = (self._read(old_offset).to_json() + "\n").encode("utf-8")
            fh.write(line)
            digest.update(line)
            placed.append((key, offset))
            offset += len(line)
        return placed, digest

    def export(self, path) -> int:
        """Write the latest-wins view as sorted JSONL; returns record count."""
        with self._lock, open(path, "wb") as fh:
            return len(self._write_sorted(fh)[0])

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
        """Rewrite the log with only the latest record per key, and its hint."""
        with self._lock:
            tmp = self.log_path.with_suffix(".jsonl.tmp")
            try:
                with open(tmp, "wb") as fh:
                    placed, digest = self._write_sorted(fh)
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
            self._size, self._lines, self._digest = size, len(placed), digest
            self._hinted = None
            self._save_hint()

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
        """Flush the log and, if the keydir changed since the hint was
        written, rewrite the hint."""
        with self._lock:
            self._close_reader()
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
