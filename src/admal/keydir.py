"""The columnar keydir of a repository, its hint file, and ``open_aside``.

Each campaign has one ``domain -> row`` dict shared by all its providers, so a
domain string is held once per campaign, and each (campaign, provider) has a
``Column`` of typed arrays indexed by row: the byte offset of the key's latest
log line (-1: no record) and a state code from the closed record vocabulary
below (0: no record).  A column holding a TI report adds five tally columns.

The hint (version 4; the README gives its layout) is JSON lines and raw array
blocks, never pickle, since a repository directory may come from elsewhere.
Each block is read by ``array.fromfile`` and hashed in place, and checked to
fit the log prefix before use; a hint in the other byte order is replayed.
"""

import contextlib
import hashlib
import json
import os
import stat
import sys
from array import array
from itertools import compress, count
from pathlib import Path

HINT_VERSION = 4
HASH_READ = 1 << 16

# the closed record vocabulary: every record ends as one DNS verdict, one TI
# status or an ad record, and a row's state code names which
BLOCKED, NOT_BLOCKED, INCONCLUSIVE = "blocked", "not_blocked", "inconclusive"
REPORT, NO_REPORT = "report", "no_report"
DNS_STATES = {BLOCKED: 1, NOT_BLOCKED: 2, INCONCLUSIVE: 3}
TI_STATES = {REPORT: 4, NO_REPORT: 5}
AD = 6
N_STATES = AD + 1  # codes 0 (no record) to AD
TALLY_MAX = 0xFFFF  # the most an array("H") tally column holds
# a TI report's tallies, in the order of a column's five tally columns
TALLIES = ("harmless", "undetected", "suspicious", "malicious", "timeout")


def check_report(tallies, partners=None) -> None:
    """Refuse, with ValueError, a TI report that analyze could not reduce:
    each of its five ``tallies`` must be an int in [0, TALLY_MAX], and a
    ``partners`` map, unless None, an object of ``TALLIES`` categories
    that agrees with them."""
    for name, value in zip(TALLIES, tallies):
        if type(value) is not int or not 0 <= value <= TALLY_MAX:
            raise ValueError(f"{name} is {value!r}, not a nonnegative int up to {TALLY_MAX}")
    if partners is None:
        return
    if not isinstance(partners, dict):
        raise ValueError(f"partner map is {type(partners).__name__}, not an object")
    tallied = dict.fromkeys(TALLIES, 0)
    for category in partners.values():
        if type(category) is not str or category not in tallied:  # a list is unhashable
            raise ValueError(f"unknown partner category {category!r}")
        tallied[category] += 1
    if tuple(tallied.values()) != tuple(tallies):
        raise ValueError(f"partner verdicts tally {tallied} != counts "
                         f"{dict(zip(TALLIES, tallies))}")


def flags(states) -> bytes:
    """The bytes.translate table turning a state column into 0/1 flags for
    the given state codes."""
    return bytes(int(i in states) for i in range(256))


ONLY = [flags({state}) for state in range(N_STATES)]
ANY = flags(range(1, N_STATES))


class Column:
    """One provider's keys in one campaign, indexed by the campaign's rows."""

    __slots__ = ("offsets", "states", "tallies")

    def __init__(self, rows: int = 0):
        self.offsets, self.states = array("q", [-1]) * rows, bytearray(rows)
        self.tallies = None  # five array("H") columns once a TI report needs them

    def grow(self) -> None:
        self.offsets.append(-1)
        self.states.append(0)
        for column in self.tallies or ():
            column.append(0)

    def put(self, row: int, state: int, offset: int, tallies) -> None:
        """Point the row at a record; ``tallies`` holds a report's five."""
        self.offsets[row], self.states[row] = offset, state
        if tallies:
            if self.tallies is None:
                self.tallies = [array("H", bytes(2 * len(self.states))) for _ in tallies]
            for column, tally in zip(self.tallies, tallies):
                column[row] = tally


def _trailer(digest) -> bytes:
    return (json.dumps({"sha256": digest.hexdigest()}) + "\n").encode("ascii")


@contextlib.contextmanager
def open_aside(path, mode: str = "w"):
    """A file, text (``"w"``, UTF-8, LF) or binary (``"wb"``), that replaces
    ``path`` if the block ends without raising: it is written to
    ``<path>.tmp``, then renamed over ``path`` in one ``os.replace``, so
    ``path`` holds the old bytes or the new, never neither.  A path that is
    not a regular file (``/dev/stdout``, a symlink) is written in place."""
    path = os.fspath(path)
    aside = not os.path.lexists(path) or stat.S_ISREG(os.lstat(path).st_mode)
    tmp = path + ".tmp" if aside else path
    text = mode == "w"
    fh = open(tmp, mode, encoding="utf-8" if text else None, newline="" if text else None)
    try:
        with fh:
            yield fh
    except BaseException:
        if aside:
            os.unlink(tmp)
        raise
    if aside:
        os.replace(tmp, path)


def write_hint(path: Path, campaigns: dict, size: int, lines: int, log_sha256: str) -> None:
    """Save the keydir as the hint for a log whose first ``size`` bytes hold
    ``lines`` lines and hash to ``log_sha256``, through ``open_aside``.  No
    fsync: a hint that did not reach the disk whole fails its own digest and
    is not used."""
    digest = hashlib.sha256()
    with open_aside(path, "wb") as fh:
        def put(block) -> None:
            digest.update(block)
            fh.write(block)

        def put_line(doc) -> None:
            put((json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii"))

        put_line({"keydir_hint": HINT_VERSION, "log_size": size, "log_lines": lines,
                  "log_sha256": log_sha256, "byteorder": sys.byteorder})
        for name, (rows, columns) in campaigns.items():
            put_line(["campaign", name, list(rows)])
            for provider, col in columns.items():
                put_line(["provider", provider, col.tallies is not None])
                for block in (col.offsets, col.states, *(col.tallies or ())):
                    put(block)
        fh.write(_trailer(digest))


def _block(fh, digest, typecode: str, rows: int) -> array:
    """The hint's next ``rows`` items, hashed in place; EOFError if cut short."""
    block = array(typecode)
    block.fromfile(fh, rows)
    digest.update(block)
    return block


def _column(fh, digest, rows: int, has_tallies: bool, size: int) -> Column:
    """A provider's columns from the blocks after its hint line, each of the
    campaign's row count; ValueError unless they fit the log prefix."""
    col = Column()
    col.offsets = _block(fh, digest, "q", rows)
    col.states = bytearray(_block(fh, digest, "B", rows))
    col.tallies = [_block(fh, digest, "H", rows) for _ in range(5)] if has_tallies else None
    if (col.states.translate(None, bytes(range(N_STATES)))  # codes outside the table
            # every record, and only a record, has an offset inside the prefix
            or min(compress(col.offsets, col.states.translate(ANY)), default=0) < 0
            or col.offsets.count(-1) != col.states.count(0) or max(col.offsets, default=0) >= size
            # a report has its tallies
            or (col.tallies is None and TI_STATES[REPORT] in col.states)):
        raise ValueError("hint columns do not fit")
    return col


def read_hint(path: Path, log_path: Path):
    """(campaigns, log size, log lines, log digest) from a whole, well-formed
    hint file of this version and byte order whose log prefix still hashes
    as it says; None for a missing, torn, garbled, foreign or stale one."""
    digest, campaigns = hashlib.sha256(), {}
    rows = columns = None  # of the campaign the provider lines belong to
    try:
        with open(path, "rb") as fh:
            head = json.loads(raw := fh.readline())
            digest.update(raw)
            size, lines, log_sha256 = head["log_size"], head["log_lines"], head["log_sha256"]
            if head["keydir_hint"] != HINT_VERSION or head["byteorder"] != sys.byteorder \
                    or type(size) is not int or type(lines) is not int or min(size, lines) < 0:
                return None
            for raw in iter(fh.readline, b""):
                if raw == _trailer(digest):
                    break
                digest.update(raw)
                doc = json.loads(raw)
                if doc[0] == "campaign" and type(doc[1]) is str:
                    rows, columns = campaigns[doc[1]] = (dict(zip(doc[2], count())), {})
                    if len(rows) != len(doc[2]) or not set(map(type, rows)) <= {str}:
                        return None
                elif doc[0] == "provider" and type(doc[1]) is str and type(doc[2]) is bool:
                    columns[doc[1]] = _column(fh, digest, len(rows), doc[2], size)
                else:
                    return None
            else:
                return None  # no trailer: the hint is torn
        digest = hashlib.sha256()
        with open(log_path, "rb") as fh:
            remaining = size
            while remaining:
                block = fh.read(min(remaining, HASH_READ))
                if not block:
                    return None  # the log is shorter than the hint says
                digest.update(block)
                remaining -= len(block)
    except (OSError, ValueError, TypeError, KeyError, IndexError, OverflowError, EOFError):
        return None
    if digest.hexdigest() != log_sha256:
        return None
    return campaigns, size, lines, digest
