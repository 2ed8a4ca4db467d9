"""The columnar keydir of a repository and its hint file.

Each campaign has one ``domain -> row`` dict shared by all its providers, so a
domain string is held once per campaign, and each (campaign, provider) has a
``Column`` of typed arrays indexed by row: the byte offset of the key's latest
log line (-1: no record), the number of the line where the key first
appeared (export's tie-break between campaigns), a kind code (0: no record)
and a code into the repository's table of distinct DNS verdicts and TI
statuses, which is keyed by JSON text so that ``1``, ``1.0`` and ``true`` stay
apart.  A column holding a TI record adds five tally columns; a TI summary
they cannot hold exactly (a tally that is neither None nor an int below
65535) goes to the column's side table instead.

The hint is JSON lines, never pickle, since a repository directory may come
from elsewhere: a header names the log prefix it indexes (size, line count,
SHA-256), ``["values", table]`` follows, then per campaign ``["campaign",
name, domains by row]`` and per provider ``["provider", name, offsets, first
lines, kinds, codes, tallies or null, [[row, summary], ...]]``, and a trailer
holds the SHA-256 of every line before it.  Loading it is ``json.loads``,
``array(...)`` and ``dict(zip(...))``, all in C.
"""

import hashlib
import json
import os
from array import array
from itertools import compress, count
from operator import and_
from pathlib import Path

HINT_VERSION = 2
HASH_READ = 1 << 16

# kind codes, 0 marking a row with no record, and the bytes.translate tables
# that turn a kind column into 0/1 flags for one code, or for any record
DNS, TI, AD = 1, 2, 3
ONLY = [bytes(int(i == code) for i in range(256)) for code in range(4)]
ANY = bytes(int(i != 0) for i in range(256))
NO_TALLY = 0xFFFF  # None in a tally column
UNTALLY = {NO_TALLY: None}


def value_key(value):
    # a string stands for itself; any other value by its JSON text, so that
    # values Python calls equal but JSON spells apart (1, 1.0, true) stay apart
    return value if type(value) is str else (json.dumps(value),)


class Column:
    """One provider's keys in one campaign, indexed by the campaign's rows."""

    __slots__ = ("offsets", "born", "kinds", "codes", "tallies", "odd")

    def __init__(self, rows: int = 0):
        self.offsets, self.born = array("q", [-1]) * rows, array("q", [-1]) * rows
        self.kinds, self.codes = bytearray(rows), array("i", [-1]) * rows
        self.tallies = None  # five array("H") columns once a TI summary fits them
        self.odd = {}  # row -> a TI summary the tally columns cannot hold

    def grow(self) -> None:
        for column in (self.offsets, self.born, self.codes):
            column.append(-1)
        self.kinds.append(0)
        for column in self.tallies or ():
            column.append(NO_TALLY)

    def put(self, row: int, kind: int, offset: int, line_no: int, summary, code) -> None:
        """Point the row at a record; ``code`` gives a summary value's code."""
        if not self.kinds[row]:
            self.born[row] = line_no
        self.offsets[row], self.kinds[row] = offset, kind
        self.odd.pop(row, None)
        if kind == TI:
            summary, tallies = summary[0], summary[1:]
            if not all(t is None or type(t) is int and 0 <= t < NO_TALLY for t in tallies):
                self.odd[row], self.codes[row] = (summary, *tallies), -1
                return
            if self.tallies is None:
                self.tallies = [array("H", [NO_TALLY]) * len(self.kinds) for _ in tallies]
            for column, tally in zip(self.tallies, tallies):
                column[row] = NO_TALLY if tally is None else tally
        self.codes[row] = -1 if kind == AD else code(summary)


def write_hint(path: Path, values: list, campaigns: dict, size: int, lines: int,
               log_sha256: str) -> None:
    """Save the keydir as the hint for a log whose first ``size`` bytes hold
    ``lines`` lines and hash to ``log_sha256``.  Written aside, then the old
    hint is unlinked and the new one renamed in: renaming over an existing
    file makes ext4 flush it synchronously.  No fsync: a hint that did not
    reach the disk whole fails its own digest and is not used."""
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    with open(tmp, "wb") as fh:
        def put(doc) -> None:
            raw = (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")
            digest.update(raw)
            fh.write(raw)

        put({"keydir_hint": HINT_VERSION, "log_size": size, "log_lines": lines,
             "log_sha256": log_sha256})
        put(["values", values])
        for name, (rows, columns) in campaigns.items():
            put(["campaign", name, list(rows)])
            for provider, col in columns.items():
                put(["provider", provider, col.offsets.tolist(), col.born.tolist(),
                     list(col.kinds), col.codes.tolist(),
                     None if col.tallies is None else [c.tolist() for c in col.tallies],
                     list(col.odd.items())])
        fh.write((json.dumps({"sha256": digest.hexdigest()}) + "\n").encode("ascii"))
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    os.rename(tmp, path)


def _column(doc: list, rows: int, size: int, values: int) -> Column:
    """A provider's columns from its hint line; ValueError unless they fit
    the campaign's rows, the log prefix and the value table."""
    col = Column()
    col.offsets, col.born, col.kinds, col.codes = (
        array("q", doc[2]), array("q", doc[3]), bytearray(doc[4]), array("i", doc[5]))
    col.tallies = [array("H", column) for column in doc[6]] if doc[6] else None
    col.odd = {row: tuple(summary) for row, summary in doc[7]}
    flags = col.kinds.translate
    if ({len(c) for c in (col.offsets, col.born, col.kinds, col.codes, *(col.tallies or ()))}
            - {rows} or col.tallies is not None and len(col.tallies) != 5
            or len(col.odd) != len(doc[7])
            or max(col.kinds, default=0) > AD
            # every record, and only a record, has an offset inside the prefix
            or min(compress(col.offsets, flags(ANY)), default=0) < 0
            or col.offsets.count(-1) != col.kinds.count(0) or max(col.offsets, default=0) >= size
            # a DNS row has a code; a TI row has one unless the side table has it
            or not -1 <= min(col.codes, default=0) <= max(col.codes, default=0) < values
            or min(compress(col.codes, flags(ONLY[DNS])), default=0) < 0
            or list(compress(col.codes, flags(ONLY[TI]))).count(-1) != len(col.odd)
            or not all(type(row) is int and 0 <= row < rows and col.kinds[row] == TI
                       and col.codes[row] == -1 and len(summary) == 6
                       for row, summary in col.odd.items())
            or col.tallies is None and flags(ONLY[TI]).count(1) > len(col.odd)):
        raise ValueError("hint columns do not fit")
    return col


def read_hint(path: Path, log_path: Path):
    """(values, campaigns, log size, log lines, log digest) from a whole,
    well-formed hint file whose log prefix still hashes as it says; None for
    a missing, torn, garbled, foreign or stale one."""
    digest, campaigns = hashlib.sha256(), {}
    rows = columns = None  # of the campaign the provider lines belong to
    try:
        with open(path, "rb") as fh:
            head = json.loads(raw := fh.readline())
            digest.update(raw)
            size, lines, log_sha256 = head["log_size"], head["log_lines"], head["log_sha256"]
            if head["keydir_hint"] != HINT_VERSION or type(size) is not int \
                    or type(lines) is not int or min(size, lines) < 0:
                return None
            tag, values = json.loads(raw := fh.readline())
            digest.update(raw)
            if tag != "values" or type(values) is not list \
                    or len({value_key(v) for v in values}) != len(values):
                return None
            for raw in fh:
                doc = json.loads(raw)
                if type(doc) is dict:  # the trailer
                    break
                digest.update(raw)
                if doc[0] == "campaign" and type(doc[1]) is str:
                    rows, columns = campaigns[doc[1]] = (dict(zip(doc[2], count())), {})
                    if len(rows) != len(doc[2]) or not set(map(type, rows)) <= {str}:
                        return None
                elif doc[0] == "provider" and type(doc[1]) is str:
                    columns[doc[1]] = _column(doc, len(rows), size, len(values))
                else:
                    return None
            else:
                return None  # no trailer: the hint is torn
            if doc.get("sha256") != digest.hexdigest():
                return None
        digest = hashlib.sha256()
        with open(log_path, "rb") as fh:
            remaining = size
            while remaining:
                block = fh.read(min(remaining, HASH_READ))
                if not block:
                    return None  # the log is shorter than the hint says
                digest.update(block)
                remaining -= len(block)
    except (OSError, ValueError, TypeError, KeyError, IndexError, OverflowError):
        return None
    if digest.hexdigest() != log_sha256:
        return None
    return values, campaigns, size, lines, digest
