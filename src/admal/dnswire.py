"""DNS wire-format encoding and parsing (RFC 1035, EDNS0 per RFC 6891).

Header layout:

    +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
    |                      ID                       |
    +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
    |QR|   Opcode  |AA|TC|RD|RA|   Z    |   RCODE   |
    +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
    |                    QDCOUNT                    |
    +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
    |                    ANCOUNT                    |
    +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
    |                    NSCOUNT                    |
    +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
    |                    ARCOUNT                    |
    +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+

Parsing is total over arbitrary bytes: anything that cannot be decoded
raises MalformedMessage, nothing else.  Unknown RR types are kept as
opaque hex rdata.  The message types are named tuples, cheap to build on
the scan's path from datagram to verdict.
"""

import ipaddress
import socket
import struct
from typing import NamedTuple

TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_SOA = 6
TYPE_PTR = 12
TYPE_MX = 15
TYPE_TXT = 16
TYPE_AAAA = 28
TYPE_OPT = 41

CLASS_IN = 1

RCODE_NOERROR = 0
RCODE_FORMERR = 1
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3
RCODE_NOTIMP = 4
RCODE_REFUSED = 5

FLAG_QR = 1 << 15
FLAG_AA = 1 << 10
FLAG_TC = 1 << 9
FLAG_RD = 1 << 8
FLAG_RA = 1 << 7

EDNS_UDP_SIZE = 1232
MAX_NAME_LEN = 255
MAX_LABEL_LEN = 63

_HEADER = struct.Struct("!HHHHHH")
_QUESTION_FIXED = struct.Struct("!HH")
_RR_FIXED = struct.Struct("!HHIH")
_TO_FIRST_QUESTION = b"\xc0\x0c"  # a compression pointer to the header's end


class MalformedMessage(ValueError):
    """Bytes that cannot be decoded as a DNS message."""


class Question(NamedTuple):
    name: str
    qtype: int


class ResourceRecord(NamedTuple):
    name: str
    rtype: int
    ttl: int
    rdata: str


class DnsResponse(NamedTuple):
    """A parsed DNS message (works for queries too; ANCOUNT is then zero)."""

    txid: int
    flags: int
    questions: tuple[Question, ...]
    answers: tuple[ResourceRecord, ...]
    authority: tuple[ResourceRecord, ...] = ()
    additional: tuple[ResourceRecord, ...] = ()
    latency_ms: int | None = None

    @property
    def rcode(self) -> int:
        return self.flags & 0xF

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_QR)

    @property
    def truncated(self) -> bool:
        return bool(self.flags & FLAG_TC)

    @property
    def recursion_available(self) -> bool:
        return bool(self.flags & FLAG_RA)

    def address_answers(self) -> tuple[str, ...]:
        """IPs from A/AAAA answer records."""
        return tuple(
            rr.rdata for rr in self.answers if rr.rtype in (TYPE_A, TYPE_AAAA)
        )


def encode_name(name: str) -> bytes:
    """Encode a domain name as length-prefixed labels."""
    out = bytearray()
    if name not in ("", "."):
        for label in name.rstrip(".").split("."):
            raw = label.encode("ascii")
            if not 1 <= len(raw) <= MAX_LABEL_LEN:
                raise ValueError(f"bad label length in {name!r}")
            out.append(len(raw))
            out += raw
    out.append(0)
    if len(out) > MAX_NAME_LEN:
        raise ValueError(f"name too long: {name!r}")
    return bytes(out)


def build_query(domain: str | bytes, qtype: int, txid: int) -> bytes:
    """Build a standard recursive query for ``domain``, or for a name that
    encode_name already encoded, with one question and an EDNS0 OPT record
    advertising ``EDNS_UDP_SIZE`` bytes of UDP payload."""
    qname = encode_name(domain) if isinstance(domain, str) else domain
    msg = _HEADER.pack(txid, FLAG_RD, 1, 0, 0, 1) + qname + _QUESTION_FIXED.pack(qtype, CLASS_IN)
    # root name, type OPT, class = advertised UDP size, ttl 0, no rdata
    return msg + b"\x00" + _RR_FIXED.pack(TYPE_OPT, EDNS_UDP_SIZE, 0, 0)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a (possibly compressed) name; returns (name, next offset)."""
    labels: list[str] = []
    total = 0
    pos = offset
    end: int | None = None
    visited: set[int] = set()
    while True:
        if pos >= len(data):
            raise MalformedMessage("name runs past end of message")
        length = data[pos]
        if length & 0xC0 == 0xC0:
            if pos + 1 >= len(data):
                raise MalformedMessage("truncated compression pointer")
            if end is None:
                end = pos + 2
            target = ((length & 0x3F) << 8) | data[pos + 1]
            if target in visited:
                raise MalformedMessage("compression pointer loop")
            visited.add(target)
            pos = target
        elif length & 0xC0:
            raise MalformedMessage("reserved label type")
        elif length == 0:
            if end is None:
                end = pos + 1
            return ".".join(labels), end
        else:
            if pos + 1 + length > len(data):
                raise MalformedMessage("label runs past end of message")
            total += length + 1
            if total > MAX_NAME_LEN:
                raise MalformedMessage("name longer than 255 octets")
            labels.append(
                data[pos + 1 : pos + 1 + length].decode("ascii", "backslashreplace")
            )
            pos += 1 + length


def _decode_rdata(data: bytes, rdata_off: int, rdlen: int, rtype: int) -> str:
    raw = data[rdata_off : rdata_off + rdlen]
    if rtype == TYPE_A:
        if rdlen != 4:
            raise MalformedMessage("A record rdata is not 4 bytes")
        return socket.inet_ntoa(raw)
    if rtype == TYPE_AAAA:
        if rdlen != 16:
            raise MalformedMessage("AAAA record rdata is not 16 bytes")
        return ipaddress.IPv6Address(raw).compressed
    if rtype in (TYPE_CNAME, TYPE_NS, TYPE_PTR):
        name, _ = decode_name(data, rdata_off)
        return name
    return raw.hex()


def _parse_rr(data: bytes, offset: int, qwire: bytes, qname: str) -> tuple[ResourceRecord, int]:
    # an owner name that points at the first question's name, or repeats its
    # bytes ``qwire``, decodes to that question's ``qname``: pointers are
    # absolute, so either decodes exactly as the question did
    if qwire and data.startswith(_TO_FIRST_QUESTION, offset):
        name, offset = qname, offset + 2
    elif qwire and data.startswith(qwire, offset):
        name, offset = qname, offset + len(qwire)
    else:
        name, offset = decode_name(data, offset)
    if offset + _RR_FIXED.size > len(data):
        raise MalformedMessage("truncated resource record")
    rtype, _rclass, ttl, rdlen = _RR_FIXED.unpack_from(data, offset)
    offset += _RR_FIXED.size
    if offset + rdlen > len(data):
        raise MalformedMessage("rdata runs past end of message")
    rdata = _decode_rdata(data, offset, rdlen, rtype)
    return ResourceRecord(name, rtype, ttl, rdata), offset + rdlen


def parse_response(data: bytes) -> DnsResponse:
    """Parse a full DNS message; raises MalformedMessage on anything broken."""
    if len(data) < _HEADER.size:
        raise MalformedMessage("message shorter than header")
    txid, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data)
    offset = _HEADER.size

    questions, owner = [], (b"", "")
    for _ in range(qdcount):
        name, end = decode_name(data, offset)
        if end + 4 > len(data):
            raise MalformedMessage("truncated question")
        if not questions:
            owner = (data[offset:end], name)
        questions.append(Question(name, _QUESTION_FIXED.unpack_from(data, end)[0]))
        offset = end + 4

    sections = []
    for count in (ancount, nscount, arcount):
        records = []
        for _ in range(count):
            rr, offset = _parse_rr(data, offset, *owner)
            records.append(rr)
        sections.append(tuple(records))
    return DnsResponse(txid, flags, tuple(questions), *sections)


def build_response(
    txid: int,
    question: Question,
    rcode: int = RCODE_NOERROR,
    answers: tuple[tuple[str, int, int, str], ...] = (),
    *,
    aa: bool = False,
    tc: bool = False,
    rd: bool = True,
    ra: bool = True,
) -> bytes:
    """Build a response echoing one question; answers are (name, type, ttl, value).

    Values are IPs for A/AAAA and names for CNAME/NS/PTR.  No compression.
    """
    flags = FLAG_QR | (rcode & 0xF)
    if aa:
        flags |= FLAG_AA
    if tc:
        flags |= FLAG_TC
    if rd:
        flags |= FLAG_RD
    if ra:
        flags |= FLAG_RA
    msg = bytearray(_HEADER.pack(txid, flags, 1, len(answers), 0, 0))
    msg += encode_name(question.name) + _QUESTION_FIXED.pack(question.qtype, CLASS_IN)
    for name, rtype, ttl, value in answers:
        if rtype == TYPE_A:
            rdata = socket.inet_aton(value)
        elif rtype == TYPE_AAAA:
            rdata = ipaddress.IPv6Address(value).packed
        elif rtype in (TYPE_CNAME, TYPE_NS, TYPE_PTR):
            rdata = encode_name(value)
        else:
            rdata = bytes.fromhex(value)
        msg += encode_name(name)
        msg += _RR_FIXED.pack(rtype, CLASS_IN, ttl, len(rdata))
        msg += rdata
    return bytes(msg)
