"""Turn pre-captured request logs into a deduplicated domain corpus.

Input is either a newline-delimited URL list or a JSON capture document
(see ``parse_capture`` for the schema).  A URL list is streamed: it is read
in blocks of whole lines (``line_blocks``), each block is split into the raw
host of each URL (``parse_url_list``), and the hosts are folded into one
running ``Corpus`` (``dedupe``).  No object is built per URL, so memory
grows with the distinct hosts, not with the lines.

Hostnames are normalized to lowercase ASCII (punycode for IDN labels), ports
and trailing dots are stripped, and IP-literal hosts are excluded with a
counted reject reason.  ``idna`` is imported on the first non-ASCII label.
"""

import ipaddress
import re
from collections import Counter
from typing import Iterable, Iterator
from urllib.parse import urlsplit

MAX_LABEL_LEN = 63
MAX_NAME_LEN = 253
# characters of a URL list read at a time; a block of about 5,000 URLs
BLOCK_CHARS = 1 << 18

_ASCII_LABEL_RE = re.compile(r"^[a-z0-9_-]+$")
# a final label a URL parser reads as an IPv4 number (WHATWG URL, "ends in a
# number"); no DNS top-level domain is numeric (RFC 3696 section 2)
_NUMERIC_LABEL_RE = re.compile(r"[0-9]+|0x[0-9a-f]*")
# a name normalize_hostname returns unchanged: at most 253 characters of
# lowercase ASCII labels of 1 to 63 characters, the last one not numeric
_CANONICAL_RE = re.compile(
    r"(?=.{1,253}\Z)(?:[a-z0-9_-]{1,63}\.)*(?![0-9]+\Z|0x[0-9a-f]*\Z)[a-z0-9_-]{1,63}")
# an http(s) URL with a plain ASCII host and an optional decimal port: urlsplit's
# hostname is group 1 lowercased (no IGNORECASE: it folds "\u017f" to "s")
_PLAIN_URL_RE = re.compile(r"[hH][tT][tT][pP][sS]?://([A-Za-z0-9._-]+)(?::[0-9]*)?(?=[/?#]|\Z)")
# an RFC 3339 section 5.6 date-time; "T" and "Z" may be lower case (its
# section 5.6 note); groups: year, month, day, hour, minute, second, and the
# offset's hour and minute
_DATE_TIME_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})[Tt]([0-9]{2}):([0-9]{2}):([0-9]{2})"
                           r"(?:\.[0-9]+)?(?:[Zz]|[+-]([0-9]{2}):([0-9]{2}))")
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


class IngestError(ValueError):
    pass


class InvalidHostError(IngestError):
    """Hostname that cannot be normalized into a valid domain."""


class IpLiteralError(IngestError):
    """Host is an IPv4/IPv6 literal; excluded from the domain corpus."""


class SchemaError(IngestError):
    """Capture document violates the expected schema."""

    def __init__(self, path: str, message: str = "missing or invalid field"):
        self.path = path
        super().__init__(f"{path}: {message}")


class Corpus:
    """What ``dedupe`` has folded in so far: the distinct domains in
    first-seen order, the outcome of each raw host (None when it became a
    domain, else its reject reason), and the rejected URLs by reason."""

    __slots__ = ("domains", "outcomes", "rejects")

    def __init__(self):
        self.domains: dict[str, None] = {}  # insertion-ordered set
        self.outcomes: dict[str, str | None] = {}
        self.rejects: Counter = Counter()


def normalize_hostname(host: str) -> str:
    """Normalize a raw hostname into canonical corpus form.

    Lowercase, ASCII-only (IDN labels punycode-encoded), no trailing dot.
    Raises IpLiteralError for IPv4/IPv6 literals and InvalidHostError for
    anything that is not a plausible DNS name, including a name whose last
    label is numeric (``127.1``, ``example.123``, ``a.0x7f``).
    """
    host = host.strip().rstrip(".")
    if not host:
        raise InvalidHostError("empty hostname")
    if host.startswith("[") and host.endswith("]") or is_ip_literal(host):
        raise IpLiteralError(host)

    labels = []
    for label in host.split("."):
        if not label:
            raise InvalidHostError(f"empty label in {host!r}")
        labels.append(_normalize_label(label, host))
    if _NUMERIC_LABEL_RE.fullmatch(labels[-1]):
        raise InvalidHostError(f"numeric final label in {host!r}")

    name = ".".join(labels)
    if len(name) > MAX_NAME_LEN:
        raise InvalidHostError(f"name longer than {MAX_NAME_LEN} chars")
    return name


def is_canonical(host: str) -> bool:
    """True when ``normalize_hostname`` would return ``host`` unchanged; a
    cheap test that lets already normalized names skip it."""
    return _CANONICAL_RE.fullmatch(host) is not None


def is_ip_literal(text: str) -> bool:
    """True when ``ipaddress.ip_address`` accepts the text.  Every IPv4
    literal ends in an ASCII digit and every IPv6 literal holds a colon, so
    other text skips the parse and the ValueError it would raise."""
    if ":" not in text and not "0" <= text[-1:] <= "9":
        return False
    try:
        ipaddress.ip_address(text)
    except ValueError:
        return False
    return True


def _normalize_label(label: str, host: str) -> str:
    if label.isascii():
        label = label.lower()
        if len(label) > MAX_LABEL_LEN:
            raise InvalidHostError(f"label longer than {MAX_LABEL_LEN} chars in {host!r}")
        if not _ASCII_LABEL_RE.match(label):
            raise InvalidHostError(f"invalid characters in label {label!r}")
        return label
    import idna

    try:
        encoded = idna.encode(label, uts46=True).decode("ascii")
    except idna.IDNAError:
        # IDNA 2008 rejects some labels browsers still resolve; fall back to
        # raw punycode so the corpus does not silently shrink.
        try:
            encoded = "xn--" + label.lower().encode("punycode").decode("ascii")
        except UnicodeError:
            raise InvalidHostError(f"label {label!r} is not IDNA-encodable") from None
    if len(encoded) > MAX_LABEL_LEN:
        raise InvalidHostError(f"label longer than {MAX_LABEL_LEN} chars in {host!r}")
    return encoded


def url_host(url: str) -> str | None:
    """The raw host of an absolute http(s) URL ("" when it has none), or None
    when the URL is not one."""
    if plain := _PLAIN_URL_RE.match(url):
        return plain.group(1).lower()
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    if parts.scheme not in ("http", "https") or not parts.netloc:
        return None
    return parts.hostname or ""


def line_blocks(fh) -> Iterator[str]:
    """The text of ``fh`` in blocks of whole lines, read ``BLOCK_CHARS``
    characters at a time.  The last piece of each block's ``splitlines`` is
    carried into the next block, so the blocks split into exactly the lines
    the whole text splits into; a line longer than a block is carried until
    it ends."""
    carry = ""
    while block := fh.read(BLOCK_CHARS):
        block = carry + block
        carry = block.splitlines(keepends=True)[-1]
        if len(block) > len(carry):
            yield block[:len(block) - len(carry)]
    if carry:
        yield carry


def parse_url_list(text: str) -> tuple[list[str], int]:
    """Split newline-delimited URLs into the raw host of each absolute
    http(s) URL ("" when it has none) and the number of other lines; blank
    lines and '#' comments are neither.

    Total function: never raises.  Each URL is split once, most by one regex
    match rather than urlsplit.
    """
    hosts: list[str] = []
    rejected = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        host = url_host(line)
        if host is None:
            rejected += 1
        else:
            hosts.append(host)
    return hosts, rejected


def parse_capture(doc) -> list[str]:
    """The URLs of a JSON capture document, order preserved.

    Schema: {"entries": [{"url": str, "page": str?, "ts": RFC3339 str?}]}.
    Raises SchemaError naming the offending path.
    """
    if not isinstance(doc, dict):
        raise SchemaError("<root>", "expected a JSON object")
    if "entries" not in doc:
        raise SchemaError("entries", "missing required field")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise SchemaError("entries", "expected an array")

    urls: list[str] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"entries[{i}]", "expected an object")
        url = entry.get("url")
        if not isinstance(url, str) or not url:
            raise SchemaError(f"entries[{i}].url")
        page = entry.get("page")
        if page is not None and not isinstance(page, str):
            raise SchemaError(f"entries[{i}].page")
        ts = entry.get("ts")
        if ts is not None:
            if not isinstance(ts, str):
                raise SchemaError(f"entries[{i}].ts")
            if not _is_date_time(ts):
                raise SchemaError(f"entries[{i}].ts", "not an RFC3339 timestamp")
        urls.append(url)
    return urls


def _is_date_time(text: str) -> bool:
    """True when the text is an RFC 3339 date-time (section 5.6), each field
    in its range: a day that its month has (February 29 in leap years only),
    hour 00-23, minute 00-59, second 00-60 (60: a leap second), and an offset
    within -23:59 to +23:59."""
    match = _DATE_TIME_RE.fullmatch(text)
    if match is None:
        return False
    year, month, day, hour, minute, second, off_hour, off_minute = (
        int(group or 0) for group in match.groups())
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return (1 <= month <= 12 and 1 <= day <= _MONTH_DAYS[month - 1] + (month == 2 and leap)
            and hour <= 23 and minute <= 59 and second <= 60
            and off_hour <= 23 and off_minute <= 59)


def dedupe(hosts: Iterable[str], corpus: Corpus | None = None) -> Corpus:
    """Fold raw hosts into ``corpus`` (a new one when None) and return it.

    Each distinct raw host is normalized once: its domain joins the corpus
    in first-seen order, or each of its URLs counts as a reject by reason
    (an IP literal or an invalid host).
    """
    corpus = Corpus() if corpus is None else corpus
    domains, outcomes, rejects = corpus.domains, corpus.outcomes, corpus.rejects
    # hosts repeat across a crawl's URLs far more often than not
    for host in hosts:
        if host in outcomes:
            reason = outcomes[host]
        else:
            try:
                domains[normalize_hostname(host)] = None
                reason = None
            except IpLiteralError:
                reason = "ip-literal"
            except InvalidHostError:
                reason = "invalid-host"
            outcomes[host] = reason
        if reason is not None:
            rejects[reason] += 1
    return corpus


class PublicSuffixList:
    """Minimal public-suffix matcher over a user-supplied snapshot file.

    Supports normal, wildcard (``*.ck``) and exception (``!www.ck``) rules.
    The snapshot is versioned out-of-band, like the ad lists, so campaigns
    stay reproducible.
    """

    def __init__(self, rules: dict[tuple[str, ...], bool]):
        # value True marks an exception rule
        self._rules = rules

    @classmethod
    def from_text(cls, text: str) -> "PublicSuffixList":
        rules: dict[tuple[str, ...], bool] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            line = line.split()[0]
            exception = line.startswith("!")
            if exception:
                line = line[1:]
            labels = tuple(
                lbl if lbl == "*" else _normalize_label(lbl, line)
                for lbl in line.lower().rstrip(".").split(".")
                if lbl
            )
            if labels:
                rules[labels] = exception
        return cls(rules)

    def registrable(self, domain: str) -> str:
        """Collapse a normalized domain to its registrable form (suffix + 1)."""
        labels = domain.split(".")
        suffix_len = 1  # implicit default rule "*"
        for k in range(1, len(labels) + 1):
            tail = tuple(labels[-k:])
            wildcard = ("*",) + tail[1:] if k > 1 else None
            for candidate in (tail, wildcard):
                if candidate is None or candidate not in self._rules:
                    continue
                if self._rules[candidate]:
                    # exception rule prevails: the suffix is one label shorter,
                    # so the matched tail itself is the registrable domain
                    return ".".join(labels[-k:])
                suffix_len = max(suffix_len, k)
        if len(labels) <= suffix_len:
            return domain
        return ".".join(labels[-(suffix_len + 1):])
