"""Turn pre-captured request logs into a deduplicated domain corpus.

Input is either a newline-delimited URL list or a JSON capture document
(see ``parse_capture`` for the schema).  Hostnames are normalized to
lowercase ASCII (punycode for IDN labels), ports and trailing dots are
stripped, and IP-literal hosts are excluded with a counted reject reason.
"""

import ipaddress
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable
from urllib.parse import urlsplit

import idna

MAX_LABEL_LEN = 63
MAX_NAME_LEN = 253

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


@dataclass(frozen=True)
class RequestRecord:
    """One observed HTTP(S) request."""

    url: str
    source_page: str | None = None
    observed_at: datetime | None = None
    # raw host, "" if none; set when parse_url_list split the URL, else None
    host: str | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LineReject:
    line_no: int
    line: str
    reason: str


@dataclass(frozen=True)
class DomainReject:
    value: str
    reason: str


@dataclass
class CorpusResult:
    """Ordered unique domains plus the rejects that did not make it in."""

    domains: list[str] = field(default_factory=list)
    rejects: list[DomainReject] = field(default_factory=list)


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


def extract_domain(url: str) -> str:
    """Extract and normalize the hostname of an absolute http(s) URL."""
    host = _url_host(url)
    if not host:
        raise InvalidHostError(f"not an absolute http(s) URL with a host: {url!r}")
    return normalize_hostname(host)


def _url_host(url: str) -> str | None:
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


def parse_url_list(text: str) -> tuple[list[RequestRecord], list[LineReject]]:
    """Parse a newline-delimited URL list; '#' lines are comments.

    Total function: malformed lines land in the rejects list, never raise.
    Each URL is split once, most by one regex match rather than urlsplit;
    its raw host rides on the record for dedupe.
    """
    records: list[RequestRecord] = []
    rejects: list[LineReject] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        host = _url_host(line)
        if host is None:
            rejects.append(LineReject(line_no, line, "not-absolute-http-url"))
        else:
            records.append(RequestRecord(url=line, host=host))
    return records, rejects


def _parse_rfc3339(value: str) -> datetime:
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def parse_capture(doc) -> list[RequestRecord]:
    """Parse a JSON capture document into request records, order preserved.

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

    records: list[RequestRecord] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"entries[{i}]", "expected an object")
        url = entry.get("url")
        if not isinstance(url, str) or not url:
            raise SchemaError(f"entries[{i}].url")
        page = entry.get("page")
        if page is not None and not isinstance(page, str):
            raise SchemaError(f"entries[{i}].page")
        observed_at = None
        ts = entry.get("ts")
        if ts is not None:
            if not isinstance(ts, str):
                raise SchemaError(f"entries[{i}].ts")
            try:
                observed_at = _parse_rfc3339(ts)
            except ValueError:
                raise SchemaError(f"entries[{i}].ts", "not an RFC3339 timestamp") from None
        records.append(RequestRecord(url=url, source_page=page, observed_at=observed_at))
    return records


def dedupe(
    records: Iterable[RequestRecord],
    psl: "PublicSuffixList | None" = None,
) -> CorpusResult:
    """Deduplicate records into an ordered set of normalized domains.

    First-seen order is preserved.  IP-literal and invalid hosts are counted
    in rejects.  When ``psl`` is given, domains are first collapsed to their
    registrable form (off by default; FQDNs are the unit otherwise).
    """
    result = CorpusResult()
    domains: dict[str, None] = {}  # insertion-ordered set
    # raw host -> (domain, None) or (None, reject reason); hosts repeat across
    # a crawl's URLs far more often than not
    outcomes: dict[str, tuple[str | None, str | None]] = {}
    for record in records:
        host = record.host
        if host is None:
            host = _url_host(record.url) or ""
        outcome = outcomes.get(host)
        if outcome is None:
            try:
                domain = normalize_hostname(host)
            except IpLiteralError:
                outcome = (None, "ip-literal")
            except InvalidHostError:
                outcome = (None, "invalid-host")
            else:
                outcome = (psl.registrable(domain) if psl is not None else domain, None)
            outcomes[host] = outcome
        domain, reason = outcome
        if reason is not None:
            result.rejects.append(DomainReject(record.url, reason))
        else:
            domains[domain] = None
    result.domains = list(domains)
    return result


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
    def from_file(cls, path) -> "PublicSuffixList":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

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
