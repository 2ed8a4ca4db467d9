"""Parse advertising filter lists and compile them into a domain matcher.

Three list shapes are understood: hosts files ("0.0.0.0 ads.example.com"),
plain domain-per-line lists, and Adblock-style domain anchors
("||ads.example.com^").  Hosts and plain entries match one exact domain;
anchor entries cover subdomains too.  Anything else (cosmetic selectors,
path rules, rule options) is out of scope and reported as a reject rather
than silently skipped.
"""

import hashlib
from dataclasses import dataclass

from .ingest import InvalidHostError, IpLiteralError, is_canonical, normalize_hostname
from .ingest import is_ip_literal as _is_ip

AUTO = "auto"
HOSTS = "hosts"
PLAIN = "plain"
ADBLOCK = "adblock"

STRICT = "strict"  # honor each entry's own subdomain flag
ALWAYS = "always"  # treat every entry as covering subdomains


@dataclass(frozen=True)
class FilterEntry:
    pattern: str
    match_subdomains: bool
    source_list: str
    line_no: int


@dataclass(frozen=True)
class RuleReject:
    line_no: int
    text: str
    reason: str


@dataclass(frozen=True)
class ListParseResult:
    entries: tuple[FilterEntry, ...]
    rejects: tuple[RuleReject, ...]
    source_list: str
    digest: str  # sha256 of the raw list text


def _normalize_pattern(raw: str) -> tuple[str | None, str | None]:
    """Returns (pattern, reject_reason); exactly one is set."""
    if is_canonical(raw):
        return raw, None
    if "/" in raw:
        return None, "path-rule"
    try:
        return normalize_hostname(raw), None
    except (IpLiteralError, InvalidHostError):
        return None, "invalid-domain"


def _parse_hosts_line(tokens: list[str], line: str, line_no: int, source: str):
    """A hosts line, split into tokens, whose first token is an address."""
    if len(tokens) == 1:
        return None, RuleReject(line_no, line, "missing-hostname")
    entries, reject = [], None
    for token in tokens[1:]:
        pattern, reason = _normalize_pattern(token)
        if pattern is None:
            reject = RuleReject(line_no, line, reason)
            continue
        entries.append(FilterEntry(pattern, False, source, line_no))
    if not entries and reject:
        return None, reject
    return entries, None


def _parse_adblock_line(line: str, line_no: int, source: str):
    if not line.startswith("||"):
        return None, RuleReject(line_no, line, "unsupported-rule")
    body = line[2:]
    if body.endswith("^"):
        body = body[:-1]
    if "^" in body or "$" in body or "*" in body:
        return None, RuleReject(line_no, line, "unsupported-rule")
    pattern, reason = _normalize_pattern(body)
    if pattern is None:
        return None, RuleReject(line_no, line, reason)
    return [FilterEntry(pattern, True, source, line_no)], None


def _parse_plain_line(line: str, line_no: int, source: str):
    if len(line.split()) != 1:
        return None, RuleReject(line_no, line, "not-a-domain")
    subdomains = False
    raw = line
    if raw.startswith("*."):
        subdomains = True
        raw = raw[2:]
    pattern, reason = _normalize_pattern(raw)
    if pattern is None:
        return None, RuleReject(line_no, line, reason)
    return [FilterEntry(pattern, subdomains, source, line_no)], None


def _classify_comment(line: str) -> str | None:
    if "##" in line or "#@#" in line or "#?#" in line:
        return "cosmetic-rule"
    if line.startswith("!") or line.startswith("#"):
        return "comment"
    return None


def parse_list(
    text: str,
    format_hint: str = AUTO,
    source_list: str = "<inline>",
) -> ListParseResult:
    """Total parser: every non-blank line becomes entries or one reject."""
    if format_hint not in (AUTO, HOSTS, PLAIN, ADBLOCK):
        raise ValueError(f"unknown format hint {format_hint!r}")
    entries: list[FilterEntry] = []
    rejects: list[RuleReject] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        comment_reason = _classify_comment(line)
        if comment_reason:
            rejects.append(RuleReject(line_no, line, comment_reason))
            continue
        # inline trailing comments are common in hosts lists
        line = line.split("#", 1)[0].strip() if " #" in line else line

        tokens = line.split()
        if format_hint in (AUTO, HOSTS) and tokens and _is_ip(tokens[0]):
            parsed, reject = _parse_hosts_line(tokens, line, line_no, source_list)
        elif format_hint == HOSTS:
            parsed, reject = None, RuleReject(line_no, line, "not-hosts-syntax")
        elif format_hint == ADBLOCK or format_hint == AUTO and line.startswith(("||", "|", "@@")):
            parsed, reject = _parse_adblock_line(line, line_no, source_list)
        else:
            parsed, reject = _parse_plain_line(line, line_no, source_list)

        if parsed:
            entries.extend(parsed)
        if reject:
            rejects.append(reject)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ListParseResult(tuple(entries), tuple(rejects), source_list, digest)


def parse_list_file(path: str, format_hint: str = AUTO) -> ListParseResult:
    with open(path, encoding="utf-8") as fh:
        return parse_list(fh.read(), format_hint, source_list=path)


class AdMatcher:
    """Reversed-label trie over filter entries.

    Duplicate patterns are merged with their subdomain flags OR-combined
    and the smallest (source, line) kept, so lookups never depend on the
    order lists were loaded in.
    """

    def __init__(
        self,
        entries,
        *,
        subdomain_matching: str = STRICT,
        source_digests: dict | None = None,
    ):
        if subdomain_matching not in (STRICT, ALWAYS):
            raise ValueError(f"unknown subdomain_matching {subdomain_matching!r}")
        self.subdomain_matching = subdomain_matching
        self.source_digests = dict(source_digests or {})
        merged: dict[str, FilterEntry] = {}
        for entry in entries:
            prior = merged.get(entry.pattern)
            if prior is None:
                merged[entry.pattern] = entry
            else:
                source, line_no = min(
                    (prior.source_list, prior.line_no),
                    (entry.source_list, entry.line_no),
                )
                merged[entry.pattern] = FilterEntry(
                    pattern=entry.pattern,
                    match_subdomains=prior.match_subdomains or entry.match_subdomains,
                    source_list=source,
                    line_no=line_no,
                )
        self.entry_count = len(merged)
        self._root: dict = {}
        for entry in merged.values():
            node = self._root
            for label in reversed(entry.pattern.split(".")):
                node = node.setdefault(label, {})
            node[None] = entry

    def match(self, domain: str) -> FilterEntry | None:
        """Deepest entry covering the domain, or None."""
        labels = domain.lower().rstrip(".").split(".")
        node = self._root
        best: FilterEntry | None = None
        for depth, label in enumerate(reversed(labels), start=1):
            node = node.get(label)
            if node is None:
                break
            entry = node.get(None)
            if entry is not None:
                covers_subdomains = (
                    entry.match_subdomains or self.subdomain_matching == ALWAYS
                )
                if depth == len(labels) or covers_subdomains:
                    best = entry
        return best

    def is_ad(self, domain: str) -> bool:
        return self.match(domain) is not None


def load_lists(
    paths,
    format_hint: str = AUTO,
    *,
    subdomain_matching: str = STRICT,
) -> tuple[AdMatcher, list[RuleReject]]:
    """Parse several list files into one matcher plus the combined rejects."""
    entries: list[FilterEntry] = []
    rejects: list[RuleReject] = []
    digests: dict[str, str] = {}
    for path in paths:
        result = parse_list_file(path, format_hint)
        entries.extend(result.entries)
        rejects.extend(result.rejects)
        digests[result.source_list] = result.digest
    matcher = AdMatcher(
        entries, subdomain_matching=subdomain_matching, source_digests=digests
    )
    return matcher, rejects
