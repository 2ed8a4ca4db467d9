"""Parse advertising filter lists and compile them into a domain matcher.

Three list shapes are understood: hosts files ("0.0.0.0 ads.example.com"),
plain domain-per-line lists, and Adblock-style domain anchors
("||ads.example.com^").  Hosts and plain entries match one exact domain;
anchor entries cover subdomains too.  Anything else (cosmetic selectors,
path rules, rule options) is out of scope and reported as a reject rather
than silently skipped.

A list is parsed in one loop over its lines.  An inline comment starts at
the first token that begins with "#", whatever whitespace precedes it, and
each distinct address token of a hosts list is parsed once.  The matcher is
a dict from pattern to entry: a lookup tries the name, then each parent
suffix, longest first, among the entries that cover subdomains.
"""

import hashlib
import re
from typing import NamedTuple

from .ingest import _CANONICAL_RE, InvalidHostError, IpLiteralError, normalize_hostname
from .ingest import is_ip_literal as _is_ip

AUTO = "auto"
HOSTS = "hosts"
PLAIN = "plain"
ADBLOCK = "adblock"

STRICT = "strict"  # honor each entry's own subdomain flag
ALWAYS = "always"  # treat every entry as covering subdomains

_INLINE_COMMENT = re.compile(r"\s#")


class FilterEntry(NamedTuple):
    pattern: str
    match_subdomains: bool
    source_list: str
    line_no: int


class RuleReject(NamedTuple):
    line_no: int
    text: str
    reason: str


class ListParseResult(NamedTuple):
    entries: tuple[FilterEntry, ...]
    rejects: tuple[RuleReject, ...]
    source_list: str
    digest: str  # sha256 of the raw list text


def _normalize_pattern(raw: str) -> tuple[str | None, str | None]:
    """Returns (pattern, reject_reason); exactly one is set."""
    if _CANONICAL_RE.fullmatch(raw):
        return raw, None
    if "/" in raw:
        return None, "path-rule"
    try:
        return normalize_hostname(raw), None
    except (IpLiteralError, InvalidHostError):
        return None, "invalid-domain"


def parse_list(
    text: str,
    format_hint: str = AUTO,
    source_list: str = "<inline>",
) -> ListParseResult:
    """Total parser: every non-blank line becomes entries or one reject."""
    if format_hint not in (AUTO, HOSTS, PLAIN, ADBLOCK):
        raise ValueError(f"unknown format hint {format_hint!r}")
    hosts_ok = format_hint in (AUTO, HOSTS)
    # records are built with tuple.__new__, which skips the Python-level
    # NamedTuple constructor
    new, canonical = tuple.__new__, _CANONICAL_RE.fullmatch
    is_ip: dict[str, bool] = {}  # a hosts list repeats one address on every line
    entries: list[FilterEntry] = []
    rejects: list[RuleReject] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if "#" in line:
            if "##" in line or "#@#" in line or "#?#" in line:
                rejects.append(new(RuleReject, (line_no, line, "cosmetic-rule")))
                continue
            if line[0] == "#" or line[0] == "!":
                rejects.append(new(RuleReject, (line_no, line, "comment")))
                continue
            cut = _INLINE_COMMENT.search(line)
            if cut:
                line = line[:cut.start()].rstrip()
        elif line[0] == "!":
            rejects.append(new(RuleReject, (line_no, line, "comment")))
            continue

        tokens = line.split()
        first = tokens[0]
        if hosts_ok and (":" in first or "0" <= first[-1] <= "9"):
            address = is_ip.get(first)
            if address is None:
                address = is_ip[first] = _is_ip(first)
        else:
            address = False
        subdomains = False
        if address:
            raws = tokens[1:]
            if not raws:
                rejects.append(new(RuleReject, (line_no, line, "missing-hostname")))
                continue
        elif format_hint == HOSTS:
            rejects.append(new(RuleReject, (line_no, line, "not-hosts-syntax")))
            continue
        elif format_hint == ADBLOCK or format_hint == AUTO and line.startswith(("|", "@@")):
            body = line[2:-1] if line[-1] == "^" else line[2:]
            if not line.startswith("||") or "^" in body or "$" in body or "*" in body:
                rejects.append(new(RuleReject, (line_no, line, "unsupported-rule")))
                continue
            raws, subdomains = (body,), True
        elif len(tokens) != 1:
            rejects.append(new(RuleReject, (line_no, line, "not-a-domain")))
            continue
        elif first.startswith("*."):
            raws, subdomains = (first[2:],), True
        else:
            raws = tokens

        before = len(entries)
        for pattern in raws:
            if not canonical(pattern):
                pattern, reason = _normalize_pattern(pattern)
                if pattern is None:
                    continue
            entries.append(new(FilterEntry, (pattern, subdomains, source_list, line_no)))
        if len(entries) == before:
            # a hosts line whose every name fails is rejected for its last one
            rejects.append(new(RuleReject, (line_no, line, reason)))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ListParseResult(tuple(entries), tuple(rejects), source_list, digest)


def parse_list_file(path: str, format_hint: str = AUTO) -> ListParseResult:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            # one read of the whole file: exc.start is its offset in the file
            raise ValueError(f"filter list {path} is not UTF-8: "
                             f"invalid byte at offset {exc.start}") from None
    return parse_list(text, format_hint, source_list=path)


class AdMatcher:
    """A dict from pattern to entry, looked up by the name and then by each
    parent suffix, longest first, so the deepest covering entry wins.  A
    parent covers the name when it matches subdomains or the mode is ALWAYS.

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
            prior = merged.setdefault(entry.pattern, entry)
            if prior is not entry:
                merged[entry.pattern] = FilterEntry(
                    entry.pattern,
                    prior.match_subdomains or entry.match_subdomains,
                    *min(prior[2:], entry[2:]),  # (source_list, line_no)
                )
        self.entry_count = len(merged)
        self._entries = merged
        # the entries a parent suffix may match
        self._parents = merged if subdomain_matching == ALWAYS else {
            pattern: entry for pattern, entry in merged.items() if entry.match_subdomains}

    def match(self, domain: str) -> FilterEntry | None:
        """Deepest entry covering the domain, or None."""
        name = domain.lower().rstrip(".")
        entry = self._entries.get(name)
        while entry is None and "." in name:
            name = name.partition(".")[2]
            entry = self._parents.get(name)
        return entry

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
