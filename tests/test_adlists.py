import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admal.adlists import (
    ADBLOCK,
    ALWAYS,
    AUTO,
    HOSTS,
    PLAIN,
    STRICT,
    AdMatcher,
    FilterEntry,
    _normalize_pattern,
    load_lists,
    parse_list,
    parse_list_file,
)
from admal.ingest import IngestError, normalize_hostname


def entry(pattern, subdomains=False, source="list", line_no=1):
    return FilterEntry(pattern, subdomains, source, line_no)


list_name = st.lists(st.sampled_from(("ads", "x", "track", "bücher", "a..b", "Web", "1")),
                     min_size=1, max_size=3).map(".".join)
list_line = st.one_of(
    # hosts lines: one address repeated, and first tokens that only look numeric
    st.tuples(st.sampled_from(("0.0.0.0", "0.0.0.0", "127.0.0.1", "::1", "10.0.0", "v2")),
              st.lists(list_name, max_size=3)).map(lambda t: " ".join((t[0], *t[1]))),
    list_name.map("||{}^".format),
    list_name.map("||{}^$third-party".format),
    list_name.map("@@||{}^".format),
    list_name,
    list_name.map("*.{}".format),
    st.sampled_from(("! note", "# header", "##.banner", "ads.example##.ad", "", "   ", "|x/y")),
).flatmap(lambda line: st.sampled_from(
    (line, line + " # leak.example", line + "\t# leak.example", line + "\t#leak")))


class TestParseList:
    def test_hosts_line(self):
        result = parse_list("0.0.0.0 ads.tracker.net", HOSTS)
        assert [(e.pattern, e.match_subdomains) for e in result.entries] == [
            ("ads.tracker.net", False)
        ]
        assert result.rejects == ()

    def test_adblock_anchor(self):
        result = parse_list("||doubleclick.net^", ADBLOCK)
        assert [(e.pattern, e.match_subdomains) for e in result.entries] == [
            ("doubleclick.net", True)
        ]

    def test_comments_are_rejects(self):
        result = parse_list("! comment\n##.banner")
        assert result.entries == ()
        assert [(r.line_no, r.reason) for r in result.rejects] == [
            (1, "comment"),
            (2, "cosmetic-rule"),
        ]

    def test_hash_comment(self):
        result = parse_list("# header\n0.0.0.0 ads.example.com", HOSTS)
        assert len(result.entries) == 1
        assert result.rejects[0].reason == "comment"

    def test_inline_comment_stripped(self):
        for text in ("0.0.0.0 ads.example.com # known tracker",
                     "0.0.0.0 ads.example.com\t# tracker"):
            result = parse_list(text, HOSTS)
            assert [e.pattern for e in result.entries] == ["ads.example.com"], text
            assert result.rejects == ()

    def test_hosts_multiple_hostnames(self):
        result = parse_list("127.0.0.1 a.example b.example", HOSTS)
        assert [e.pattern for e in result.entries] == ["a.example", "b.example"]

    def test_hosts_ip_only(self):
        result = parse_list("0.0.0.0", HOSTS)
        assert result.rejects[0].reason == "missing-hostname"

    def test_hosts_hint_without_ip(self):
        result = parse_list("ads.example.com", HOSTS)
        assert result.rejects[0].reason == "not-hosts-syntax"

    def test_plain_wildcard_prefix(self):
        result = parse_list("*.tracking.example", PLAIN)
        assert result.entries[0] == entry("tracking.example", True, "<inline>", 1)

    def test_plain_multiple_tokens(self):
        result = parse_list("ads example", PLAIN)
        assert result.rejects[0].reason == "not-a-domain"

    def test_adblock_exception_rule(self):
        result = parse_list("@@||allowed.example^", ADBLOCK)
        assert result.rejects[0].reason == "unsupported-rule"

    def test_adblock_option_suffix(self):
        result = parse_list("||ads.example^$third-party", ADBLOCK)
        assert result.rejects[0].reason == "unsupported-rule"

    def test_path_rule(self):
        result = parse_list("||ads.example/banner^", ADBLOCK)
        assert result.rejects[0].reason == "path-rule"

    def test_invalid_domain(self):
        result = parse_list("0.0.0.0 a..b", HOSTS)
        assert result.rejects[0].reason == "invalid-domain"

    def test_auto_dispatch_per_line(self):
        text = "\n".join([
            "0.0.0.0 hosts.example",
            "||anchor.example^",
            "plain.example",
            "! note",
        ])
        result = parse_list(text, AUTO)
        assert [(e.pattern, e.match_subdomains) for e in result.entries] == [
            ("hosts.example", False),
            ("anchor.example", True),
            ("plain.example", False),
        ]
        assert len(result.rejects) == 1

    def test_line_numbers_survive_blanks(self):
        result = parse_list("\n\nads.example\n\n! x\n", PLAIN)
        assert result.entries[0].line_no == 3
        assert result.rejects[0].line_no == 5

    def test_unicode_pattern_punycoded(self):
        result = parse_list("bücher.example", PLAIN)
        assert result.entries[0].pattern == "xn--bcher-kva.example"

    def test_digest_is_sha256_of_text(self):
        text = "0.0.0.0 ads.example.com\n"
        result = parse_list(text, HOSTS)
        assert result.digest == hashlib.sha256(text.encode()).hexdigest()
        assert parse_list(text, HOSTS).digest == result.digest
        assert parse_list(text + "x.example\n").digest != result.digest

    def test_unknown_hint_rejected(self):
        with pytest.raises(ValueError):
            parse_list("x", "csv")

    @given(st.text("aZ09.-_/:\u00e9 ", max_size=12))
    @settings(max_examples=500)
    def test_canonical_skip_matches_normalizer(self, raw):
        try:
            expected = (None, "path-rule") if "/" in raw else (normalize_hostname(raw), None)
        except IngestError:
            expected = (None, "invalid-domain")
        assert _normalize_pattern(raw) == expected

    @given(st.lists(list_line, max_size=25), st.sampled_from((AUTO, HOSTS, PLAIN, ADBLOCK)))
    @settings(max_examples=300)
    def test_every_line_lands_once(self, lines, hint):
        result = parse_list("\n".join(lines), hint)
        entry_lines = {e.line_no for e in result.entries}
        reject_lines = [r.line_no for r in result.rejects]
        non_blank = {n for n, line in enumerate(lines, 1) if line.strip()}
        assert entry_lines | set(reject_lines) == non_blank
        assert not entry_lines & set(reject_lines)
        assert len(reject_lines) == len(set(reject_lines))
        assert not any("leak" in e.pattern for e in result.entries)
        # the address memo carries nothing from one line to the next
        for n in non_blank:
            alone = parse_list(lines[n - 1], hint)
            assert [(e.pattern, e.match_subdomains) for e in alone.entries] == [
                (e.pattern, e.match_subdomains) for e in result.entries if e.line_no == n]
            assert [(r.text, r.reason) for r in alone.rejects] == [
                (r.text, r.reason) for r in result.rejects if r.line_no == n]

    def test_total_over_garbage(self):
        # every non-blank line lands in entries or rejects, never vanishes
        text = "|||\n0.0.0.0\nads.example\n$$$ ???\n"
        result = parse_list(text)
        assert len(result.entries) + len(result.rejects) == 4


class TestMatcher:
    def test_empty_matches_nothing(self):
        matcher = AdMatcher([])
        assert matcher.match("ads.example.com") is None
        assert not matcher.is_ad("ads.example.com")

    def test_exact_entry_strict(self):
        matcher = AdMatcher([entry("ads.tracker.net")])
        assert matcher.is_ad("ads.tracker.net")
        assert not matcher.is_ad("sub.ads.tracker.net")
        assert not matcher.is_ad("tracker.net")

    def test_subdomain_entry(self):
        matcher = AdMatcher([entry("doubleclick.net", subdomains=True)])
        assert matcher.is_ad("doubleclick.net")
        assert matcher.is_ad("sub.doubleclick.net")
        assert matcher.is_ad("a.b.doubleclick.net")
        assert not matcher.is_ad("notdoubleclick.net")

    def test_label_alignment(self):
        # suffix match is per label, not per character
        matcher = AdMatcher([entry("ads.example.com", subdomains=True)])
        assert not matcher.is_ad("notads.example.com")
        assert matcher.is_ad("x.ads.example.com")

    def test_always_mode_overrides_flags(self):
        matcher = AdMatcher([entry("ads.tracker.net")], subdomain_matching=ALWAYS)
        assert matcher.is_ad("sub.ads.tracker.net")

    def test_deepest_entry_wins(self):
        shallow = entry("example.com", subdomains=True, line_no=1)
        deep = entry("ads.example.com", subdomains=True, line_no=2)
        matcher = AdMatcher([shallow, deep])
        assert matcher.match("x.ads.example.com") == deep
        assert matcher.match("www.example.com") == shallow

    def test_duplicates_merge_or_flags(self):
        a = entry("a.com", False, "list1", 9)
        b = entry("a.com", True, "list2", 4)
        matcher = AdMatcher([a, b])
        assert matcher.entry_count == 1
        merged = matcher.match("sub.a.com")
        assert merged.match_subdomains is True
        assert (merged.source_list, merged.line_no) == ("list1", 9)

    def test_merge_keeps_smallest_provenance(self):
        a = entry("a.com", True, "zlist", 1)
        b = entry("a.com", False, "alist", 50)
        merged = AdMatcher([a, b]).match("a.com")
        assert (merged.source_list, merged.line_no) == ("alist", 50)

    def test_case_and_trailing_dot(self):
        matcher = AdMatcher([entry("ads.tracker.net")])
        assert matcher.is_ad("ADS.Tracker.NET")
        assert matcher.is_ad("ads.tracker.net.")

    def test_distinct_pattern_count_at_scale(self):
        rng = random.Random(7)
        patterns = [f"p{rng.randrange(6000)}.example" for _ in range(10_000)]
        entries = [entry(p, rng.random() < 0.5, f"l{i%3}", i) for i, p in enumerate(patterns)]
        matcher = AdMatcher(entries)
        assert matcher.entry_count == len(set(patterns))
        for p in set(patterns):
            assert matcher.is_ad(p)

    def test_insertion_order_irrelevant(self):
        rng = random.Random(3)
        entries = [
            entry(f"e{i % 40}.t{i % 7}.example", i % 2 == 0, f"s{i % 5}", i)
            for i in range(200)
        ]
        shuffled = entries[:]
        rng.shuffle(shuffled)
        m1, m2 = AdMatcher(entries), AdMatcher(shuffled)
        queries = [f"q.e{i}.t{i % 7}.example" for i in range(50)]
        queries += [f"e{i}.t{i % 7}.example" for i in range(50)]
        for q in queries:
            assert m1.match(q) == m2.match(q)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            AdMatcher([], subdomain_matching="sometimes")


LABELS = ("ads", "www", "x", "track", "net", "com", "example")
label = st.sampled_from(LABELS)
name = st.lists(label, min_size=1, max_size=4).map(".".join)
# lookups fold case and drop a trailing dot; deeper than any pattern
query = st.tuples(
    st.lists(st.tuples(label, st.booleans()).map(lambda t: t[0].upper() if t[1] else t[0]),
             min_size=1, max_size=6).map(".".join),
    st.sampled_from(("", ".")),
).map("".join)


def reference_match(entries, domain, mode):
    """Brute-force matcher: merge duplicates, scan every entry."""
    merged = {}
    for e in entries:
        prior = merged.get(e.pattern)
        if prior is None:
            merged[e.pattern] = e
        else:
            src, line = min((prior.source_list, prior.line_no),
                            (e.source_list, e.line_no))
            merged[e.pattern] = FilterEntry(
                e.pattern, prior.match_subdomains or e.match_subdomains, src, line)
    labels = domain.lower().rstrip(".").split(".")
    best = None
    for e in merged.values():
        plabels = e.pattern.split(".")
        if len(plabels) > len(labels) or labels[-len(plabels):] != plabels:
            continue
        covers = e.match_subdomains or mode == ALWAYS
        if len(plabels) == len(labels) or covers:
            if best is None or len(plabels) > len(best.pattern.split(".")):
                best = e
    return best


class TestMatcherEquivalence:
    @given(
        st.lists(st.tuples(name, st.booleans(), st.sampled_from("ab"),
                           st.integers(1, 9)), max_size=12),
        query,
        st.sampled_from((STRICT, ALWAYS)),
        st.data(),
    )
    @settings(max_examples=400)
    def test_matches_brute_force(self, raw, domain, mode, data):
        entries = [FilterEntry(p, flag, src, ln) for p, flag, src, ln in raw]
        if entries and data.draw(st.booleans()):
            # a query at or below a listed pattern, so the walk has deep hits to find
            head, dot = domain.rstrip("."), "." * domain.endswith(".")
            pattern = data.draw(st.sampled_from(entries)).pattern
            domain = data.draw(st.sampled_from((pattern, f"{head}.{pattern}"))) + dot
        matcher = AdMatcher(entries, subdomain_matching=mode)
        assert matcher.match(domain) == reference_match(entries, domain, mode)


class TestLoadLists:
    def test_combined_matcher_and_digests(self, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("0.0.0.0 ads.tracker.net\n! note\n")
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("||doubleclick.net^\n")
        matcher, rejects = load_lists([str(hosts), str(anchors)])
        assert matcher.is_ad("ads.tracker.net")
        assert matcher.is_ad("sub.doubleclick.net")
        assert [r.reason for r in rejects] == ["comment"]
        assert set(matcher.source_digests) == {str(hosts), str(anchors)}
        assert matcher.source_digests[str(hosts)] == hashlib.sha256(
            hosts.read_bytes()).hexdigest()

    def test_file_parse_records_source(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("ads.example\n")
        result = parse_list_file(str(path))
        assert result.source_list == str(path)
        assert result.entries[0].source_list == str(path)
