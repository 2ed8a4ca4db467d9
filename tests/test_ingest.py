import io
import ipaddress
import json
import tracemalloc
from collections import Counter
from unittest import mock
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admal import ingest
from admal.adlists import _is_ip
from admal.cli import main
from admal.ingest import (
    InvalidHostError,
    IpLiteralError,
    PublicSuffixList,
    IngestError,
    SchemaError,
    _PLAIN_URL_RE,
    dedupe,
    is_canonical,
    is_ip_literal,
    line_blocks,
    normalize_hostname,
    parse_capture,
    parse_url_list,
    url_host,
)


def _ingested(url):
    """What ingest makes of one URL line: its domain, or why it was rejected."""
    hosts, rejected = parse_url_list(url)
    if rejected:
        return "not-absolute-http-url"
    corpus = dedupe(hosts)
    return next(iter(corpus.domains), None) or next(iter(corpus.rejects))


class TestParseUrlList:
    def test_comment_skipped(self):
        assert parse_url_list("https://ads.example.com/x\n# c\n") == (["ads.example.com"], 0)

    def test_malformed_line_rejected(self):
        assert parse_url_list("not a url\n") == ([], 1)

    def test_blank_lines_skipped(self):
        assert parse_url_list("\n\n  \n") == ([], 0)

    def test_non_http_scheme_rejected(self):
        assert parse_url_list("ftp://example.com/a\n") == ([], 1)

    def test_million_scale_line_count(self):
        # published corpus cardinality: 1,206,803 domains
        n = 1_206_803
        text = "\n".join(f"https://d{i}.example/x" for i in range(n))
        hosts, rejected = parse_url_list(text)
        assert len(hosts) == n
        assert rejected == 0

    def test_round_trip_count(self):
        lines = [f"https://H{i}.example/p" for i in range(50)]
        hosts, _ = parse_url_list("\n".join(lines))
        again, _ = parse_url_list("\n".join(f"http://{host}:80/" for host in hosts))
        assert again == hosts == [f"h{i}.example" for i in range(50)]


class TestParseCapture:
    def test_two_entries(self):
        doc = {"entries": [{"url": "https://a.example/1"},
                           {"url": "https://b.example/2", "page": "https://p.example"}]}
        assert parse_capture(doc) == ["https://a.example/1", "https://b.example/2"]
        with pytest.raises(SchemaError) as err:
            parse_capture({"entries": [{"url": "https://a.example/1", "page": 1}]})
        assert err.value.path == "entries[0].page"

    def test_missing_url_names_path(self):
        with pytest.raises(SchemaError) as err:
            parse_capture({"entries": [{"page": "https://p.example"}]})
        assert err.value.path == "entries[0].url"

    def test_order_preserved_no_early_dedupe(self):
        entries = [{"url": f"https://{'shared' if i % 3 == 0 else f'h{i}'}.example/{i}"}
                   for i in range(10)]
        assert parse_capture({"entries": entries}) == [e["url"] for e in entries]

    def test_bad_timestamp_names_path(self):
        with pytest.raises(SchemaError) as err:
            parse_capture({"entries": [{"url": "https://a.example", "ts": "gibberish"}]})
        assert err.value.path == "entries[0].ts"

    def test_timestamp_at_the_range_edge_is_accepted(self):
        # only checked, never converted, so no UTC shift can overflow it
        doc = {"entries": [{"url": "https://a.example/", "ts": "0001-01-01T00:00:00+01:00"},
                           {"url": "https://b.example/", "ts": "9999-12-31T23:59:59-01:00"}]}
        assert parse_capture(doc) == ["https://a.example/", "https://b.example/"]

    def test_root_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_capture([1, 2])

    @pytest.mark.parametrize("ts, ok", [
        ("2026-01-01T00:00:00Z", True),
        ("2026-01-01t00:00:00z", True),  # RFC 3339 section 5.6 allows lower case
        ("2024-02-29T12:30:45.123456+05:30", True),  # a leap day
        ("2000-02-29T00:00:00Z", True),  # divisible by 400: a leap year
        ("2026-06-30T23:59:60Z", True),  # a leap second
        ("2026-W01-1", False),  # ISO 8601 week date
        ("20260101T000000Z", False),  # ISO 8601 basic format
        ("2026-01-01", False),  # a date, no time
        ("2026-01-01T00:00", False),  # no seconds, no offset
        ("2026-01-01T00:00:00", False),  # no offset
        ("2026-01-01 00:00:00Z", False),
        ("2026-01-01T00:00:00+0100", False),
        ("2026-01-01T00:00:00.Z", False),
        ("2026-01-01T00:00:00Z\n", False),
        ("\uff12\uff10\uff12\uff16-01-01T00:00:00Z", False),  # fullwidth digits
        ("2025-02-29T00:00:00Z", False),
        ("1900-02-29T00:00:00Z", False),  # divisible by 100: no leap year
        ("2026-04-31T00:00:00Z", False),
        ("2026-00-01T00:00:00Z", False),
        ("2026-13-01T00:00:00Z", False),
        ("2026-01-00T00:00:00Z", False),
        ("2026-01-01T24:00:00Z", False),
        ("2026-01-01T00:60:00Z", False),
        ("2026-01-01T00:00:61Z", False),
        ("2026-01-01T00:00:00+24:00", False),
        ("2026-01-01T00:00:00-01:60", False),
    ])
    def test_timestamp_is_an_rfc3339_date_time(self, ts, ok):
        doc = {"entries": [{"url": "https://a.example/", "ts": ts}]}
        if ok:
            assert parse_capture(doc) == ["https://a.example/"]
        else:
            with pytest.raises(SchemaError, match="not an RFC3339 timestamp"):
                parse_capture(doc)


class TestExtractDomain:
    """One URL through parse_url_list and dedupe, as ingest takes it."""

    def test_case_and_port_normalization(self):
        assert _ingested("https://Ads.Example.COM:8443/a?b=c") == "ads.example.com"

    def test_idn_label_punycode(self):
        # oracle: stdlib punycode codec on the non-ASCII label
        expected = "xn--" + "bücher".encode("punycode").decode("ascii") + ".example"
        assert _ingested("https://bücher.example/x") == expected
        assert _ingested("https://bücher.example/x") == "xn--bcher-kva.example"

    def test_ipv4_literal_excluded(self):
        assert _ingested("http://192.0.2.7/ad") == "ip-literal"

    def test_ipv6_literal_excluded(self):
        assert _ingested("http://[2001:db8::1]:8080/ad") == "ip-literal"

    def test_trailing_dot_stripped(self):
        assert _ingested("https://example.com./x") == "example.com"

    def test_non_http_rejected(self):
        assert _ingested("ftp://example.com/x") == "not-absolute-http-url"
        assert _ingested("http://:80/") == "invalid-host"


class TestNormalizeHostname:
    def test_label_too_long(self):
        with pytest.raises(InvalidHostError):
            normalize_hostname("a" * 64 + ".example")

    def test_name_too_long(self):
        name = ".".join(["a" * 60] * 5)
        with pytest.raises(InvalidHostError):
            normalize_hostname(name)

    def test_empty_label(self):
        with pytest.raises(InvalidHostError):
            normalize_hostname("a..b")

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
                    min_size=1, max_size=12),
            min_size=1, max_size=4,
        ).map(".".join)
    )
    @settings(max_examples=200)
    def test_idempotent_where_defined(self, host):
        try:
            once = normalize_hostname(host)
        except (InvalidHostError, IpLiteralError):
            return
        assert normalize_hostname(once) == once

    @pytest.mark.parametrize("host", ["bücher.de", "münchen.example", " För.example"])
    def test_idn_idempotent(self, host):
        once = normalize_hostname(host)
        assert once.isascii()
        assert normalize_hostname(once) == once

    @pytest.mark.parametrize("host", ["127.1", "300.1.1.1", "1.2.3", "0x7f.1", "2130706433",
                                      "example.123", "example.123.", "a.0x", "a.0XFF",
                                      "bücher.１２"])
    def test_numeric_final_label_is_invalid(self, host):
        with pytest.raises(InvalidHostError, match="numeric final label"):
            normalize_hostname(host)
        assert _ingested(f"http://{host}/x") == "invalid-host"

    @pytest.mark.parametrize("host", ["2001.example", "a1.example", "123.example",
                                      "example.0xg", "example.x0", "example.1a"])
    def test_numeric_inner_label_is_valid(self, host):
        assert normalize_hostname(host) == host


_host_texts = st.one_of(
    st.lists(st.text(alphabet="abz019xX-_.\u00fc ", max_size=8), min_size=1, max_size=5)
    .map(".".join),
    # names around the 63-character label and 253-character name limits
    st.lists(st.sampled_from(["a" * 63, "b" * 62, "c" * 61, "d", "0x1f", "12"]),
             min_size=1, max_size=5).map(".".join),
    st.text(max_size=20),
)


class TestCanonicalPreCheck:
    """The pre-check that lets corpus lines skip normalize_hostname accepts
    exactly the names normalize_hostname returns unchanged."""

    @given(_host_texts)
    @settings(max_examples=800)
    def test_agrees_with_normalize_hostname(self, host):
        try:
            unchanged = normalize_hostname(host) == host
        except IngestError:
            unchanged = False
        assert is_canonical(host) is unchanged

    @pytest.mark.parametrize("host", ["a.example", "xn--bcher-kva.example", "_dmarc.a-b.c",
                                      "a.0xg", "2001.example", "a" * 63 + ".b"])
    def test_canonical(self, host):
        assert is_canonical(host)

    @pytest.mark.parametrize("host", ["A.example", "b\u00fccher.example", "a.example.", "a..b",
                                      "127.1", "a.0x7f", "a.0x", "a" * 64 + ".b", "",
                                      ".".join(["a" * 63] * 4) + ".bc", " a.example"])
    def test_not_canonical(self, host):
        assert not is_canonical(host)


class TestDedupe:
    def test_case_insensitive_first_seen(self):
        assert list(dedupe(["a.com", "A.COM", "b.com", "a.com."]).domains) == ["a.com", "b.com"]

    def test_empty(self):
        corpus = dedupe([])
        assert (corpus.domains, corpus.outcomes, corpus.rejects) == ({}, {}, {})

    def test_ip_literals_counted(self):
        corpus = dedupe(["10.0.0.1", "ok.example", "10.0.0.1", "[::1]", "a..b"])
        assert list(corpus.domains) == ["ok.example"]
        assert corpus.rejects == {"ip-literal": 3, "invalid-host": 1}

    def test_matches_hash_set_oracle(self):
        import random

        rng = random.Random(42)
        hosts = [f"host{i}.example" for i in range(1000)]
        urls = [f"https://{rng.choice(hosts)}/p{j}" for j in range(10_000)]
        result = dedupe(parse_url_list("\n".join(urls))[0])
        assert len(result.domains) == len({_reference_domain(url) for url in urls})
        assert set(result.domains) <= set(hosts)

    def test_output_subset_of_input(self):
        result = dedupe(f"h{i % 7}.example" for i in range(30))
        assert len(result.domains) == 7

    @given(st.lists(st.sampled_from(["a.example", "A.example", "b.example", "10.0.0.1",
                                     "a..b", "", "bücher.example", "xn--bcher-kva.example"])),
           st.integers(0, 20))
    def test_running_corpus_equals_one_pass(self, hosts, cut):
        corpus = dedupe(hosts[cut:], dedupe(hosts[:cut]))
        whole = dedupe(hosts)
        assert (list(corpus.domains), corpus.rejects) == (list(whole.domains), whole.rejects)
        assert sum(corpus.rejects.values()) + sum(
            corpus.outcomes[host] is None for host in hosts) == len(hosts)


class TestPublicSuffixList:
    PSL = "com\nck\n*.ck\n!www.ck\nco.uk\n"

    def test_plain_rule(self):
        psl = PublicSuffixList.from_text(self.PSL)
        assert psl.registrable("stats.g.doubleclick.com") == "doubleclick.com"

    def test_wildcard_rule(self):
        psl = PublicSuffixList.from_text(self.PSL)
        assert psl.registrable("a.b.foo.ck") == "b.foo.ck"

    def test_exception_rule(self):
        psl = PublicSuffixList.from_text(self.PSL)
        assert psl.registrable("deep.www.ck") == "www.ck"

    def test_multi_label_suffix(self):
        psl = PublicSuffixList.from_text(self.PSL)
        assert psl.registrable("shop.brand.co.uk") == "brand.co.uk"

    def test_dedupe_collapse(self):
        # as ingest collapses its corpus: after dedupe, first seen first
        psl = PublicSuffixList.from_text(self.PSL)
        domains = dedupe(["x.site.com", "other.ck", "y.site.com", "www.ck"]).domains
        assert list(dict.fromkeys(map(psl.registrable, domains))) == [
            "site.com", "other.ck", "www.ck"]


def _reference_is_ip(text):
    try:
        ipaddress.ip_address(text)
    except ValueError:
        return False
    return True


_scope_ids = st.text(st.characters(blacklist_characters="%"), min_size=1, max_size=6)
_address_texts = st.one_of(
    st.ip_addresses().map(str),
    st.ip_addresses(v=6).map(lambda a: a.exploded.upper()),
    st.tuples(st.ip_addresses(v=6), _scope_ids).map(lambda t: f"{t[0]}%{t[1]}"),
    st.text(alphabet="0123456789abcdefABCDEF.:[]%١٢٣٤٥٦٧٨٩٠ x", max_size=24),
    st.text(max_size=12),
)


class TestIpPreCheck:
    """The cheap pre-check skips only text that ipaddress would refuse."""

    @given(_address_texts)
    @settings(max_examples=600)
    def test_agrees_with_ipaddress(self, text):
        expected = _reference_is_ip(text)
        assert is_ip_literal(text) is expected
        assert _is_ip(text) is expected

    @given(_address_texts)
    @settings(max_examples=600)
    def test_normalize_rejects_exactly_the_literals(self, text):
        host = text.strip().rstrip(".")
        expected = bool(host) and (
            (host.startswith("[") and host.endswith("]")) or _reference_is_ip(host)
        )
        try:
            normalize_hostname(text)
        except IpLiteralError:
            raised = True
        except InvalidHostError:
            raised = False
        else:
            raised = False
        assert raised is expected

    @pytest.mark.parametrize("text", ["١٢٣.١.١.١", "1.2.3.٤", "::1", "fe80::1%eth0",
                                      "1.2.3.4", "01.2.3.4", "1.2.3", "[::1]"])
    def test_edge_cases(self, text):
        assert is_ip_literal(text) is _reference_is_ip(text)


_url_hosts = st.sampled_from([
    "ads.example.com", "ADS.Example.COM", "ads.example.com.", "ads.example.org",
    "cdn.example.net", "192.0.2.700", "2001.example",
    "bücher.example", "BÜCHER.example", "例え.テスト", "xn--bcher-kva.example",
    "192.0.2.7", "[2001:db8::1]", "[2001:DB8::1]", "[fe80::1%25eth0]",
    "a..b", "-bad-.example", "_dmarc.example", "a" * 64 + ".example", "",
])
_url_lines = st.one_of(
    st.builds(
        "{}://{}{}{}".format,
        st.sampled_from(["http", "https", "HTTPS"]),
        _url_hosts,
        st.sampled_from(["", ":80", ":8443", ":"]),
        st.sampled_from(["", "/", "/p?q=1", "/x#frag"]),
    ),
    st.sampled_from([
        "not a url", "ftp://example.com/a", "http://:80/", "http:///x", "https://[::1",
        "# comment", "", "   ", "//example.com/x", "mailto:a@example.com",
    ]),
    st.text(max_size=16).filter(lambda t: "\n" not in t and "\r" not in t),
)


def _reference_domain(url):
    """A URL's domain or reject reason, split and normalized on its own."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return "invalid-host"
    if parts.scheme not in ("http", "https") or not parts.hostname:
        return "invalid-host"
    try:
        return normalize_hostname(parts.hostname)
    except IpLiteralError:
        return "ip-literal"
    except InvalidHostError:
        return "invalid-host"


class TestIngestPathEquivalence:
    """Splitting once and memoizing per raw host gives what splitting and
    normalizing each URL on its own gives."""

    @given(st.lists(_url_lines, max_size=40))
    @settings(max_examples=300)
    def test_matches_reference_domain_per_url(self, lines):
        hosts, rejected = parse_url_list("\n".join(lines))
        accepted = []
        for raw in "\n".join(lines).splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts = urlsplit(line)
            except ValueError:
                continue
            if parts.scheme in ("http", "https") and parts.netloc:
                accepted.append(line)
        assert hosts == [url_host(url) for url in accepted]
        assert len(hosts) + rejected == sum(
            1 for raw in "\n".join(lines).splitlines()
            if raw.strip() and not raw.strip().startswith("#"))

        domains, rejects = [], Counter()
        for url in accepted:
            expected = _reference_domain(url)
            try:
                assert normalize_hostname(url_host(url)) == expected
            except IpLiteralError:
                assert expected == "ip-literal"
                rejects[expected] += 1
                continue
            except InvalidHostError:
                assert expected == "invalid-host"
                rejects[expected] += 1
                continue
            if expected not in domains:
                domains.append(expected)
        corpus = dedupe(hosts)
        assert list(corpus.domains) == domains
        assert corpus.rejects == rejects


# every separator str.splitlines splits at, "\r\n" as one
_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
_block_texts = st.lists(st.one_of(
    _url_lines,
    st.sampled_from(_SEPARATORS),
    # lines longer than the largest block tried
    st.builds("https://{}.example/{}".format, st.text("abAB-", min_size=1, max_size=8),
              st.text("pq/?", min_size=64, max_size=150)),
)).map("".join)


class TestLineBlocks:
    """Parsing a URL list block by block gives what one parse of the whole
    text gives, whatever the block size."""

    @given(_block_texts, st.integers(1, 64))
    @settings(max_examples=500)
    def test_blocks_parse_as_the_whole_text(self, text, size):
        with mock.patch.object(ingest, "BLOCK_CHARS", size):
            blocks = list(line_blocks(io.StringIO(text, newline="")))
        assert "".join(blocks) == text
        assert [line for block in blocks for line in block.splitlines()] == text.splitlines()
        hosts, rejected = [], 0
        for block in blocks:
            block_hosts, block_rejected = parse_url_list(block)
            hosts += block_hosts
            rejected += block_rejected
        assert (hosts, rejected) == parse_url_list(text)

    def test_long_line_is_carried_until_it_ends(self):
        text = "https://a.example/" + "x" * 100 + "\nhttps://b.example/\n"
        with mock.patch.object(ingest, "BLOCK_CHARS", 16):
            blocks = list(line_blocks(io.StringIO(text)))
        assert blocks[0] == text[:text.index("\n") + 1]
        assert "".join(blocks) == text


class TestFlatMemory:
    """An ingest's peak memory grows with its distinct hosts, not with its
    URL lines."""

    def peak(self, tmp_path, lines):
        urls = tmp_path / f"urls-{lines}.txt"
        with open(urls, "w", encoding="utf-8") as fh:
            for i in range(lines):
                fh.write(f"https://h{i * 7919 % 1000}.example/page/{i}?q=1\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"repository": str(tmp_path / "repo"), "campaign": "c",
                                      "input": {"url_list": str(urls)}}))
        tracemalloc.start()
        try:
            assert main(["ingest", "--config", str(config)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_four_times_the_lines_same_peak(self, tmp_path, capsys):
        n = 20_000  # about 3 blocks of BLOCK_CHARS
        small, large = self.peak(tmp_path, n), self.peak(tmp_path, 4 * n)
        out = capsys.readouterr().out
        assert json.loads(out[out.rindex("{"):])["records"] == 4 * n
        assert large - small < 1 << 20, (small, large)


_PLAIN_HOST = "aZ09.-_"
# characters where a plain-host rule could part from urlsplit: "\u017f" and
# "\u212a" fold to "s" and "k" under IGNORECASE, urlsplit drops tabs, and the
# others open userinfo, brackets, escapes, ports or non-ASCII hosts
_EDGY_HOST = _PLAIN_HOST + "\t \\@%[]:\u017f\u212a\u00e9\u0663"
_ports = st.sampled_from(["", ":", ":80", ":80x", "::80", ":\u0663", ":8\t0", "@h", "%41"])
_tails = st.sampled_from(["", "/", "/p?q", "?q", "#f", "\\x", " x", "\t", "\n", "/\u00e9"])
_edge_urls = st.one_of(
    st.builds("{}://{}{}{}".format, st.sampled_from(["http", "https", "HTTP", "hTtPs"]),
              st.text(_PLAIN_HOST, max_size=10), _ports, _tails),
    st.builds(
        "{}{}{}{}{}".format,
        st.sampled_from(["http", "https", "HTTP", "http\u017f", "\u212ahttp", " http",
                         "htt\tp", "ftp", "https\u212a"]),
        st.sampled_from(["://", ":/", ":///", "://\t", ":\\\\"]),
        st.text(_EDGY_HOST, max_size=10), _ports, _tails),
)


def _reference_url_host(url):
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    if parts.scheme not in ("http", "https") or not parts.netloc:
        return None
    return parts.hostname or ""


class TestUrlHostFastPath:
    """URLs the plain-host regex takes give what urlsplit gives."""

    @given(_edge_urls)
    @settings(max_examples=3000)
    def test_matches_urlsplit(self, url):
        assert url_host(url) == _reference_url_host(url)

    @pytest.mark.parametrize("url,host", [
        ("https://Ads.Example.COM/x", "ads.example.com"), ("HTTP://a.b:8080?q", "a.b"),
        ("http://a_b-c.d:#f", "a_b-c.d"), ("http://1.2.3.4", "1.2.3.4"),
    ])
    def test_plain_urls_take_it(self, url, host):
        assert _PLAIN_URL_RE.match(url) and url_host(url) == host

    @pytest.mark.parametrize("url", [
        "http\u017f://a.b/", "https://a.b:80x/", "http://a.b::80/", "http://a.b:\u0663/",
        "http://u@a.b/", "http://a.b\t/", "http://:80/", "http:///x", "http://[::1]/",
        "http://a.b%41/", "http://\u00e9.b/", "http://a.b\n",
    ])
    def test_other_urls_fall_back(self, url):
        assert not _PLAIN_URL_RE.match(url)
        assert url_host(url) == _reference_url_host(url)
