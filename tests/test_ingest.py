import ipaddress
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admal.adlists import _is_ip
from admal.ingest import (
    CorpusResult,
    InvalidHostError,
    IpLiteralError,
    PublicSuffixList,
    RequestRecord,
    IngestError,
    SchemaError,
    _PLAIN_URL_RE,
    _url_host,
    dedupe,
    extract_domain,
    is_canonical,
    is_ip_literal,
    normalize_hostname,
    parse_capture,
    parse_url_list,
)


class TestParseUrlList:
    def test_comment_skipped(self):
        records, rejects = parse_url_list("https://ads.example.com/x\n# c\n")
        assert len(records) == 1
        assert records[0].url == "https://ads.example.com/x"
        assert rejects == []

    def test_malformed_line_rejected(self):
        records, rejects = parse_url_list("not a url\n")
        assert records == []
        assert len(rejects) == 1
        assert rejects[0].line_no == 1
        assert rejects[0].reason == "not-absolute-http-url"

    def test_blank_lines_skipped(self):
        records, rejects = parse_url_list("\n\n  \n")
        assert records == [] and rejects == []

    def test_non_http_scheme_rejected(self):
        _, rejects = parse_url_list("ftp://example.com/a\n")
        assert len(rejects) == 1

    def test_million_scale_line_count(self):
        # published corpus cardinality: 1,206,803 domains
        n = 1_206_803
        text = "\n".join(f"https://d{i}.example/x" for i in range(n))
        records, rejects = parse_url_list(text)
        assert len(records) == n
        assert rejects == []

    def test_round_trip_count(self):
        lines = [f"https://h{i}.example/p" for i in range(50)]
        records, _ = parse_url_list("\n".join(lines))
        rendered = "\n".join(r.url for r in records)
        again, _ = parse_url_list(rendered)
        assert len(again) == len(records) == 50


class TestParseCapture:
    def test_two_entries(self):
        doc = {"entries": [{"url": "https://a.example/1"},
                           {"url": "https://b.example/2", "page": "https://p.example"}]}
        records = parse_capture(doc)
        assert [r.url for r in records] == ["https://a.example/1", "https://b.example/2"]
        assert records[1].source_page == "https://p.example"

    def test_missing_url_names_path(self):
        with pytest.raises(SchemaError) as err:
            parse_capture({"entries": [{"page": "https://p.example"}]})
        assert err.value.path == "entries[0].url"

    def test_order_preserved_no_early_dedupe(self):
        entries = [{"url": f"https://{'shared' if i % 3 == 0 else f'h{i}'}.example/{i}"}
                   for i in range(10)]
        records = parse_capture({"entries": entries})
        assert len(records) == 10
        assert [r.url for r in records] == [e["url"] for e in entries]

    def test_bad_timestamp_names_path(self):
        with pytest.raises(SchemaError) as err:
            parse_capture({"entries": [{"url": "https://a.example", "ts": "gibberish"}]})
        assert err.value.path == "entries[0].ts"

    def test_root_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_capture([1, 2])


class TestExtractDomain:
    def test_case_and_port_normalization(self):
        assert extract_domain("https://Ads.Example.COM:8443/a?b=c") == "ads.example.com"

    def test_idn_label_punycode(self):
        # oracle: stdlib punycode codec on the non-ASCII label
        expected = "xn--" + "bücher".encode("punycode").decode("ascii") + ".example"
        assert extract_domain("https://bücher.example/x") == expected
        assert extract_domain("https://bücher.example/x") == "xn--bcher-kva.example"

    def test_ipv4_literal_excluded(self):
        with pytest.raises(IpLiteralError):
            extract_domain("http://192.0.2.7/ad")

    def test_ipv6_literal_excluded(self):
        with pytest.raises(IpLiteralError):
            extract_domain("http://[2001:db8::1]:8080/ad")

    def test_trailing_dot_stripped(self):
        assert extract_domain("https://example.com./x") == "example.com"

    def test_non_http_rejected(self):
        with pytest.raises(InvalidHostError):
            extract_domain("ftp://example.com/x")


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
        result = dedupe([RequestRecord(url=f"http://{host}/x")])
        assert result.domains == []
        assert [r.reason for r in result.rejects] == ["invalid-host"]

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
        records = [RequestRecord(url=u) for u in
                   ("https://a.com/1", "https://A.COM/2", "https://b.com/3")]
        assert dedupe(records).domains == ["a.com", "b.com"]

    def test_empty(self):
        assert dedupe([]).domains == []

    def test_ip_literals_counted(self):
        records = [RequestRecord(url="http://10.0.0.1/x"),
                   RequestRecord(url="https://ok.example/y")]
        result = dedupe(records)
        assert result.domains == ["ok.example"]
        assert [r.reason for r in result.rejects] == ["ip-literal"]

    def test_matches_hash_set_oracle(self):
        import random

        rng = random.Random(42)
        hosts = [f"host{i}.example" for i in range(1000)]
        records = [
            RequestRecord(url=f"https://{rng.choice(hosts)}/p{j}") for j in range(10_000)
        ]
        result = dedupe(records)
        assert len(result.domains) == len({extract_domain(r.url) for r in records})
        assert len(result.domains) == len(set(result.domains))
        assert set(result.domains) <= set(hosts)

    def test_output_subset_of_input(self):
        records = [RequestRecord(url=f"https://h{i % 7}.example/x") for i in range(30)]
        result = dedupe(records)
        assert len(result.domains) == 7


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
        psl = PublicSuffixList.from_text(self.PSL)
        records = [RequestRecord(url="https://x.site.com/a"),
                   RequestRecord(url="https://y.site.com/b")]
        assert dedupe(records, psl=psl).domains == ["site.com"]


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
    """Splitting once and memoizing per raw host gives what extract_domain
    on each URL gives."""

    @given(st.lists(_url_lines, max_size=40))
    @settings(max_examples=300)
    def test_matches_extract_domain_per_url(self, lines):
        records, line_rejects = parse_url_list("\n".join(lines))
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
        assert [r.url for r in records] == accepted
        assert len(records) + len(line_rejects) == sum(
            1 for raw in "\n".join(lines).splitlines()
            if raw.strip() and not raw.strip().startswith("#"))

        domains, rejects = [], []
        for record in records:
            expected = _reference_domain(record.url)
            try:
                assert extract_domain(record.url) == expected
            except IpLiteralError:
                assert expected == "ip-literal"
                rejects.append((record.url, "ip-literal"))
                continue
            except InvalidHostError:
                assert expected == "invalid-host"
                rejects.append((record.url, "invalid-host"))
                continue
            if expected not in domains:
                domains.append(expected)
        for given_records in (records, [RequestRecord(url=r.url) for r in records]):
            result = dedupe(given_records)
            assert result.domains == domains
            assert [(r.value, r.reason) for r in result.rejects] == rejects


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
        assert _url_host(url) == _reference_url_host(url)

    @pytest.mark.parametrize("url,host", [
        ("https://Ads.Example.COM/x", "ads.example.com"), ("HTTP://a.b:8080?q", "a.b"),
        ("http://a_b-c.d:#f", "a_b-c.d"), ("http://1.2.3.4", "1.2.3.4"),
    ])
    def test_plain_urls_take_it(self, url, host):
        assert _PLAIN_URL_RE.match(url) and _url_host(url) == host

    @pytest.mark.parametrize("url", [
        "http\u017f://a.b/", "https://a.b:80x/", "http://a.b::80/", "http://a.b:\u0663/",
        "http://u@a.b/", "http://a.b\t/", "http://:80/", "http:///x", "http://[::1]/",
        "http://a.b%41/", "http://\u00e9.b/", "http://a.b\n",
    ])
    def test_other_urls_fall_back(self, url):
        assert not _PLAIN_URL_RE.match(url)
        assert _url_host(url) == _reference_url_host(url)
