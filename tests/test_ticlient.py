import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admal.analytics import ti_stats
from admal.config import ALL_PARTNERS, OPINIONS
from admal.repository import payload_tallies
from admal.ticlient import (
    AuthError,
    FixtureTiProvider,
    LiveTiProvider,
    NoReport,
    PayloadError,
    TiReport,
    TransportError,
    report_to_payload,
)

counts = st.integers(min_value=0, max_value=100)


def report(h=0, u=0, s=0, m=0, t=0, domain="d.example"):
    return TiReport(domain, h, u, s, m, t)


# the agreement ratio and threat flag of one report, as analyze reduces them
def agreement_ratio(r, denominator=OPINIONS):
    """The report's ratio, or None when it is undefined."""
    stats = ti_stats([r], denominator=denominator)
    assert stats.undefined_ratio + len(stats.ecdf_points) == 1
    return stats.ecdf_points[0].ratio if stats.ecdf_points else None


def threat_flag(r):
    return ti_stats([r]).threat_count == 1


class TestTiReport:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            report(h=-1)

    def test_partner_verdicts_must_tally(self):
        with pytest.raises(ValueError):
            TiReport("d", 1, 0, 0, 0, 0,
                     partner_verdicts={"alpha": "harmless", "beta": "malicious"})

    def test_partner_verdicts_consistent(self):
        r = TiReport("d", 1, 1, 0, 1, 0,
                     partner_verdicts={"alpha": "harmless", "beta": "undetected",
                                       "gamma": "malicious"})
        assert r.partners == 3
        assert r.opinions == 2

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            TiReport("d", 0, 0, 0, 0, 0, partner_verdicts={"x": "weird"})

    @staticmethod
    def assert_round_trip(r):
        payload = report_to_payload(r)
        assert TiReport(r.domain, *payload_tallies(payload), payload.get("partners"),
                        payload["fetched_at"]) == r

    def test_payload_round_trip(self):
        self.assert_round_trip(TiReport("d.example", 60, 20, 1, 2, 0,
                                        partner_verdicts=None,
                                        fetched_at="2024-01-01T00:00:00Z"))

    def test_payload_round_trip_with_partners(self):
        self.assert_round_trip(TiReport("d.example", 1, 0, 0, 1, 0,
                                        partner_verdicts={"a": "harmless", "b": "malicious"},
                                        fetched_at="2024-01-01T00:00:00Z"))

    def test_noreport_payload_round_trip(self):
        nr = NoReport("gone.example", "2024-01-01T00:00:00Z")
        payload = report_to_payload(nr)
        assert payload_tallies(payload) == ()
        assert NoReport("gone.example", payload["fetched_at"]) == nr

    @pytest.mark.parametrize("partners", [
        ["malicious"], "malicious", 1, {"p": ["x"]}, {"p": None}, {"p": 1}, {"p": "weird"},
        {"p": "harmless"}, {"p": "malicious", "q": "malicious"},
    ])
    def test_bad_partner_map_is_value_error(self, partners):
        with pytest.raises(ValueError) as built:
            TiReport("d.example", 0, 0, 0, 1, 0, partners)
        payload = {"status": "report", "harmless": 0, "undetected": 0, "suspicious": 0,
                   "malicious": 1, "timeout": 0, "partners": partners}
        with pytest.raises(ValueError) as stored:
            payload_tallies(payload)
        # the repository refuses a stored map for the reason TiReport gives
        assert str(stored.value) == f"bad TI payload: {built.value}"


class TestThreatFlag:
    def test_no_threat_votes(self):
        assert threat_flag(report(h=70, u=10)) is False

    def test_single_suspicious(self):
        assert threat_flag(report(h=70, u=10, s=1)) is True

    def test_all_malicious(self):
        assert threat_flag(report(m=90)) is True

    @given(counts, counts, counts, counts, counts)
    @settings(max_examples=200)
    def test_equivalent_to_positive_ratio(self, h, u, s, m, t):
        r = report(h, u, s, m, t)
        ratio = agreement_ratio(r)
        if ratio is not None:
            assert threat_flag(r) == (ratio > 0)


class TestAgreementRatio:
    def test_five_of_fifty(self):
        assert agreement_ratio(report(h=45, u=20, s=3, m=2)) == 0.10

    def test_unanimous_threat(self):
        assert agreement_ratio(report(u=5, m=7)) == 1

    def test_opinionless_undefined(self):
        assert agreement_ratio(report(u=80)) is None

    def test_all_partners_denominator(self):
        r = report(h=45, u=20, s=3, m=2, t=0)
        assert agreement_ratio(r, ALL_PARTNERS) == 5 / 70

    def test_undetected_excluded_by_default(self):
        # 1 flag of 1 opinion, despite 99 undetected
        assert agreement_ratio(report(u=99, m=1)) == 1

    @given(counts, counts, counts, counts)
    @settings(max_examples=200)
    def test_bounds_and_extremes(self, h, u, s, m):
        ratio = agreement_ratio(report(h, u, s, m))
        if ratio is None:
            assert h + s + m == 0
            return
        assert 0 <= ratio <= 1
        assert (ratio == 1) == (h == 0 and s + m >= 1)
        assert (ratio == 0) == (s + m == 0 and h >= 1)


class TestFixtureProvider:
    def make_fixture(self, tmp_path):
        path = tmp_path / "ti.jsonl"
        lines = [
            {"domain": "d.example", "harmless": 60, "undetected": 20,
             "suspicious": 1, "malicious": 2, "timeout": 0},
            {"domain": "clean.example", "harmless": 70, "undetected": 5},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        return str(path)

    def test_passthrough(self, tmp_path):
        provider = FixtureTiProvider(self.make_fixture(tmp_path))
        r = provider.lookup("d.example")
        assert (r.harmless, r.undetected, r.suspicious, r.malicious) == (60, 20, 1, 2)

    def test_absent_is_noreport(self, tmp_path):
        provider = FixtureTiProvider(self.make_fixture(tmp_path))
        assert isinstance(provider.lookup("missing.example"), NoReport)

    def test_domains_keyed_as_the_corpus_is(self, tmp_path):
        path = tmp_path / "ti.jsonl"
        path.write_text("".join(json.dumps({"domain": d, "harmless": 5}) + "\n"
                                for d in ("Ads.Example.", "b\u00fccher.example")))
        provider = FixtureTiProvider(str(path))
        assert len(provider) == 2
        for domain in ("ads.example", "xn--bcher-kva.example"):
            report = provider.lookup(domain)
            assert (report.domain, report.harmless) == (domain, 5)

    @pytest.mark.parametrize("domain", ["bad..example", "127.0.0.1", 7])
    def test_unnormalizable_domain_is_bad_report(self, tmp_path, domain):
        path = tmp_path / "ti.jsonl"
        path.write_text('{"domain": "ok.example"}\n' + json.dumps({"domain": domain}) + "\n")
        with pytest.raises(ValueError, match="line 2: bad report"):
            FixtureTiProvider(str(path))

    @pytest.mark.parametrize("tally", [1.9, 1.0, True, "2", None, [1]])
    def test_tally_that_is_not_an_int_is_bad_report(self, tmp_path, tally):
        path = tmp_path / "ti.jsonl"
        path.write_text('{"domain": "ok.example", "harmless": 3}\n'
                        + json.dumps({"domain": "a.example", "malicious": tally}) + "\n")
        with pytest.raises(ValueError, match="line 2: bad report"):
            FixtureTiProvider(str(path))

    def test_reference_scale_noreport_count(self, tmp_path):
        # absence semantics at the published no-report cardinality
        path = tmp_path / "ti.jsonl"
        present = [f"known{i}.example" for i in range(100)]
        path.write_text(
            "\n".join(json.dumps({"domain": d, "harmless": 5}) for d in present) + "\n"
        )
        provider = FixtureTiProvider(str(path))
        corpus = present + [f"absent{i}.example" for i in range(37_141)]
        missing = sum(isinstance(provider.lookup(d), NoReport) for d in corpus)
        assert missing == 37_141


class FakeResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("not json")
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.headers = {}
        self.requests = []

    def get(self, url, timeout=None):
        self.requests.append(url)
        return self.responses.pop(0)


def v3_body(h=0, u=0, s=0, m=0, t=0):
    return {"data": {"attributes": {"last_analysis_stats": {
        "harmless": h, "undetected": u, "suspicious": s, "malicious": m, "timeout": t,
    }}}}


def live(session, requests_per_minute=1e9, **kw):
    return LiveTiProvider("https://ti.example", api_key="k", session=session, retries=2,
                          backoff_s=0, requests_per_minute=requests_per_minute, **kw)


class TestLiveProvider:
    def test_parses_stats(self):
        session = FakeSession([FakeResponse(200, v3_body(h=60, u=20, s=1, m=2))])
        r = live(session).lookup("d.example")
        assert (r.harmless, r.undetected, r.suspicious, r.malicious) == (60, 20, 1, 2)
        assert session.requests == ["https://ti.example/domains/d.example"]
        assert session.headers["x-apikey"] == "k"

    def test_404_is_noreport(self):
        session = FakeSession([FakeResponse(404)])
        assert isinstance(live(session).lookup("gone.example"), NoReport)

    def test_auth_errors(self):
        for status in (401, 403):
            with pytest.raises(AuthError):
                live(FakeSession([FakeResponse(status)])).lookup("d.example")

    def test_retry_then_success(self):
        session = FakeSession([FakeResponse(503), FakeResponse(200, v3_body(h=1))])
        assert live(session).lookup("d.example").harmless == 1

    def test_retries_exhausted(self):
        session = FakeSession([FakeResponse(429)] * 3)
        with pytest.raises(TransportError):
            live(session).lookup("d.example")

    def test_non_json_body(self):
        with pytest.raises(PayloadError):
            live(FakeSession([FakeResponse(200)])).lookup("d.example")

    @pytest.mark.parametrize("tally", [1.9, 1.0, True, "2", None])
    def test_tally_that_is_not_an_int_is_payload_error(self, tally):
        body = v3_body(h=3)
        body["data"]["attributes"]["last_analysis_stats"]["malicious"] = tally
        with pytest.raises(PayloadError):
            live(FakeSession([FakeResponse(200, body)])).lookup("d.example")

    def test_missing_stats_path(self):
        with pytest.raises(PayloadError):
            live(FakeSession([FakeResponse(200, {"data": {}})])).lookup("d.example")

    def test_custom_paths_and_header(self):
        session = FakeSession([FakeResponse(200, {"verdicts": {"tallies": {"harmless": 3}}})])
        provider = LiveTiProvider(
            "https://alt.example", api_key="k2", session=session,
            api_key_header="authorization", stats_path="verdicts.tallies",
            url_template="{base_url}/v1/{domain}/report",
        )
        r = provider.lookup("d.example")
        assert r.harmless == 3
        assert session.requests == ["https://alt.example/v1/d.example/report"]
        assert session.headers["authorization"] == "k2"

    def test_partner_map_fallback(self):
        body = {"scan": {"partners": {
            "alpha": {"category": "harmless"},
            "beta": {"category": "malicious"},
            "gamma": {"category": "undetected"},
        }}}
        session = FakeSession([FakeResponse(200, body)])
        provider = live(session, stats_path="scan.stats", partners_path="scan.partners")
        r = provider.lookup("d.example")
        assert (r.harmless, r.undetected, r.malicious) == (1, 1, 1)

    def test_retry_waits_for_its_slot(self):
        sent = []

        class TimedSession(FakeSession):
            def get(self, url, timeout=None):
                sent.append(time.monotonic())
                return super().get(url, timeout)

        session = TimedSession([FakeResponse(429), FakeResponse(200, v3_body(h=1))])
        assert live(session, requests_per_minute=600).lookup("d.example").harmless == 1
        assert len(sent) == 2
        assert sent[1] - sent[0] >= 0.1  # 600/min = one request per 100 ms

    @pytest.mark.parametrize("rate", [0, -4])
    def test_rate_must_be_positive(self, rate):
        with pytest.raises(ValueError):
            live(FakeSession([]), requests_per_minute=rate)

    def test_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("ADMAL_TI_API_KEY", "env-key")
        session = FakeSession([FakeResponse(404)])
        provider = LiveTiProvider("https://ti.example", session=session)
        provider.lookup("d.example")
        assert session.headers["x-apikey"] == "env-key"

    def test_missing_key_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("ADMAL_TI_API_KEY", raising=False)
        with pytest.raises(AuthError):
            LiveTiProvider("https://ti.example", session=FakeSession([]))


class TestRequestsImport:
    # the repository is imported by every command and by tools that only
    # read a log, so neither may pay for the HTTP or IDNA stacks; no pipeline
    # command may pay for the mock resolver farm either, nor for the report
    # and filter-list modules that only analyze and ads-classify run, nor
    # for the scan engine that only dns-scan runs; and no module that every
    # command imports loads dataclasses, logging, datetime, the IDNA codec or
    # the TI client, which only ti-fetch runs
    LEAN = ("dataclasses", "inspect", "logging", "datetime", "idna", "admal.ticlient")

    @pytest.mark.parametrize("module, absent", [
        ("admal.cli", ("requests", "admal.mockdns", "admal.analytics", "admal.adlists",
                       "fractions", "admal.dnsbroker", "admal.dnswire", "admal.dnsclient",
                       *LEAN)),
        ("admal.repository", ("requests", "idna", "fractions", *LEAN)),
        ("admal.config", LEAN),
        ("admal.adlists", LEAN),
    ], ids=["cli", "repository", "config", "adlists"])
    def test_cli_import_leaves_requests_out(self, module, absent):
        import os
        import subprocess
        import sys

        import admal

        src = os.path.dirname(os.path.dirname(admal.__file__))
        code = f"import {module}, sys; assert not {{*sys.modules}} & {set(absent)!r}"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_default_session_is_requests_session(self):
        import requests

        provider = LiveTiProvider("https://ti.example", api_key="k")
        assert isinstance(provider._session, requests.Session)
        provider._session.close()

    def test_connection_error_is_transport_error(self):
        import requests

        class RefusingSession(FakeSession):
            def get(self, url, timeout=None):
                self.requests.append(url)
                raise requests.ConnectionError("refused")

        session = RefusingSession([])
        with pytest.raises(TransportError):
            live(session).lookup("d.example")
        assert len(session.requests) == 3
