import functools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admal
from admal import ingest
from admal.cli import REUSE_BATCH, _text_file, main
from admal.config import ConfigError
from admal.mockdns import BEHAVIOR_NXDOMAIN, MockDnsFarm, MockProviderSpec
from admal.repository import KIND_AD, KIND_DNS, KIND_TI, Repository, VerdictRecord
from admal.ticlient import LiveTiProvider, NoReport, TiReport, TransportError

DOMAINS = [f"d{i}.example" for i in range(10)]
P1_BLOCKS = {"d0.example", "d1.example", "d2.example"}
P2_BLOCKS = {"d2.example", "d3.example"}


def parse_stdout(text):
    """stdout may hold several pretty-printed JSON documents."""
    decoder = json.JSONDecoder()
    docs, idx = [], 0
    while idx < len(text):
        while idx < len(text) and text[idx] in " \r\n\t":
            idx += 1
        if idx >= len(text):
            break
        doc, idx = decoder.raw_decode(text, idx)
        docs.append(doc)
    return docs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, parse_stdout(out)


@pytest.fixture
def env(tmp_path):
    specs = [
        MockProviderSpec("p1", blocklist=frozenset(P1_BLOCKS)),
        MockProviderSpec("p2", blocklist=frozenset(P2_BLOCKS),
                         block_behavior=BEHAVIOR_NXDOMAIN),
        MockProviderSpec("p3", blocklist=frozenset()),
        MockProviderSpec("open", blocklist=frozenset()),
    ]
    with MockDnsFarm(specs, seed=0) as farm:
        urls = tmp_path / "urls.txt"
        urls.write_text("".join(f"https://{d}/index.html\n" for d in DOMAINS))
        ads = tmp_path / "ads.txt"
        ads.write_text("d1.example\nd3.example\nd7.example\n")

        def addr(provider_id):
            return "%s:%d" % farm.addresses[provider_id]

        def resolver(provider_id, signature, control=None):
            doc = {
                "provider_id": provider_id,
                "filtered_address": addr(provider_id),
                "blocked_signatures": [signature],
                "timeout_ms": 2000,
                "retries": 1,
            }
            if control:
                doc["control_address"] = addr(control)
            return doc

        config = {
            "repository": str(tmp_path / "repo"),
            "campaign": "t1",
            "input": {"url_list": str(urls)},
            "resolvers": [
                resolver("p1", {"kind": "sinkhole_a", "ips": ["0.0.0.0"]}),
                resolver("p2", {"kind": "nxdomain"}, control="open"),
                resolver("p3", {"kind": "sinkhole_a", "ips": ["0.0.0.0"]}),
            ],
            "lists": {"files": [str(ads)]},
            "limits": {"max_inflight": 16, "per_provider_qps": 500},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        yield SimpleNamespace(
            tmp=tmp_path,
            config=str(cfg_path),
            config_doc=config,
            repo=str(tmp_path / "repo"),
            corpus=str(tmp_path / "repo" / "corpus-t1.txt"),
            ads=str(ads),
            farm=farm,
        )


def write_variant(env, mutate, name):
    doc = json.loads(json.dumps(env.config_doc))
    mutate(doc)
    path = env.tmp / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestIngest:
    def test_summary(self, env, capsys):
        code, docs = run(capsys, "ingest", "--config", env.config)
        assert code == 0
        assert docs[-1]["domains"] == 10
        assert docs[-1]["records"] == 10
        assert docs[-1]["rejected_lines"] == 0
        with open(env.corpus) as fh:
            corpus = fh.read().split()
        assert sorted(corpus) == sorted(DOMAINS)

    # a URL list of mixed line ends, without a final one, and a capture
    URLS = ("https://Ads.Example.COM:8443/a?b=c\r\nhttp://192.0.2.7/ad\n# comment\n"
            "not a url\rhttps://b\u00fccher.example/x\u2028HTTPS://ads.example.com./y\n"
            "http://[2001:db8::1]:8080/ad\x85https://cdn.example.net\nftp://files.example/x\n"
            "http://a..b/\x0chttps://x.site.co.uk/1\r  https://y.site.co.uk/2  \n\n"
            "https://deep.www.ck/3\x1ehttps://a.b.foo.ck/4\nhttps://stats.g.doubleclick.com/5\n"
            "http://:80/\nhttps://b.foo.ck/6")
    CAPTURE = {"entries": [
        {"url": "https://doubleclick.com/x", "page": "https://p.example"},
        {"url": "mailto:a@example.com"},
        {"url": "https://CDN.example.net/z", "ts": "2024-01-01T00:00:00Z"},
        {"url": "http://10.0.0.1/"}, {"url": "https://late.site.co.uk/"}]}

    @pytest.mark.parametrize("collapse,corpus,domains", [
        (False, "ads.example.com xn--bcher-kva.example cdn.example.net x.site.co.uk "
                "y.site.co.uk deep.www.ck a.b.foo.ck stats.g.doubleclick.com b.foo.ck "
                "doubleclick.com late.site.co.uk", 11),
        (True, "example.com xn--bcher-kva.example example.net site.co.uk www.ck b.foo.ck "
               "doubleclick.com", 7),
    ])
    def test_mixed_inputs_give_a_pinned_corpus(self, env, capsys, collapse, corpus, domains):
        urls, capture, psl = env.tmp / "mixed.txt", env.tmp / "capture.json", env.tmp / "psl.txt"
        urls.write_text(self.URLS, encoding="utf-8", newline="")
        capture.write_text(json.dumps(self.CAPTURE))
        psl.write_text("// rules\ncom\nck\n*.ck\n!www.ck\nco.uk\n")
        cfg = write_variant(env, lambda doc: doc.update(input={
            "url_list": str(urls), "capture": str(capture),
            "collapse_registrable": collapse, "psl_file": str(psl)}), "mixed.json")
        code, docs = run(capsys, "ingest", "--config", cfg)
        assert code == 0
        assert docs == [{"campaign": "t1", "corpus": env.corpus, "records": 19,
                         "domains": domains, "rejected_lines": 2, "rejected_domains": 6}]
        with open(env.corpus, "rb") as fh:
            assert fh.read() == corpus.replace(" ", "\n").encode() + b"\n"

    def test_interrupted_corpus_write_keeps_the_old_corpus(self, env, capsys, monkeypatch):
        assert run(capsys, "ingest", "--config", env.config)[0] == 0
        with open(env.corpus, "rb") as fh:
            before = fh.read()
        urls = env.tmp / "urls.txt"
        urls.write_text("".join(f"https://new{i}.example/\n" for i in range(100)))
        real_open = open

        class Interrupted:
            # a corpus file whose write stops half way
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise KeyboardInterrupt

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def interrupting_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return Interrupted(fh) if "corpus-t1" in str(path) and "w" in mode else fh

        monkeypatch.setattr("builtins.open", interrupting_open)
        code = main(["ingest", "--config", env.config])
        monkeypatch.undo()
        assert code == 2
        assert "interrupted" in capsys.readouterr().err
        with open(env.corpus, "rb") as fh:
            assert fh.read() == before
        assert [path.name for path in (env.tmp / "repo").iterdir()] == ["corpus-t1.txt"]

    @pytest.mark.parametrize("name,text,message", [
        ("capture", '{"entries": [{"page": "https://p.example"}]}',
         "capture.json: entries[0].url: missing or invalid field"),
        ("capture", '{"entries": [{"url": "https://a.example", "ts": "noon"}]}',
         "capture.json: entries[0].ts: not an RFC3339 timestamp"),
        ("capture", "[1", "capture.json is not valid JSON"),
        ("psl_file", "com\nfoo$bar\n", "psl.txt: invalid characters in label"),
    ])
    def test_bad_capture_or_psl_is_config_error(self, env, capsys, name, text, message):
        path = env.tmp / ("psl.txt" if name == "psl_file" else "capture.json")
        path.write_text(text)
        cfg = write_variant(env, lambda doc: doc["input"].update(
            {name: str(path), "collapse_registrable": True, "psl_file": str(path)}), "bad.json")
        code = main(["ingest", "--config", cfg])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        lines = [json.loads(line) for line in err.splitlines()]
        assert len(lines) == 1 and message in lines[0]["msg"]
        assert not os.path.exists(env.corpus)


class TestScanAndAnalyze:
    def test_run_all(self, env, capsys):
        code, docs = run(capsys, "run-all", "--config", env.config)
        assert code == 0
        assert len(docs) == 3  # ingest, dns-scan, analyze; ti is off
        scan = docs[1]
        assert scan["written"] == 30
        assert scan["providers"] == ["p1", "p2", "p3"]

        with open(f"{env.repo}/report-t1/report.json") as fh:
            report = json.load(fh)
        assert report["corpus_size"] == 10
        by_id = {p["provider"]: p for p in report["providers"]}
        assert by_id["p1"]["blocked"] == 3
        assert by_id["p2"]["blocked"] == 2
        assert by_id["p3"]["blocked"] == 0
        assert by_id["p1"]["blocked_pct"] == 30.0
        # ads list holds d1 (blocked by p1) and d3 (blocked by p2)
        assert by_id["p1"]["ad_blocked"] == 1
        assert by_id["p1"]["ad_share_pct"] == 33.33
        assert by_id["p2"]["ad_blocked"] == 1
        assert by_id["p2"]["ad_share_pct"] == 50.0
        assert by_id["p3"]["ad_share_empty_base"] is True
        assert report["venn"]["sets"] == ["p1", "p2", "p3"]
        assert report["venn"]["a_only"] == 2
        assert report["venn"]["b_only"] == 1
        assert report["venn"]["ab"] == 1
        assert report["venn"]["union"] == 4

    def test_dns_scan_resumes(self, env, capsys):
        assert run(capsys, "ingest", "--config", env.config)[0] == 0
        code, docs = run(capsys, "dns-scan", "--config", env.config)
        assert code == 0
        assert docs[-1]["written"] == 30
        code, docs = run(capsys, "dns-scan", "--config", env.config)
        assert code == 0
        assert docs[-1]["written"] == 0
        assert docs[-1]["skipped_existing"] == 30

    def test_corpus_idn_line_is_scanned_as_punycode(self, env, capsys):
        corpus = env.tmp / "corpus.txt"
        corpus.write_text("b\u00fccher.example\n")
        code, docs = run(capsys, "dns-scan", "--config", env.config, "--corpus", str(corpus))
        assert code == 0
        assert docs[-1]["written"] == 3
        assert docs[-1]["rejected_domains"] == 0
        assert docs[-1]["inconclusive"] == {"p1": 0, "p2": 0, "p3": 0}
        with Repository(env.repo) as repo:
            assert {r.domain for r in repo.query("t1")} == {"xn--bcher-kva.example"}

    def test_corpus_case_variants_are_one_domain(self, env, capsys):
        corpus = env.tmp / "corpus.txt"
        corpus.write_text("Ads.Example.COM\nads.example.com\nads.example.com.\n"
                          "# a comment\n127.0.0.1\nbad..example\n")
        code, docs = run(capsys, "dns-scan", "--config", env.config, "--corpus", str(corpus))
        assert code == 0
        assert (docs[-1]["domains"], docs[-1]["written"]) == (1, 3)
        assert docs[-1]["rejected_domains"] == 2
        with Repository(env.repo) as repo:
            assert {r.domain for r in repo.query("t1")} == {"ads.example.com"}
            assert repo.read_manifest("t1")["domains"] == 1

    def test_analyze_byte_identical(self, env, capsys):
        assert run(capsys, "run-all", "--config", env.config)[0] == 0
        out_a = str(env.tmp / "rep-a")
        out_b = str(env.tmp / "rep-b")
        assert run(capsys, "analyze", "--config", env.config, "--out", out_a)[0] == 0
        assert run(capsys, "analyze", "--config", env.config, "--out", out_b)[0] == 0
        for name in ("report.json", "venn.csv", "shares.csv", "ecdf.csv"):
            with open(f"{out_a}/{name}", "rb") as a, open(f"{out_b}/{name}", "rb") as b:
                assert a.read() == b.read(), name

    def test_analyze_before_scan_is_runtime_error(self, env, capsys):
        code, _ = run(capsys, "analyze", "--config", env.config)
        assert code == 2


class TestAdsClassify:
    def classify(self, env, capsys, *extra):
        assert run(capsys, "ingest", "--config", env.config)[0] == 0
        code = main(["ads-classify", "--config", env.config,
                     "--domains", env.corpus, *extra])
        return code, capsys.readouterr().out

    def test_stdout_jsonl(self, env, capsys):
        code, out = self.classify(env, capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines() if l]
        assert len(lines) == 10
        verdicts = {doc["domain"]: doc["is_ad"] for doc in lines}
        assert verdicts["d1.example"] is True
        assert verdicts["d3.example"] is True
        assert verdicts["d7.example"] is True
        assert verdicts["d0.example"] is False
        hit = next(doc for doc in lines if doc["domain"] == "d1.example")
        assert hit["matched_entry"] == "d1.example"
        assert hit["source_list"] == env.ads

    def test_out_file_and_store(self, env, capsys):
        out_path = env.tmp / "ads.jsonl"
        code, _ = self.classify(env, capsys, "--out", str(out_path), "--store")
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 10
        with Repository(env.repo) as repo:
            records = repo.query("t1", provider_id="adlists", kind=KIND_AD)
            assert len(records) == 10
            assert sum(r.payload["is_ad"] for r in records) == 3

    def test_rerun_replaces_out_file(self, env, capsys):
        out_path = env.tmp / "ads.jsonl"
        assert self.classify(env, capsys, "--out", str(out_path))[0] == 0
        first = out_path.read_bytes()
        assert self.classify(env, capsys, "--out", str(out_path))[0] == 0
        assert out_path.read_bytes() == first
        assert not (env.tmp / "ads.jsonl.tmp").exists()

    def test_leaves_the_report_module_out(self, env, capsys):
        # open_aside lives in keydir, so ads-classify pays no analytics import
        assert run(capsys, "ingest", "--config", env.config)[0] == 0
        argv = ["ads-classify", "--config", env.config, "--domains", env.corpus,
                "--out", str(env.tmp / "ads.jsonl"), "--store"]
        code = (f"import sys; from admal.cli import main; assert main({argv!r}) == 0; "
                "assert not {*sys.modules} & {'admal.analytics', 'fractions'}")
        src = os.path.dirname(os.path.dirname(admal.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})
        assert len((env.tmp / "ads.jsonl").read_text().splitlines()) == 10

    def test_explicit_lists_flag(self, env, capsys):
        other = env.tmp / "other.txt"
        other.write_text("d5.example\n")
        code, out = self.classify(env, capsys, "--lists", str(other))
        assert code == 0
        verdicts = {doc["domain"]: doc["is_ad"]
                    for doc in map(json.loads, out.splitlines())}
        assert verdicts["d5.example"] is True
        assert verdicts["d1.example"] is False


class TestTiFetch:
    def fixture_config(self, env):
        fixture = env.tmp / "ti.jsonl"
        lines = []
        for i in range(6):
            lines.append({"domain": f"d{i}.example", "harmless": 8,
                          "suspicious": 1 if i < 2 else 0})
        fixture.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        return write_variant(
            env,
            lambda doc: doc.update({"ti": {"mode": "fixture", "fixture": str(fixture),
                                           "requests_per_minute": 100000}}),
            "config-ti.json",
        )

    def test_fetch_then_resume(self, env, capsys):
        cfg = self.fixture_config(env)
        assert run(capsys, "ingest", "--config", cfg)[0] == 0
        code, docs = run(capsys, "ti-fetch", "--config", cfg)
        assert code == 0
        assert docs[-1]["fetched"] == 10
        assert docs[-1]["no_report"] == 4
        assert docs[-1]["remote_requests"] == 10
        code, docs = run(capsys, "ti-fetch", "--config", cfg)
        assert code == 0
        assert docs[-1]["fetched"] == 0
        assert docs[-1]["skipped_existing"] == 10
        assert docs[-1]["remote_requests"] == 0
        assert docs[-1]["rejected_domains"] == 0
        with Repository(env.repo) as repo:
            assert len(repo.query("t1", kind=KIND_TI)) == 10

    def test_fixture_is_read_without_a_throttle(self, env, capsys, monkeypatch):
        fixture = env.tmp / "ti.jsonl"
        fixture.write_text(json.dumps({"domain": "d0.example", "harmless": 3}) + "\n")
        corpus = env.tmp / "two.txt"
        corpus.write_text("d0.example\nd1.example\n")
        # ti.requests_per_minute left at its default, 4
        cfg = write_variant(env, lambda doc: doc.update(
            {"ti": {"mode": "fixture", "fixture": str(fixture)}}), "config-ti-default.json")
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        code, docs = run(capsys, "ti-fetch", "--config", cfg, "--corpus", str(corpus))
        assert code == 0
        assert (docs[-1]["fetched"], docs[-1]["no_report"], docs[-1]["remote_requests"]) \
            == (2, 1, 2)
        assert sleeps == []

    def test_fetch_skips_only_pairs_held_as_ti(self, env, capsys):
        cfg = self.fixture_config(env)
        corpus = env.tmp / "corpus.txt"
        corpus.write_text("D0.example\nd1.example\nd2.example\n0x7f.1\n")
        with Repository(env.repo) as repo:
            repo.upsert(VerdictRecord("d0.example", "ti", "t1", KIND_TI,
                                      {"status": "no_report"}, "x"))
            # a TI record under another provider, and a key whose latest
            # record is not TI, do not count as fetched
            repo.upsert(VerdictRecord("d1.example", "other", "t1", KIND_TI,
                                      {"status": "no_report"}, "x"))
            repo.upsert(VerdictRecord("d2.example", "ti", "t1", KIND_TI,
                                      {"status": "no_report"}, "x"))
            repo.upsert(VerdictRecord("d2.example", "ti", "t1", KIND_AD, {}, "x"))
        code, docs = run(capsys, "ti-fetch", "--config", cfg, "--corpus", str(corpus))
        assert code == 0
        assert (docs[-1]["skipped_existing"], docs[-1]["fetched"]) == (1, 2)
        assert docs[-1]["rejected_domains"] == 1

    def test_report_includes_ti_section(self, env, capsys):
        cfg = self.fixture_config(env)
        assert run(capsys, "run-all", "--config", cfg)[0] == 0
        with open(f"{env.repo}/report-t1/report.json") as fh:
            report = json.load(fh)
        assert report["ti"]["with_report"] == 6
        assert report["ti"]["no_report"] == 4
        assert report["ti"]["threat_count"] == 2
        assert len(report["ecdf"]) == 2

    def test_transport_failures_exit_2(self, env, capsys, monkeypatch):
        class FailingProvider:
            def __init__(self, path):
                pass

            def lookup(self, domain):
                if domain.startswith("d9"):
                    raise TransportError(domain)
                return NoReport(domain)

        monkeypatch.setattr("admal.ticlient.FixtureTiProvider", FailingProvider)
        cfg = self.fixture_config(env)
        assert run(capsys, "ingest", "--config", cfg)[0] == 0
        code, docs = run(capsys, "ti-fetch", "--config", cfg)
        assert code == 2
        assert docs[-1]["unfetched"] == 1
        assert docs[-1]["fetched"] == 9

    def test_live_body_not_json_exit_2(self, env, capsys, monkeypatch):
        class Response:
            def __init__(self, status_code, body):
                self.status_code, self.body = status_code, body

            def json(self):
                return json.loads(self.body)

        class Session:
            headers = {}

            def get(self, url, timeout):
                if "/d9.example" in url:
                    return Response(200, "<html>busy</html>")
                if "/d0.example" in url:
                    return Response(200, json.dumps({"data": {"attributes": {
                        "last_analysis_stats": {"harmless": 5, "malicious": 1}}}}))
                return Response(404, "")

        monkeypatch.setenv("ADMAL_TI_API_KEY", "k")
        monkeypatch.setattr("admal.ticlient.LiveTiProvider",
                            functools.partial(LiveTiProvider, session=Session()))
        cfg = write_variant(env, lambda doc: doc.update({"ti": {
            "mode": "live", "base_url": "https://ti.invalid", "requests_per_minute": 100000,
            "retries": 0}}), "config-live.json")
        assert run(capsys, "ingest", "--config", cfg)[0] == 0
        code, docs, logs = self.run_with_log(capsys, "ti-fetch", "--config", cfg)
        assert code == 2
        assert (docs[-1]["fetched"], docs[-1]["no_report"], docs[-1]["unfetched"]) == (9, 8, 1)
        assert any(doc["level"] == "warning" and "d9.example" in doc["msg"] for doc in logs)
        with Repository(env.repo) as repo:
            assert repo.get("d0.example", "ti", "t1").payload["malicious"] == 1
            assert repo.get("d9.example", "ti", "t1") is None

    def run_with_log(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, parse_stdout(captured.out), [
            json.loads(line) for line in captured.err.splitlines()]

    def test_bad_fixture_line_is_config_error(self, env, capsys):
        cfg = self.fixture_config(env)
        fixture = env.tmp / "ti.jsonl"
        fixture.write_text(fixture.read_text() + '{"domain": "d7.example", "harmless": \n')
        assert run(capsys, "ingest", "--config", cfg)[0] == 0
        code, docs, logs = self.run_with_log(capsys, "ti-fetch", "--config", cfg)
        assert code == 1
        assert docs == []
        assert logs[-1]["level"] == "error"
        assert f"{fixture} line 7" in logs[-1]["msg"]

    def test_bad_fixture_tally_is_config_error(self, env, capsys):
        cfg = self.fixture_config(env)
        fixture = env.tmp / "ti.jsonl"
        fixture.write_text(fixture.read_text()
                           + '{"domain": "d7.example", "harmless": 1.9, "malicious": true}\n')
        assert run(capsys, "ingest", "--config", cfg)[0] == 0
        code, docs, logs = self.run_with_log(capsys, "ti-fetch", "--config", cfg)
        assert (code, docs) == (1, [])
        assert f"{fixture} line 7: bad report" in logs[-1]["msg"]

    def test_reports_are_reused_across_campaigns(self, env, capsys):
        cfg = self.fixture_config(env)
        assert run(capsys, "ingest", "--config", cfg)[0] == 0
        first = run(capsys, "ti-fetch", "--config", cfg)[1][-1]
        code, docs = run(capsys, "ti-fetch", "--config", cfg, "--campaign", "t2",
                         "--corpus", env.corpus)
        assert code == 0
        assert (docs[-1]["fetched"], docs[-1]["remote_requests"]) == (10, 0)
        assert docs[-1]["no_report"] == first["no_report"] == 4
        with Repository(env.repo) as repo:
            for domain in DOMAINS:
                assert (repo.get(domain, "ti", "t2").payload
                        == repo.get(domain, "ti", "t1").payload)
        assert not (env.tmp / "repo" / "ti-cache.jsonl").exists()

    def test_latest_record_of_other_campaigns_is_reused(self, env, capsys):
        def payload(harmless):
            return {"status": "report", "harmless": harmless, "undetected": 0,
                    "suspicious": 0, "malicious": 0, "timeout": 0, "fetched_at": "x"}

        with Repository(env.repo) as repo:
            for campaign, domain, harmless in [("c1", "d0.example", 1), ("c2", "d0.example", 2),
                                               ("c1", "d0.example", 3), ("c1", "d1.example", 4),
                                               ("c2", "d1.example", 5)]:
                repo.upsert(VerdictRecord(domain, "ti", campaign, KIND_TI, payload(harmless), "x"))
            # neither another provider's record nor one of another kind is a report
            repo.upsert(VerdictRecord("d2.example", "other", "c1", KIND_TI, payload(6), "x"))
            repo.upsert(VerdictRecord("d2.example", "ti", "c2", KIND_AD, {}, "x"))
        corpus = env.tmp / "corpus.txt"
        corpus.write_text("d0.example\nd1.example\nd2.example\n")
        code, docs = run(capsys, "ti-fetch", "--config", self.fixture_config(env),
                         "--corpus", str(corpus))
        assert code == 0
        assert (docs[-1]["fetched"], docs[-1]["remote_requests"]) == (3, 1)
        with Repository(env.repo) as repo:
            assert repo.get("d0.example", "ti", "t1").payload == payload(3)
            assert repo.get("d1.example", "ti", "t1").payload == payload(5)
            assert repo.get("d2.example", "ti", "t1").payload["harmless"] == 8

    def test_transport_failure_stores_nothing_and_rerun_fetches(self, env, capsys, monkeypatch):
        class FlakyProvider:
            failing = {"d9.example"}

            def __init__(self, path):
                pass

            def lookup(self, domain):
                if domain in self.failing:
                    raise TransportError(domain)
                return NoReport(domain)

        monkeypatch.setattr("admal.ticlient.FixtureTiProvider", FlakyProvider)
        cfg = self.fixture_config(env)
        assert run(capsys, "ingest", "--config", cfg)[0] == 0
        assert run(capsys, "ti-fetch", "--config", cfg)[0] == 2
        with Repository(env.repo) as repo:
            assert repo.get("d9.example", "ti", "t1") is None
        FlakyProvider.failing = set()
        code, docs = run(capsys, "ti-fetch", "--config", cfg)
        assert code == 0
        assert (docs[-1]["fetched"], docs[-1]["remote_requests"],
                docs[-1]["skipped_existing"]) == (1, 1, 9)
        with Repository(env.repo) as repo:
            assert repo.get("d9.example", "ti", "t1").payload["status"] == "no_report"

    def test_ti_cache_setting_is_config_error(self, env, capsys):
        cfg = write_variant(env, lambda doc: doc.update({"ti": {
            "mode": "fixture", "fixture": str(env.tmp / "ti.jsonl"),
            "cache": str(env.tmp / "ti-cache.jsonl")}}), "config-cache.json")
        code, docs, logs = self.run_with_log(capsys, "ti-fetch", "--config", cfg)
        assert (code, docs) == (1, [])
        assert "ti.cache" in logs[-1]["msg"]

    def test_fetch_with_ti_off_is_usage_error(self, env, capsys):
        assert run(capsys, "ingest", "--config", env.config)[0] == 0
        code, _ = run(capsys, "ti-fetch", "--config", env.config)
        assert code == 1

    def test_reused_payload_is_copied_byte_for_byte(self, env, capsys):
        payloads = {
            "r0.example": {"status": "report", "malicious": 1, "harmless": 2, "undetected": 0,
                           "suspicious": 0},
            "r1.example": {"partners": {"b": "malicious", "a": "harmless"}, "status": "report",
                           "harmless": 1, "undetected": 0, "suspicious": 0, "malicious": 1,
                           "note": "caf\u00e9"},
            "r2.example": {"status": "no_report"},
        }
        with Repository(env.repo) as repo:
            for domain, payload in payloads.items():
                repo.upsert(VerdictRecord(domain, "ti", "c1", KIND_TI, payload, "x"))
        corpus = env.tmp / "corpus.txt"
        corpus.write_text("".join(f"{domain}\n" for domain in payloads))
        code, docs = run(capsys, "ti-fetch", "--config", self.fixture_config(env),
                         "--campaign", "c2", "--corpus", str(corpus))
        assert code == 0
        assert (docs[-1]["fetched"], docs[-1]["no_report"], docs[-1]["remote_requests"]) \
            == (3, 1, 0)
        stored = {}
        for line in (env.tmp / "repo" / "records.jsonl").read_bytes().splitlines():
            doc = json.loads(line)
            stored[doc["campaign"], doc["domain"]] = re.search(rb'"payload":(.*),"ts":', line)[1]
        for domain in payloads:
            assert stored["c2", domain] == stored["c1", domain]

    def test_analyze_replaying_a_partner_map_leaves_the_ti_client_out(self, env):
        with Repository(env.repo) as repo:
            for provider in ("p1", "p2", "p3"):
                repo.upsert(VerdictRecord("d0.example", provider, "t1", KIND_DNS,
                                          {"verdict": "blocked"}, "x"))
            repo.upsert(VerdictRecord("d0.example", "ti", "t1", KIND_TI, {
                "status": "report", "harmless": 1, "undetected": 0, "suspicious": 0,
                "malicious": 1, "timeout": 0, "partners": {"a": "harmless", "b": "malicious"},
            }, "x"))
        os.unlink(env.tmp / "repo" / "keydir.hint")  # so the open replays the TI line
        code = ("import sys; from admal.cli import main; "
                f"assert main(['analyze', '--config', {env.config!r}]) == 0; "
                "assert 'admal.ticlient' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": SRC}, timeout=120)


# runs admal.cli.main on argv[2:] and SIGKILLs itself at the argv[1]-th call
# of Repository.upsert_many (0: never), before that call writes
KILLER = """
import os, signal, sys
from admal.cli import main
from admal.repository import Repository

upsert_many, calls = Repository.upsert_many, 0

def killing(self, records):
    global calls
    calls += 1
    if calls == int(sys.argv[1]):
        os.kill(os.getpid(), signal.SIGKILL)
    upsert_many(self, records)

Repository.upsert_many = killing
sys.exit(main(sys.argv[2:]))
"""
SRC = os.path.dirname(os.path.dirname(admal.__file__))


class TestTiFetchReuseBatches:
    """ti-fetch copies reused reports in batches of REUSE_BATCH; one killed
    between two batches leaves whole batches, which a rerun completes to what
    a clean run stores."""

    REUSED = 2 * REUSE_BATCH + REUSE_BATCH // 2
    FETCHED = [f"new{i}.example" for i in range(5)]

    @staticmethod
    def payload(i):
        if i % 7 == 0:
            return {"status": "no_report", "fetched_at": "2024-01-01T00:00:00Z"}
        payload = {"status": "report", "harmless": i % 11, "undetected": 1, "suspicious": 0,
                   "malicious": i % 2, "timeout": 0}
        if i % 5 == 0:
            payload["partners"] = {f"p{j}": "harmless" for j in range(i % 11)}
            payload["partners"].update({"u": "undetected", "m": "malicious"} if i % 2
                                       else {"u": "undetected"})
        return payload

    @pytest.fixture
    def runs(self, tmp_path):
        """Two copies of a repository whose campaign c1 holds REUSED reports,
        and for each a ti-fetch config of campaign c2 over them and FETCHED."""
        reused = [f"r{i}.example" for i in range(self.REUSED)]
        with Repository(tmp_path / "base") as repo:
            repo.upsert_many([VerdictRecord(domain, "ti", "c1", KIND_TI, self.payload(i), "x")
                              for i, domain in enumerate(reused)])
        (tmp_path / "ti.jsonl").write_text("".join(
            json.dumps({"domain": d, "harmless": 3, "fetched_at": "2024-01-02T00:00:00Z"}) + "\n"
            for d in self.FETCHED))
        (tmp_path / "corpus.txt").write_text("\n".join(reused + self.FETCHED) + "\n")
        configs = {}
        for name in ("clean", "killed"):
            shutil.copytree(tmp_path / "base", tmp_path / name)
            configs[name] = tmp_path / f"config-{name}.json"
            configs[name].write_text(json.dumps({
                "repository": str(tmp_path / name), "campaign": "c2",
                "ti": {"mode": "fixture", "fixture": str(tmp_path / "ti.jsonl"),
                       "requests_per_minute": 1e9}}))
        return tmp_path, configs

    def admal(self, config, kill_at=0):
        done = subprocess.run(
            [sys.executable, "-c", KILLER, str(kill_at), "ti-fetch", "--config", str(config),
             "--corpus", str(config.parent / "corpus.txt")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
        return done.returncode, parse_stdout(done.stdout)

    @staticmethod
    def stored(root):
        """(c2's keydir rows as a set, every log line with its ts masked, sorted)"""
        with Repository(root) as repo:
            domains, columns = repo.columns("c2", KIND_TI)
        rows = {(provider, domain, states[row], tallies and tuple(t[row] for t in tallies))
                for provider, states, tallies in columns for row, domain in enumerate(domains)}
        lines = (root / "records.jsonl").read_text().splitlines()
        return rows, sorted(re.sub(r'"ts":"[^"]*"', '"ts":""', line) for line in lines)

    def test_kill_between_copy_batches_then_rerun(self, runs):
        root, configs = runs
        code, clean = self.admal(configs["clean"])
        no_reports = sum(self.payload(i)["status"] == "no_report" for i in range(self.REUSED))
        assert code == 0
        assert {k: clean[-1][k] for k in ("fetched", "no_report", "remote_requests",
                                          "skipped_existing", "unfetched")} \
            == {"fetched": self.REUSED + 5, "no_report": no_reports, "remote_requests": 5,
                "skipped_existing": 0, "unfetched": 0}
        rows, lines = self.stored(root / "clean")
        # each reused line is c1's, payload bytes and all, under campaign c2
        c1 = [line for line in lines if '"campaign":"c1"' in line]
        assert sorted(line.replace('"campaign":"c1"', '"campaign":"c2"') for line in c1) \
            == [line for line in lines if '"campaign":"c2"' in line and "new" not in line]

        assert self.admal(configs["killed"], kill_at=2)[0] == -signal.SIGKILL
        log = (root / "killed" / "records.jsonl").read_text()
        assert log.count('"campaign":"c2"') == REUSE_BATCH  # the first batch, whole
        code, rerun = self.admal(configs["killed"])
        assert code == 0
        first = sum(self.payload(i)["status"] == "no_report" for i in range(REUSE_BATCH))
        assert {k: rerun[-1][k] for k in ("fetched", "no_report", "remote_requests",
                                          "skipped_existing", "unfetched")} \
            == {"fetched": self.REUSED + 5 - REUSE_BATCH, "no_report": no_reports - first,
                "remote_requests": 5, "skipped_existing": REUSE_BATCH, "unfetched": 0}
        assert self.stored(root / "killed") == (rows, lines)


class CountingFixture:
    """Answers each domain with a report or a NoReport, counting every ask;
    a domain in ``flaky`` fails its first ask."""

    def __init__(self, flaky):
        self.flaky, self.asked, self.answered = set(flaky), Counter(), Counter()

    def lookup(self, domain):
        self.asked[domain] += 1
        if domain in self.flaky and self.asked[domain] == 1:
            raise TransportError(domain)
        self.answered[domain] += 1
        number = int(domain[1:].split(".")[0])
        return TiReport(domain, number, 1, number % 2, 0, 0) if number % 3 else NoReport(domain)


POOL = [f"d{i}.example" for i in range(8)]


class TestTiFetchRuns:
    @given(flaky=st.sets(st.sampled_from(POOL), max_size=2),
           runs=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                                   st.lists(st.sampled_from(POOL), min_size=1, max_size=6)),
                         min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_one_record_per_pair_and_one_answer_per_domain(self, flaky, runs):
        provider = CountingFixture(flaky)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch("admal.ticlient.FixtureTiProvider", lambda path: provider), \
                mock.patch("sys.stdout"), mock.patch("sys.stderr"):
            tmp = Path(tmp)
            (tmp / "ti.jsonl").write_text("")
            (tmp / "config.json").write_text(json.dumps({
                "repository": str(tmp / "repo"),
                "ti": {"mode": "fixture", "fixture": str(tmp / "ti.jsonl"),
                       "requests_per_minute": 1e9}}))
            finished = set()
            for campaign, corpus in runs:
                (tmp / "corpus.txt").write_text("\n".join(corpus) + "\n")
                failures = sum(provider.asked.values()) - sum(provider.answered.values())
                code = main(["ti-fetch", "--config", str(tmp / "config.json"),
                             "--campaign", campaign, "--corpus", str(tmp / "corpus.txt")])
                failed = sum(provider.asked.values()) - sum(provider.answered.values()) > failures
                assert code == (2 if failed else 0)
                if not failed:
                    finished |= {(domain, campaign) for domain in corpus}
            lines = (tmp / "repo" / "records.jsonl").read_text().splitlines()
        records = Counter((doc["domain"], doc["campaign"]) for doc in map(json.loads, lines)
                          if doc["provider"] == "ti" and doc["kind"] == "ti")
        assert all(records[pair] == 1 for pair in finished)
        assert set(records.values()) <= {1}
        assert set(provider.answered.values()) <= {1}
        # a transport failure is no answer, so its domain is asked once more
        assert all(n <= 1 + (domain in flaky) for domain, n in provider.asked.items())
        payloads = {}
        for doc in map(json.loads, lines):
            assert payloads.setdefault(doc["domain"], doc["payload"]) == doc["payload"]


class TestNotUtf8:
    """An input file that is not UTF-8 ends the command as one config error
    that names the file and the offset of its first bad byte; nothing is
    written, and an ingest leaves the old corpus as it was."""

    # a good line of each reader's file, other than a domain per line
    GOOD = {"url_list": b"https://d1.example/\n", "psl_file": b"com\n", "capture": b" "}

    def argv(self, env, reader, path):
        corpus = ["--corpus", path]
        if reader in ("url_list", "capture", "psl_file"):
            return ["ingest", "--config", write_variant(env, lambda doc: doc["input"].update(
                {reader: path, "collapse_registrable": True}), "bad.json")]
        if reader == "analyze-list":
            return ["analyze", "--config", write_variant(
                env, lambda doc: doc["lists"].update(files=[path]), "bad.json")]
        if reader == "ti-fetch-corpus":
            return ["ti-fetch", "--config", TestTiFetch().fixture_config(env), *corpus]
        return {"dns-scan-corpus": ["dns-scan", "--config", env.config, *corpus],
                "ads-classify-domains": ["ads-classify", "--config", env.config,
                                         "--domains", path, "--out", path + ".out", "--store"],
                "ads-classify-list": ["ads-classify", "--config", env.config, "--lists", path,
                                      "--domains", env.corpus, "--out", path + ".out", "--store"],
                }[reader]

    @pytest.mark.parametrize("reader", ["url_list", "capture", "psl_file", "dns-scan-corpus",
                                        "ti-fetch-corpus", "ads-classify-domains",
                                        "ads-classify-list", "analyze-list"])
    def test_refused_before_any_write(self, env, capsys, reader):
        assert run(capsys, "ingest", "--config", env.config)[0] == 0
        # 20,000 good bytes, more than one buffer read, before the bad byte
        good = self.GOOD.get(reader, b"d1.example\n")
        data = good * (20_000 // len(good)) + b"x\xff.example\n"
        bad = env.tmp / "bad.txt"
        bad.write_bytes(data)
        argv = self.argv(env, reader, str(bad))
        before = {path: path.read_bytes() for path in env.tmp.rglob("*") if path.is_file()}
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        lines = [json.loads(line) for line in err.splitlines()]
        assert len(lines) == 1 and lines[0]["level"] == "error"
        assert lines[0]["msg"].startswith("config error: ")
        offset = data.index(b"\xff")
        assert lines[0]["msg"].endswith(f"{bad} is not UTF-8: invalid byte at offset {offset}")
        assert {path: path.read_bytes() for path in env.tmp.rglob("*") if path.is_file()} == before

    @given(st.text(alphabet="a\u00e9\n\u20ac\U0001f600", max_size=60).map(lambda t: t * 300),
           st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82"]),
           st.sampled_from(["lines", "blocks", "whole"]))
    @settings(max_examples=60, deadline=None)
    def test_offset_is_the_first_bad_byte(self, prefix, bad, how):
        # b"\xe2\x82" ends the file inside a character
        data = prefix.encode() + bad + (b"" if bad == b"\xe2\x82" else b"tail\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(ConfigError) as err, _text_file(path, "f") as fh:
                if how == "lines":
                    for _ in fh:
                        pass
                elif how == "blocks":
                    for _ in ingest.line_blocks(fh):
                        pass
                else:
                    fh.read()
        assert str(err.value).endswith(f"offset {len(prefix.encode())}")

    def test_pipe_is_refused_without_an_offset(self, tmp_path):
        fifo = str(tmp_path / "fifo")
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(b"https://a.example/\nhttps://\xff.example/\n")

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with pytest.raises(ConfigError) as err, _text_file(fifo, "url list") as fh:
                fh.read()
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(err.value) == f"url list {fifo} is not UTF-8: invalid start byte"


class TestCorruptStore:
    """A damaged manifest or log record ends a command with exit 2 and one
    JSONL error line, never a traceback."""

    def store(self, env, ti_payload=None):
        with Repository(env.repo) as repo:
            for provider in ("p1", "p2", "p3"):
                repo.upsert(VerdictRecord("d0.example", provider, "t1", KIND_DNS,
                                          {"verdict": "blocked"}, "x"))
            if ti_payload is not None:
                repo.upsert(VerdictRecord("d0.example", "ti", "t1", KIND_TI, ti_payload, "x"))

    def run_failing(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [doc for doc in map(json.loads, err.splitlines()) if doc["level"] == "error"]
        assert len(errors) == 1
        return code, errors[0]["msg"]

    @pytest.mark.parametrize("text", ["{not json", "[1]", '{"domains": "x"}',
                                      '{"domains": 0}', '{"providers": "p1"}',
                                      '{"providers": [1]}'])
    def test_analyze_with_corrupt_manifest(self, env, capsys, text):
        self.store(env)
        (env.tmp / "repo" / "manifests" / "t1.json").write_text(text)
        code, msg = self.run_failing(capsys, "analyze", "--config", env.config)
        assert code == 2
        assert "manifest" in msg

    def test_dns_scan_with_corrupt_manifest(self, env, capsys):
        self.store(env)
        (env.tmp / "repo" / "manifests" / "t1.json").write_text("{not json")
        corpus = env.tmp / "corpus.txt"
        corpus.write_text("d0.example\n")
        code, msg = self.run_failing(capsys, "dns-scan", "--config", env.config,
                                     "--corpus", str(corpus))
        assert code == 2
        assert "corrupt manifest" in msg

    @pytest.mark.parametrize("payload", [
        {"status": "report", "harmless": -1, "undetected": 0, "suspicious": 0,
         "malicious": 0, "timeout": 0},
        {"status": "report"},
        {"status": "pending", "harmless": 3, "undetected": 0, "suspicious": 1,
         "malicious": 0, "timeout": 0},
    ])
    def test_analyze_with_unbuildable_ti_report(self, env, capsys, payload):
        self.store(env)
        with pytest.raises(ValueError):
            self.store(env, ti_payload=payload)
        # a log line upsert refuses, appended by hand behind the hint
        line = VerdictRecord("d0.example", "ti", "t1", KIND_TI, payload, "x").to_json()
        log = env.tmp / "repo" / "records.jsonl"
        lines = log.read_text().count("\n")
        with open(log, "a") as fh:
            fh.write(line + "\n")
        code, msg = self.run_failing(capsys, "analyze", "--config", env.config)
        assert code == 2
        assert f"corrupt log record at line {lines + 1}" in msg


class TestMockDnsCommand:
    def test_serves_for_duration(self, env, capsys):
        farm_doc = {"seed": 5, "providers": [
            {"provider_id": "m1", "blocklist": ["x.example"]}]}
        farm_path = env.tmp / "farm.json"
        farm_path.write_text(json.dumps(farm_doc))
        code, docs = run(capsys, "mock-dns", "--config", env.config,
                         "--farm", str(farm_path), "--duration", "0.05")
        assert code == 0
        manifest = docs[-1]
        assert manifest["seed"] == 5
        assert manifest["providers"][0]["provider_id"] == "m1"
        assert manifest["providers"][0]["blocklist_size"] == 1

    def test_missing_farm_file(self, env, capsys):
        code, _ = run(capsys, "mock-dns", "--config", env.config,
                      "--farm", str(env.tmp / "absent.json"))
        assert code == 1

    @pytest.mark.parametrize("text", [
        "{not json", "[1]", '{"seed": "1"}', '{"seed": 1.5}', '{"providers": [{}]}',
        *(json.dumps({"providers": [{"provider_id": "m1", **setting}]}) for setting in (
            {"latency_ms": "fast"}, {"latency_ms": 2.9}, {"latency_ms": -1},
            {"latency_ms": True}, {"drop_rate": "0.5"}, {"drop_rate": True},
            {"truncate": "no"}, {"truncate": 1}, {"blocklist": "x.example"},
            {"blocklist": [1]}, {"sinkhole_ip": "not-an-ip"},
            {"listen": "127.0.0.1:70000"}, {"listen": "127.0.0.1:-1"}, {"listen": 53},
        )),
    ])
    def test_bad_farm_file(self, env, capsys, text):
        """A farm file with a missing or mistyped setting exits 1 with one
        JSONL error line, before anything is served."""
        farm_path = env.tmp / "farm.json"
        farm_path.write_text(text)
        code = main(["mock-dns", "--config", env.config, "--farm", str(farm_path),
                     "--duration", "0.05"])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        errors = [doc for doc in map(json.loads, err.splitlines()) if doc["level"] == "error"]
        assert len(errors) == 1 and "bad farm file" in errors[0]["msg"]


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _ = run(capsys, "ingest", "--config", str(tmp_path / "absent.json"))
        assert code == 1

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _ = run(capsys, "analyze", "--config", str(path))
        assert code == 1

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "SUBCOMMAND" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.json"])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ingest"])
        assert exc.value.code == 1

    def test_unknown_report_format(self, env, capsys):
        code, _ = run(capsys, "analyze", "--config", env.config, "--formats", "xml")
        assert code == 1

    def test_nothing_to_ingest(self, env, capsys):
        cfg = write_variant(env, lambda doc: doc.update({"input": {}}),
                            "config-noinput.json")
        code, _ = run(capsys, "ingest", "--config", cfg)
        assert code == 1

    def test_missing_campaign(self, env, capsys):
        def drop_campaign(doc):
            del doc["campaign"]
        cfg = write_variant(env, drop_campaign, "config-nocamp.json")
        code, _ = run(capsys, "ingest", "--config", cfg)
        assert code == 1

    @pytest.mark.parametrize("via", ["config", "flag"])
    @pytest.mark.parametrize("campaign", ["../x", "a/b", "a\0b", "a\\b", ".x", ""], ids=repr)
    def test_bad_campaign_id_is_refused_before_any_write(self, env, capsys, campaign, via):
        # the id names the corpus and manifest files, so one that leaves
        # manifests/ or is no filename must stop the scan before it stores
        corpus = env.tmp / "corpus.txt"
        corpus.write_text("d0.example\n")
        if via == "config":
            config = write_variant(env, lambda doc: doc.update(campaign=campaign), "bad.json")
            argv = ["dns-scan", "--config", config]
        else:
            argv = ["dns-scan", "--config", env.config, "--campaign", campaign]
        before = set(env.tmp.rglob("*"))
        assert main([*argv, "--corpus", str(corpus)]) == 1
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert len(lines) == 1 and lines[0]["msg"].startswith("config error: bad campaign id")
        assert not (env.tmp / "repo" / "records.jsonl").exists()
        manifests = env.tmp / "repo" / "manifests"
        assert [path for path in set(env.tmp.rglob("*")) - before
                if path.is_file() and manifests not in path.parents] == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestLogging:
    def test_log_stream_follows_current_stderr(self, tmp_path):
        import io
        from contextlib import redirect_stderr

        absent = str(tmp_path / "absent.json")
        streams = [io.StringIO(), io.StringIO()]
        for stream in streams:
            with redirect_stderr(stream):
                assert main(["ingest", "--config", absent]) == 1
            assert "config error" in stream.getvalue()
            stream.close()
        current = io.StringIO()
        with redirect_stderr(current):
            admal.log("warning", "after the swap")
        assert "after the swap" in current.getvalue()
        assert "Logging error" not in current.getvalue()

    def test_asyncio_record_during_dns_scan_is_one_log_line(self, env, capsys):
        # in a fresh process asyncio loads logging only once the scan starts;
        # a record on its logger must still leave as one JSONL line, never
        # as the plain text of logging's last-resort handler
        assert run(capsys, "ingest", "--config", env.config)[0] == 0
        script = "\n".join([
            "import sys, admal.cli, admal.dnsbroker as broker",
            "assert 'logging' not in sys.modules",
            "classify, said = broker.classify, []",
            "def noisy(*args):",
            "    if not said:",
            "        import logging",
            "        logging.getLogger('asyncio').warning('noise from the loop')",
            "        said.append(True)",
            "    return classify(*args)",
            "broker.classify = noisy",
            "sys.exit(admal.cli.main(sys.argv[1:]))",
        ])
        src = os.path.dirname(os.path.dirname(admal.__file__))
        done = subprocess.run([sys.executable, "-c", script, "dns-scan", "--config", env.config],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        noise = [line for line in done.stderr.splitlines() if "noise from the loop" in line]
        assert len(noise) == 1
        doc = json.loads(noise[0])
        assert list(doc) == ["ts", "level", "logger", "msg"]
        assert (doc["level"], doc["logger"], doc["msg"]) == (
            "warning", "asyncio", "noise from the loop")
