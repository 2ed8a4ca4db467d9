import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admal.adlists import AdMatcher, FilterEntry
from admal.analytics import (
    TRUNCATE1,
    AdShare,
    EmptyInput,
    Overlap,
    UnknownCampaign,
    ZeroBase,
    ad_share,
    blocked_sets,
    build_report,
    ecdf,
    emit_report,
    open_aside,
    percent,
    ti_stats,
    venn3,
)
from admal.config import ALL_PARTNERS, OPINIONS
from admal.keydir import TALLIES
from admal.repository import KIND_AD, KIND_DNS, KIND_TI, Repository, VerdictRecord
from admal.ticlient import NoReport, TiReport

from conftest import CORPUS_SIZE, provider_sets, snapshot

TS = "2024-06-01T00:00:00.000Z"


def matcher_for(domains):
    text = "\n".join(sorted(domains))
    entries = [FilterEntry(d, False, "fixture-ads", i) for i, d in enumerate(sorted(domains), 1)]
    return AdMatcher(entries, source_digests={
        "fixture-ads": hashlib.sha256(text.encode()).hexdigest()})


class TestPercent:
    @pytest.mark.parametrize("count,expected", [
        (3_395, 0.28),
        (472, 0.03),
        (2_229, 0.18),
        (5_784, 0.47),
    ])
    def test_share_of_corpus(self, count, expected):
        assert percent(count, CORPUS_SIZE) == expected

    def test_one_decimal_mode(self):
        assert percent(94_662, 1_070_000, TRUNCATE1) == 8.8

    def test_truncates_not_rounds(self):
        # 472/1,206,803 = 0.0391%; rounding would give 0.04
        assert percent(472, CORPUS_SIZE) == 0.03
        assert percent(673, 94_662) == 0.71

    def test_ad_share_values(self):
        assert percent(72, 2_229) == 3.23
        assert percent(7, 472) == 1.48

    def test_zero_base(self):
        with pytest.raises(ZeroBase):
            percent(1, 0)
        with pytest.raises(ZeroBase):
            percent(1, -5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            percent(1, 2, "round3")

    @given(st.integers(0, 10_000), st.integers(1, 10_000))
    @settings(max_examples=300)
    def test_bounded_and_below_exact(self, count, base):
        count = min(count, base)
        value = percent(count, base)
        exact = 100 * count / base
        assert 0 <= value <= 100
        assert value <= exact + 1e-9
        assert exact - value < 0.01 + 1e-9

    @given(st.integers(1, 1000), st.integers(0, 999))
    @settings(max_examples=200)
    def test_monotone_in_count(self, base, count):
        count = min(count, base - 1)
        assert percent(count, base) <= percent(count + 1, base)


FIXTURE_REGIONS = {
    "a_only": 3_130, "b_only": 397, "c_only": 1_952,
    "ab": 28, "ac": 230, "bc": 40, "abc": 7,
}


class TestVenn3:
    def test_fixture_regions(self):
        sets = provider_sets()
        v = venn3(sets["quad9"], sets["cisco"], sets["cloudflare"])
        assert v.regions() == FIXTURE_REGIONS
        assert (v.size(0), v.size(1), v.size(2)) == (3_395, 472, 2_229)
        assert v.union == 5_784

    def test_identity(self):
        v = venn3({"x"}, {"x"}, {"x"})
        assert v.regions()["abc"] == 1
        assert v.union == 1
        assert sum(v.regions().values()) == 1

    def test_disjoint(self):
        v = venn3({"a"}, {"b"}, {"c"})
        assert v.regions() == {"a_only": 1, "b_only": 1, "c_only": 1,
                               "ab": 0, "ac": 0, "bc": 0, "abc": 0}


class TestOverlap:
    @given(st.lists(st.sets(st.integers(0, 60), max_size=40), min_size=1, max_size=5))
    @settings(max_examples=300)
    def test_matches_per_element_enumeration(self, sets):
        union = set().union(*sets)
        expected = Counter(sum(1 << i for i, s in enumerate(sets) if x in s) for x in union)
        overlap = Overlap.of(sets)
        assert overlap == expected
        assert overlap.union == len(union)
        assert [overlap.size(i) for i in range(len(sets))] == [len(s) for s in sets]
        if len(sets) == 3:
            assert overlap.regions() == {
                name: sum(1 for x in union if (x in sets[0], x in sets[1], x in sets[2]) == member)
                for name, member in [
                    ("a_only", (True, False, False)), ("b_only", (False, True, False)),
                    ("c_only", (False, False, True)), ("ab", (True, True, False)),
                    ("ac", (True, False, True)), ("bc", (False, True, True)),
                    ("abc", (True, True, True))]}


def dns_record(domain, provider, verdict, campaign="c1", reason=None):
    return VerdictRecord(domain, provider, campaign, KIND_DNS,
                         {"verdict": verdict, "reason": reason}, TS)


class TestBlockedSets:
    def test_fixture_sizes(self, blockset_repo):
        sets = blocked_sets(blockset_repo, "reference")
        assert {p: len(s) for p, s in sets.items()} == {
            "quad9": 3_395, "cisco": 472, "cloudflare": 2_229}

    def test_matches_export_scan(self, blockset_repo):
        expected: dict[str, set[str]] = {}
        for record in snapshot(blockset_repo, ["reference"]):
            expected.setdefault(record.provider_id, set())
            if record.kind == "dns" and record.payload["verdict"] == "blocked":
                expected[record.provider_id].add(record.domain)
        assert blocked_sets(blockset_repo, "reference") == expected

    def test_zero_blocked_gives_empty_sets(self, tmp_path):
        with Repository(tmp_path) as repo:
            for p in ("p1", "p2", "p3"):
                repo.upsert(dns_record("x.example", p, "not_blocked"))
            assert blocked_sets(repo, "c1") == {"p1": set(), "p2": set(), "p3": set()}

    def test_inconclusive_excluded_but_counted(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(dns_record("a.example", "p1", "blocked"))
            repo.upsert(dns_record("b.example", "p1", "inconclusive", reason="timeout"))
            repo.upsert(dns_record("c.example", "p1", "not_blocked"))
            assert blocked_sets(repo, "c1") == {"p1": {"a.example"}}
            [stats] = build_report(repo, "c1", corpus_size=3).providers
            assert (stats.blocked, stats.not_blocked, stats.inconclusive) == (1, 1, 1)

    def test_unknown_campaign(self, blockset_repo):
        with pytest.raises(UnknownCampaign):
            blocked_sets(blockset_repo, "never-ran")


class TestAdShare:
    def test_cloudflare_share(self):
        blocked = provider_sets()["cloudflare"]
        ads = {f"c{i}.blocked.example" for i in range(72)}  # c_only region
        share = ad_share(blocked, matcher_for(ads))
        assert share == AdShare(72, 3.23, False)

    def test_cisco_share(self):
        blocked = provider_sets()["cisco"]
        ads = {f"b{i}.blocked.example" for i in range(7)}
        share = ad_share(blocked, matcher_for(ads))
        assert share == AdShare(7, 1.48, False)

    def test_no_ads(self):
        share = ad_share({"clean.example"}, matcher_for({"ads.example"}))
        assert share == AdShare(0, 0.0, False)

    def test_empty_blocked_set_flagged(self):
        share = ad_share(set(), matcher_for({"ads.example"}))
        assert share == AdShare(0, 0.0, True)

    @given(st.sets(st.sampled_from([f"d{i}.example" for i in range(30)]), max_size=20))
    @settings(max_examples=100)
    def test_count_bounded_by_both_sides(self, blocked):
        ads = {f"d{i}.example" for i in range(0, 30, 3)}
        share = ad_share(blocked, matcher_for(ads))
        assert share.ad_count <= min(len(blocked), len(ads))
        assert share.ad_count == len(blocked & ads)


class TestEcdf:
    def test_two_step(self):
        points = ecdf([0, 0, 1])
        assert [(p.ratio, p.cum_fraction) for p in points] == [(0.0, 2 / 3), (1.0, 1.0)]
        assert [(p.count, p.cum_count) for p in points] == [(2, 2), (1, 3)]

    def test_duplicates_collapse(self):
        points = ecdf([Fraction(1, 2)] * 5)
        assert len(points) == 1
        assert (points[0].ratio, points[0].count, points[0].cum_fraction) == (0.5, 5, 1.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ecdf([])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ecdf([0.5, 1.5])
        with pytest.raises(ValueError):
            ecdf([-0.1])

    def test_exact_thirds(self):
        points = ecdf([Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)])
        assert points[-1].cum_fraction == 1.0
        assert points[0].cum_fraction == float(Fraction(1, 3))

    ratios = st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=20), min_size=1, max_size=60)

    @given(ratios)
    @settings(max_examples=300)
    def test_valid_cdf_and_oracle(self, values):
        points = ecdf(values)
        xs = [p.ratio for p in points]
        assert xs == sorted(set(xs))
        fractions = [p.cum_fraction for p in points]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0
        assert all(0 <= x <= 1 for x in xs)
        # naive oracle: share of inputs at or below each step
        n = len(values)
        for p in points:
            assert p.cum_count == sum(1 for v in values if float(v) <= p.ratio)
            assert p.cum_fraction == float(Fraction(p.cum_count, n))


def ti_report(domain, h=0, u=0, s=0, m=0):
    return TiReport(domain, h, u, s, m, 0)


class TestTiStats:
    def stream(self):
        results = [ti_report(f"clean{i}.example", h=10) for i in range(5)]
        results += [ti_report("mid-ad.example", h=9, s=1),
                    ti_report("mid.example", h=9, s=1)]
        results += [ti_report("worst.example", m=4)]
        results += [ti_report("mute.example", u=6)]
        results += [NoReport("gone1.example"), NoReport("gone2.example")]
        return results

    def test_counts(self):
        stats = ti_stats(self.stream(), matcher_for({"mid-ad.example"}))
        assert (stats.with_report, stats.no_report) == (9, 2)
        assert stats.threat_count == 3
        assert stats.undefined_ratio == 1
        assert stats.ad_threat_count == 1
        assert stats.threat_share_pct == 33.3  # 3 of 9, one decimal
        assert stats.ad_threat_share_pct == 33.33

    def test_ecdf_masses(self):
        stats = ti_stats(self.stream())
        by_ratio = {p.ratio: p.count for p in stats.ecdf_points}
        assert by_ratio == {0.0: 5, 0.1: 2, 1.0: 1}

    def test_zero_reports(self):
        stats = ti_stats([NoReport(f"d{i}.example") for i in range(4)])
        assert stats.with_report == 0
        assert stats.no_report == 4
        assert stats.threat_count == 0
        assert stats.threat_share_pct == 0.0
        assert stats.ecdf_points == []

    def test_figure_base_adds_second_share(self):
        stats = ti_stats(self.stream(), figure_base=30)
        assert stats.threat_share_pct == 33.3
        assert stats.threat_share_pct_figure == 10.0  # 3 of 30
        assert stats.figure_base == 30

    def test_partner_denominator(self):
        stats = ti_stats([ti_report("d.example", h=45, u=20, s=3, m=2)],
                         denominator=ALL_PARTNERS)
        assert stats.ecdf_points[0].ratio == float(Fraction(5, 70))
        assert stats.denominator == ALL_PARTNERS

    def test_no_matcher_means_no_ad_counts(self):
        stats = ti_stats(self.stream())
        assert stats.ad_threat_count == 0
        assert stats.ad_threat_share_pct == 0.0


_ti_results = st.lists(st.one_of(
    st.builds(lambda i: NoReport(f"n{i}.example"), st.integers(0, 9)),
    st.builds(lambda i, h, u, s, m, t: TiReport(f"r{i}.example", h, u, s, m, t),
              st.integers(0, 9), st.integers(0, 6), st.integers(0, 4), st.integers(0, 4),
              st.integers(0, 4), st.integers(0, 2)),
), max_size=60)


def _reference_ecdf(results, denominator):
    """ECDF points with one Fraction per report, as ti_stats once made them."""
    ratios = []
    for r in results:
        if isinstance(r, TiReport):
            base = r.opinions if denominator == "opinions" else r.partners
            if base:
                ratios.append(Fraction(r.suspicious + r.malicious, base))
    return ecdf(ratios) if ratios else []


class TestTiStatsReduction:
    @given(_ti_results, st.sampled_from(["opinions", ALL_PARTNERS]))
    @settings(max_examples=300)
    def test_matches_one_fraction_per_report(self, results, denominator):
        stats = ti_stats(results, matcher_for({"r1.example", "r2.example"}),
                         denominator=denominator)
        assert stats.ecdf_points == _reference_ecdf(results, denominator)
        assert stats.with_report + stats.no_report == len(results)
        # equal ratios with different terms (1/2, 2/4) are one step
        assert len({p.ratio for p in stats.ecdf_points}) == len(stats.ecdf_points)


_NO_REPORT = {"status": "no_report", "fetched_at": ""}


def _report(h, u, s, m, t):
    return {"status": "report", "harmless": h, "undetected": u, "suspicious": s,
            "malicious": m, "timeout": t, "fetched_at": ""}


_tally = st.integers(0, 3)
_ti_upserts = st.lists(st.tuples(
    st.sampled_from(["a.example", "b.example", "c.example"]),
    st.sampled_from(["ti", "vt"]),
    st.sampled_from(["c1", "c2"]),
    st.one_of(st.just(_NO_REPORT), st.builds(_report, _tally, _tally, _tally, _tally, _tally)),
), max_size=30)


class TestTiColumnReduction:
    # build_report reduces the repository's tally columns, which may hold a
    # report's old tallies under a later no_report; it must equal ti_stats
    # over the latest records rebuilt as reports, and one Fraction per report
    @given(_ti_upserts, st.sampled_from([OPINIONS, ALL_PARTNERS]), st.booleans(),
           st.sampled_from([None, 7]))
    @example([("a.example", "ti", "c1", _report(1, 0, 2, 0, 0)),
              ("a.example", "ti", "c1", _NO_REPORT),  # the old tallies stay in the columns
              ("b.example", "ti", "c1", _NO_REPORT),
              ("b.example", "ti", "c1", _report(0, 3, 0, 0, 1)),  # no opinion
              ("c.example", "vt", "c2", _report(2, 1, 1, 1, 0))],
             OPINIONS, True, 7)
    @settings(max_examples=150, deadline=None)
    def test_matches_stream_over_latest_records(self, tmp_path_factory, upserts, denominator,
                                                with_matcher, figure_base):
        matcher = matcher_for({"a.example", "c.example"}) if with_matcher else None
        latest = {}
        with Repository(tmp_path_factory.mktemp("ti")) as repo:
            for campaign in ("c1", "c2"):
                repo.upsert(dns_record("a.example", "p1", "blocked", campaign))
            for domain, provider, campaign, payload in upserts:
                record = VerdictRecord(domain, provider, campaign, KIND_TI, payload, TS)
                repo.upsert(record)
                latest[record.key] = record
            for campaign in ("c1", "c2"):
                reports = [TiReport(r.domain, *(r.payload[name] for name in TALLIES))
                           if r.payload["status"] == "report" else NoReport(r.domain)
                           for r in latest.values() if r.campaign_id == campaign]
                got = build_report(repo, campaign, matcher, corpus_size=3,
                                   ti_figure_base=figure_base,
                                   agreement_denominator=denominator).ti
                assert got == (ti_stats(reports, matcher, figure_base=figure_base,
                                        denominator=denominator) if reports else None)
                if reports:
                    assert got.ecdf_points == _reference_ecdf(reports, denominator)


AD_DOMAINS = (
    {f"c{i}.blocked.example" for i in range(72)}
    | {f"b{i}.blocked.example" for i in range(7)}
)


class TestReport:
    def test_fixture_report(self, blockset_repo):
        report = build_report(blockset_repo, "reference", matcher_for(AD_DOMAINS),
                              config_digest="digest123")
        assert report.corpus_size == CORPUS_SIZE
        by_id = {p.provider_id: p for p in report.providers}
        assert [p.provider_id for p in report.providers] == ["quad9", "cisco", "cloudflare"]
        assert (by_id["quad9"].blocked, by_id["quad9"].blocked_pct) == (3_395, 0.28)
        assert (by_id["cisco"].blocked, by_id["cisco"].blocked_pct) == (472, 0.03)
        assert (by_id["cloudflare"].blocked, by_id["cloudflare"].blocked_pct) == (2_229, 0.18)
        assert by_id["cloudflare"].ad_share_pct == 3.23
        assert by_id["cisco"].ad_share_pct == 1.48
        assert by_id["quad9"].ad_blocked == 0
        assert report.venn.regions()["abc"] == 7
        assert report.venn.union == 5_784
        assert report.venn_order == ["quad9", "cisco", "cloudflare"]
        assert report.ti is None
        assert report.provenance["config_digest"] == "digest123"
        assert report.provenance["venn_reading"] == "exclusive-regions"
        assert "fixture-ads" in report.provenance["list_digests"]

    def test_json_dict_shape(self, blockset_repo):
        doc = build_report(blockset_repo, "reference", matcher_for(AD_DOMAINS)).to_json_dict()
        assert list(doc) == ["campaign", "corpus_size", "providers", "venn",
                             "ti", "ecdf", "provenance"]
        assert doc["venn"]["abc"] == 7
        assert doc["venn"]["union"] == 5_784
        assert doc["venn"]["union_pct"] == 0.47
        assert doc["venn"]["sets"] == ["quad9", "cisco", "cloudflare"]

    def test_ti_section(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(dns_record("a.example", "p1", "blocked"))
            for domain, payload in [
                ("a.example", {"status": "report", "harmless": 9, "undetected": 0,
                               "suspicious": 1, "malicious": 0, "timeout": 0}),
                ("b.example", {"status": "report", "harmless": 4, "undetected": 0,
                               "suspicious": 0, "malicious": 0, "timeout": 0}),
                ("c.example", {"status": "no_report"}),
            ]:
                repo.upsert(VerdictRecord(domain, "ti", "c1", KIND_TI, payload, TS))
            report = build_report(repo, "c1", corpus_size=3)
            assert report.ti.with_report == 2
            assert report.ti.no_report == 1
            assert report.ti.threat_count == 1
            doc = report.to_json_dict()
            assert doc["ti"]["threat_count"] == 1
            assert doc["ecdf"] == [[0.0, 1, 1, 0.5], [0.1, 1, 2, 1.0]]

    def test_venn_only_for_three_providers(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(dns_record("a.example", "p1", "blocked"))
            repo.upsert(dns_record("a.example", "p2", "blocked"))
            report = build_report(repo, "c1", corpus_size=1)
            assert report.venn is None
            assert report.to_json_dict()["venn"] is None

    def test_provider_listed_twice_reports_once(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(dns_record("a.example", "p1", "blocked"))
            repo.upsert(dns_record("a.example", "p2", "blocked"))
            repo.write_manifest("c1", {"providers": ["p2", "p2", "p1"]})
            report = build_report(repo, "c1", corpus_size=1)
            assert [p.provider_id for p in report.providers] == ["p2", "p1"]
            assert report.venn is None

    def test_corpus_fallback_to_distinct_domains(self, tmp_path):
        with Repository(tmp_path) as repo:
            repo.upsert(dns_record("a.example", "p1", "blocked"))
            repo.upsert(dns_record("b.example", "p1", "not_blocked"))
            repo.upsert(dns_record("a.example", "p2", "inconclusive"))
            # rows with no DNS record are not in the corpus
            repo.upsert(VerdictRecord("t.example", "ti", "c1", KIND_TI,
                                      {"status": "no_report"}, TS))
            repo.upsert(VerdictRecord("x.example", "adlists", "c1", KIND_AD, {}, TS))
            report = build_report(repo, "c1")
            assert report.corpus_size == 2


class TestEmit:
    def emit(self, repo, out, formats=("json", "csv", "plotdata")):
        report = build_report(repo, "reference", matcher_for(AD_DOMAINS),
                              config_digest="digest123")
        return emit_report(report, str(out), formats)

    def test_deterministic_bytes(self, blockset_repo, tmp_path):
        self.emit(blockset_repo, tmp_path / "one")
        self.emit(blockset_repo, tmp_path / "two")
        for name in ("report.json", "report.csv", "venn.csv", "shares.csv", "ecdf.csv"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes(), name

    def test_rewrite_in_place(self, blockset_repo, tmp_path):
        """A second emit into the same directory replaces every file with the
        same bytes and leaves no temporary file behind."""
        names = ("report.json", "report.csv", "venn.csv", "shares.csv", "ecdf.csv")
        out = tmp_path / "out"
        self.emit(blockset_repo, out)
        first = {name: (out / name).read_bytes() for name in names}
        self.emit(blockset_repo, out)
        assert {name: (out / name).read_bytes() for name in names} == first
        assert sorted(p.name for p in out.iterdir()) == sorted(names)

    def test_open_aside_failure_keeps_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with open_aside(str(path)) as fh:
                fh.write("half")
                raise RuntimeError
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_open_aside_writes_through_non_regular_path(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old\n")
        (tmp_path / "link.json").symlink_to(target)
        with open_aside(str(tmp_path / "link.json")) as fh:
            fh.write("new\n")
        assert (tmp_path / "link.json").is_symlink()
        assert target.read_text() == "new\n"

    def test_report_json_contents(self, blockset_repo, tmp_path):
        self.emit(blockset_repo, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["venn"]["abc"] == 7
        assert doc["providers"][0]["blocked"] == 3_395

    def test_venn_csv(self, blockset_repo, tmp_path):
        self.emit(blockset_repo, tmp_path)
        lines = (tmp_path / "venn.csv").read_text().splitlines()
        assert lines[0] == "region,count"
        assert "abc,7" in lines
        assert lines[-1] == "union,5784"

    def test_shares_csv(self, blockset_repo, tmp_path):
        self.emit(blockset_repo, tmp_path)
        lines = (tmp_path / "shares.csv").read_text().splitlines()
        assert lines[0] == "provider,blocked,blocked_pct,ad_count,ad_share_pct"
        assert lines[1] == "quad9,3395,0.28,0,0.0"
        assert lines[3] == "cloudflare,2229,0.18,72,3.23"

    def test_ecdf_csv_strictly_increasing(self, tmp_path):
        with Repository(tmp_path / "repo") as repo:
            repo.upsert(dns_record("a.example", "p1", "blocked"))
            for i, h in enumerate((10, 9, 5, 0)):
                payload = {"status": "report", "harmless": h, "undetected": 0,
                           "suspicious": 10 - h, "malicious": 0, "timeout": 0}
                repo.upsert(VerdictRecord(f"d{i}.example", "ti", "c1", KIND_TI, payload, TS))
            report = build_report(repo, "c1", corpus_size=4)
            emit_report(report, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "ecdf.csv").read_text().splitlines()
        assert lines[0] == "ratio,cum_fraction"
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs)
        assert len(xs) == len(set(xs))
        assert float(lines[-1].split(",")[1]) == 1.0

    def test_json_only(self, blockset_repo, tmp_path):
        written = self.emit(blockset_repo, tmp_path, formats=("json",))
        assert [p.rsplit("/", 1)[-1] for p in written] == ["report.json"]


def build_campaign(root, providers, listed, domains=None, size=48):
    """A ``size``-domain campaign in which provider j blocks, passes or times
    out on domain i by a fixed rule, with TI reports on a third of the domains
    and no-reports on another third.  The manifest lists only the ``listed``
    providers, and gives the corpus size only when ``domains`` is set."""
    repo = Repository(root)
    names = [f"s{i:02d}.example" for i in range(size)]
    for j, provider in enumerate(providers):
        for i, domain in enumerate(names):
            r = (i * (j + 2) + j) % 7
            verdict = "blocked" if r < 3 else "inconclusive" if r == 3 else "not_blocked"
            repo.upsert(dns_record(domain, provider, verdict))
    for i, domain in enumerate(names):
        if i % 3 == 0:
            payload = {"status": "report", "harmless": i % 5, "undetected": 1,
                       "suspicious": int(i % 4 == 0), "malicious": i % 2, "timeout": 0}
        elif i % 3 == 1:
            payload = {"status": "no_report"}
        else:
            continue
        repo.upsert(VerdictRecord(domain, "ti", "c1", KIND_TI, payload, TS))
    manifest = {"providers": list(listed)}
    if domains is not None:
        manifest["domains"] = domains
    repo.write_manifest("c1", manifest)
    return repo


CAMPAIGN_ADS = {f"s{i:02d}.example" for i in (0, 3, 7, 12, 21, 30, 44)}
REPORT_NAMES = ("report.json", "report.csv", "venn.csv", "shares.csv", "ecdf.csv")

# SHA-256 of each report file as the three-set special case wrote them
# before the overlap became one mask counter; the two- and four-provider
# campaigns write "venn": null
REPORT_DIGESTS = {
    "blockset": {
        "report.json": "a49f6368a188136177740f63b4c8a2627288bc1abb1d50a6fe0a37d2f24666b8",
        "report.csv": "6ca5f2b34c23201ea3e1c89ed381258d2f2be5cd74910cca1aa0a06b78fffd50",
        "venn.csv": "b3ce8d75841077d292c8edffe3af3d3ffe8bdc6583893baf821aaac70b2ff079",
        "shares.csv": "7b1fc5b8bcb6ff847a66e8279530de65a1b29d9fb2b9a819860417297b528864",
        "ecdf.csv": "3551f05c1b70c530f59385b89e5be71675e2a4fa3a2b9aacd2e93c81495f1800",
    },
    "two-providers": {
        "report.json": "6c0862c58815936afc3461658332deaa77baacc7c018370eaca7a5c0405bcc5c",
        "report.csv": "4a95210e8b57777f1897f163c9fbc332590b6bc87b23aead118b815b344962cf",
        "venn.csv": "78f52290fb14b2b04404e12d02629dfa2a11d8d7fea021c01fdd41304f578d76",
        "shares.csv": "22c1b6c1affb5c254d7883397f88b3741b24524d8b0de25d30a861aab264bb4a",
        "ecdf.csv": "d991b211c2607c7c5aaf3fe5f59533d7805bd9302d1de55abb192344288e6fa2",
    },
    "four-providers": {
        "report.json": "75f6e3ab80be734c2b0a640135f947b70ac81cd80f44a25ce921794f367bab6a",
        "report.csv": "c7c5fcf1716f887a1139709b04bc250ec5ab0287909ee1daba272dab83b711fa",
        "venn.csv": "78f52290fb14b2b04404e12d02629dfa2a11d8d7fea021c01fdd41304f578d76",
        "shares.csv": "ef3003b0bd30aedd5defc7321bd10efcc88759bb2b1a0979b0493c69893a3b3a",
        "ecdf.csv": "d991b211c2607c7c5aaf3fe5f59533d7805bd9302d1de55abb192344288e6fa2",
    },
}


CAMPAIGNS = {  # providers, providers the manifest lists, corpus size it gives
    "two-providers": (["p2", "p1"], ["p2", "p1"], 60),
    "four-providers": (["p1", "p2", "p3", "p4"], ["p3", "p1", "p4"], None),
}


class TestReportBytes:
    def digests(self, repo, campaign, matcher, out):
        report = build_report(repo, campaign, matcher, config_digest="digest123")
        emit_report(report, str(out), ("json", "csv", "plotdata"))
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in REPORT_NAMES}

    def test_blockset_digests(self, blockset_repo, tmp_path):
        got = self.digests(blockset_repo, "reference", matcher_for(AD_DOMAINS), tmp_path)
        assert got == REPORT_DIGESTS["blockset"]

    @pytest.mark.parametrize("name", list(CAMPAIGNS))
    def test_campaign_digests(self, name, tmp_path):
        with build_campaign(tmp_path / "repo", *CAMPAIGNS[name]) as repo:
            got = self.digests(repo, "c1", matcher_for(CAMPAIGN_ADS), tmp_path / "out")
        assert got == REPORT_DIGESTS[name]
