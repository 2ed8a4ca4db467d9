"""Turn stored verdicts into the headline numbers: per-provider blocked
sets and their overlap, ad shares, threat-intel agreement statistics, and a
deterministic report with plot-ready CSV series.

The threat-intel numbers come from tally columns, by C-level passes that
name only the threat rows' domains; a stream of reports becomes columns.

Display percentages are truncated, not rounded (floor at the last shown
digit); the two modes are two decimals for shares and one decimal for
coarser threat figures.  The overlap of N blocked sets is a Counter of
per-domain provider bitmasks, whose counts are UpSet's exclusive regions
(Lex et al., IEEE TVCG 2014); the report names the regions ("ab": in a and
b but not c) and carries them only when exactly three providers report.
"""

import json
import os
from collections import Counter
from collections.abc import Collection
from fractions import Fraction
from itertools import compress
from operator import add
from typing import NamedTuple

from .adlists import AdMatcher
from .config import ALL_PARTNERS, OPINIONS
from .keydir import (BLOCKED, DNS_STATES, INCONCLUSIVE, NO_REPORT, NOT_BLOCKED, ONLY, REPORT,
                     TALLIES, TI_STATES, flags, open_aside)
from .repository import KIND_DNS, KIND_TI, Repository, StorageError

TRUNCATE2 = "truncate2"
TRUNCATE1 = "truncate1"

VENN_READING = "exclusive-regions"
_ANY_VERDICT = flags(DNS_STATES.values())


class ZeroBase(Exception):
    """Percentage asked for over an empty base."""


class EmptyInput(Exception):
    pass


class UnknownCampaign(Exception):
    pass


def percent(count: int, base: int, mode: str = TRUNCATE2) -> float:
    if base <= 0:
        raise ZeroBase(f"base {base}")
    if mode == TRUNCATE2:
        return (count * 10**4 // base) / 100
    if mode == TRUNCATE1:
        return (count * 10**3 // base) / 10
    raise ValueError(f"unknown percent mode {mode!r}")


# the report's names for the exclusive regions of three sets
VENN3_REGIONS = {0b001: "a_only", 0b010: "b_only", 0b100: "c_only",
                 0b011: "ab", 0b101: "ac", 0b110: "bc", 0b111: "abc"}


class Overlap(Counter):
    """The overlap of N sets as exclusive regions: mask -> how many elements
    lie in exactly the sets whose bits the mask sets (bit i: the i-th set)."""

    @classmethod
    def of(cls, sets) -> "Overlap":
        """One pass over the sets, each an iterable of distinct elements."""
        masks: dict = {}
        for i, elements in enumerate(sets):
            bit = 1 << i
            for element in elements:
                masks[element] = masks.get(element, 0) | bit
        return cls(masks.values())

    @property
    def union(self) -> int:
        return sum(self.values())

    def size(self, i: int) -> int:
        """How many elements the i-th set holds."""
        return sum(n for mask, n in self.items() if mask >> i & 1)

    def regions(self) -> dict:
        """The regions of three sets by their report names, empty ones included."""
        return {name: self[mask] for mask, name in VENN3_REGIONS.items()}


def venn3(a: set, b: set, c: set) -> Overlap:
    return Overlap.of((a, b, c))


def _dns_verdicts(repo: Repository, campaign_id: str):
    """From the campaign's ``dns`` columns: per provider holding a verdict,
    its count of each verdict and its blocked domains in row order, and how
    many domains hold a verdict from any provider."""
    domains, columns = repo.columns(campaign_id, KIND_DNS)
    if not columns:
        raise UnknownCampaign(campaign_id)
    counts, blocked, held = {}, {}, 0
    for provider_id, states, _tallies in columns:
        counts[provider_id] = {verdict: states.count(state)
                               for verdict, state in DNS_STATES.items()}
        blocked[provider_id] = list(compress(domains, states.translate(ONLY[DNS_STATES[BLOCKED]])))
        held |= int.from_bytes(states.translate(_ANY_VERDICT), "big")  # one bit per row
    return counts, blocked, held.bit_count()


def blocked_sets(repo: Repository, campaign_id: str) -> dict[str, set[str]]:
    """Per-provider sets of domains with a blocked verdict; inconclusive
    verdicts never enter a set."""
    return {provider_id: set(domains)
            for provider_id, domains in _dns_verdicts(repo, campaign_id)[1].items()}


class AdShare(NamedTuple):
    ad_count: int
    share_pct: float
    empty_base: bool  # blocked set was empty, share forced to 0


def ad_share(blocked: Collection[str], matcher: AdMatcher) -> AdShare:
    """The ad share of a blocked set, given as any collection of distinct domains."""
    ad_count = sum(1 for domain in blocked if matcher.is_ad(domain))
    if not blocked:
        return AdShare(0, 0.0, True)
    return AdShare(ad_count, percent(ad_count, len(blocked)), False)


class EcdfPoint(NamedTuple):
    ratio: float
    count: int
    cum_count: int
    cum_fraction: float


def ecdf(ratios) -> list[EcdfPoint]:
    """Step points of the empirical CDF; equal ratios collapse into one
    step whose count is their multiplicity."""
    return _ecdf_from_counter(Counter(Fraction(r) for r in ratios))


def _ecdf_from_counter(counter: Counter) -> list[EcdfPoint]:
    if not counter:
        raise EmptyInput("no ratios")
    if any(r < 0 or r > 1 for r in counter):
        raise ValueError("ratios must lie in [0, 1]")
    total = sum(counter.values())
    points = []
    cum = 0
    for ratio in sorted(counter):
        cum += counter[ratio]
        points.append(
            EcdfPoint(float(ratio), counter[ratio], cum, float(Fraction(cum, total)))
        )
    return points


class TiStats(NamedTuple):
    with_report: int
    no_report: int
    threat_count: int
    undefined_ratio: int
    ad_threat_count: int
    threat_share_pct: float
    figure_base: int | None
    threat_share_pct_figure: float | None
    ad_threat_share_pct: float
    denominator: str
    ecdf_points: list


def ti_stats(results, matcher: AdMatcher | None = None, *, figure_base: int | None = None,
             denominator: str = OPINIONS) -> TiStats:
    """Reduce a stream of reports / no-report markers to the threat-side
    numbers, as a column of reports and one of markers for ``ti_column_stats``."""
    from .ticlient import NoReport  # only a stream of reports needs the TI client

    results = list(results)
    reports = [r for r in results if not isinstance(r, NoReport)]
    tallies = [[getattr(r, name) for r in reports] for name in TALLIES]
    columns = [(None, bytes([TI_STATES[REPORT]]) * len(reports), tallies),
               (None, bytes([TI_STATES[NO_REPORT]]) * (len(results) - len(reports)), None)]
    return ti_column_stats([r.domain for r in reports], columns, matcher,
                           figure_base=figure_base, denominator=denominator)


def ti_column_stats(domains: list, columns, matcher: AdMatcher | None = None, *,
                    figure_base: int | None = None, denominator: str = OPINIONS) -> TiStats:
    """Reduce TI columns, as ``Repository.columns`` gives a campaign's, to
    the threat-side numbers.  The threat share uses the with-report count as
    its base; a fixed figure_base adds a second share without replacing the
    first.  Tallies are read only where the state is a report: a report
    overwritten by a no_report leaves its old tallies in the columns."""
    if denominator not in (OPINIONS, ALL_PARTNERS):
        raise ValueError(f"unknown denominator mode {denominator!r}")
    no_report = 0
    terms, threats = Counter(), []  # (flagged, base) -> reports; base 0: undefined
    for _provider, states, tallies in columns:
        no_report += states.count(TI_STATES[NO_REPORT])
        if tallies is None:
            continue
        reported = states.translate(ONLY[TI_STATES[REPORT]])
        harmless, undetected, suspicious, malicious, timeout = (
            compress(column, reported) for column in tallies)
        flagged = list(map(add, suspicious, malicious))
        base = map(add, harmless, flagged)  # the opinions
        if denominator == ALL_PARTNERS:
            base = map(add, base, map(add, undetected, timeout))
        terms.update(zip(flagged, base))
        threats += compress(compress(domains, reported), flagged)
    threat_count = len(threats)
    ad_threat_count = sum(map(matcher.is_ad, threats)) if matcher is not None else 0
    # one Fraction per distinct pair; pairs like 1/2 and 2/4 merge into one step
    ratio_counts: Counter = Counter()
    with_report = undefined_ratio = 0
    for (flagged, base), reports in terms.items():
        with_report += reports
        if base:
            ratio_counts[Fraction(flagged, base)] += reports
        else:
            undefined_ratio += reports
    return TiStats(
        with_report=with_report,
        no_report=no_report,
        threat_count=threat_count,
        undefined_ratio=undefined_ratio,
        ad_threat_count=ad_threat_count,
        threat_share_pct=percent(threat_count, with_report, TRUNCATE1) if with_report else 0.0,
        figure_base=figure_base,
        threat_share_pct_figure=(percent(threat_count, figure_base, TRUNCATE1)
                                 if figure_base else None),
        ad_threat_share_pct=percent(ad_threat_count, threat_count) if threat_count else 0.0,
        denominator=denominator,
        ecdf_points=_ecdf_from_counter(ratio_counts) if ratio_counts else [],
    )


class ProviderStats(NamedTuple):
    provider_id: str
    blocked: int
    blocked_pct: float
    not_blocked: int
    inconclusive: int
    ad_blocked: int
    ad_share_pct: float
    ad_share_empty_base: bool


class AnalysisReport(NamedTuple):
    campaign_id: str
    corpus_size: int
    providers: list
    venn: Overlap | None
    venn_order: list
    ti: TiStats | None
    provenance: dict

    def to_json_dict(self) -> dict:
        doc = {
            "campaign": self.campaign_id,
            "corpus_size": self.corpus_size,
            "providers": [
                {
                    "provider": p.provider_id,
                    "blocked": p.blocked,
                    "blocked_pct": p.blocked_pct,
                    "not_blocked": p.not_blocked,
                    "inconclusive": p.inconclusive,
                    "ad_blocked": p.ad_blocked,
                    "ad_share_pct": p.ad_share_pct,
                    "ad_share_empty_base": p.ad_share_empty_base,
                }
                for p in self.providers
            ],
            "venn": None,
            "ti": None,
            "ecdf": [],
            "provenance": self.provenance,
        }
        if self.venn is not None:
            doc["venn"] = {
                "sets": list(self.venn_order),
                **self.venn.regions(),
                "union": self.venn.union,
                "union_pct": percent(self.venn.union, self.corpus_size),
                "totals": {name: self.venn.size(i) for i, name in enumerate("abc")},
            }
        if self.ti is not None:
            doc["ti"] = {
                "with_report": self.ti.with_report,
                "no_report": self.ti.no_report,
                "threat_count": self.ti.threat_count,
                "threat_share_pct": self.ti.threat_share_pct,
                "figure_base": self.ti.figure_base,
                "threat_share_pct_figure": self.ti.threat_share_pct_figure,
                "ad_threat_count": self.ti.ad_threat_count,
                "ad_threat_share_pct": self.ti.ad_threat_share_pct,
                "undefined_ratio": self.ti.undefined_ratio,
                "denominator": self.ti.denominator,
            }
            doc["ecdf"] = [
                [pt.ratio, pt.count, pt.cum_count, pt.cum_fraction]
                for pt in self.ti.ecdf_points
            ]
        return doc


def build_report(
    repo: Repository,
    campaign_id: str,
    matcher: AdMatcher | None = None,
    *,
    corpus_size: int | None = None,
    ti_figure_base: int | None = None,
    agreement_denominator: str = OPINIONS,
    config_digest: str = "",
) -> AnalysisReport:
    """Assemble the full report from one campaign's stored records.

    Pure given a repository snapshot: no clocks, no network, so identical
    inputs produce identical reports.
    """
    counts, lists, held = _dns_verdicts(repo, campaign_id)

    manifest = repo.read_manifest(campaign_id) or {}
    listed, domains = manifest.get("providers", []), manifest.get("domains")
    if not isinstance(listed, list) or any(type(p) is not str for p in listed):
        raise StorageError(f"manifest of campaign {campaign_id}: providers is not a list of str")
    if domains is not None and (type(domains) is not int or domains <= 0):
        raise StorageError(f"manifest of campaign {campaign_id}: domains is not a positive int")
    provider_order = [p for p in dict.fromkeys(listed) if p in lists]
    provider_order += [p for p in sorted(lists) if p not in provider_order]

    if corpus_size is None:
        corpus_size = domains or held
    if corpus_size <= 0:
        raise ZeroBase("corpus size unknown or zero")

    providers = []
    for provider_id in provider_order:
        blocked = lists[provider_id]
        share = (
            ad_share(blocked, matcher) if matcher is not None else AdShare(0, 0.0, not blocked)
        )
        per = counts[provider_id]
        providers.append(
            ProviderStats(
                provider_id=provider_id,
                blocked=len(blocked),
                blocked_pct=percent(len(blocked), corpus_size),
                not_blocked=per[NOT_BLOCKED],
                inconclusive=per[INCONCLUSIVE],
                ad_blocked=share.ad_count,
                ad_share_pct=share.share_pct,
                ad_share_empty_base=share.empty_base,
            )
        )

    venn = None
    venn_order: list[str] = []
    if len(provider_order) == 3:
        venn_order = provider_order
        venn = Overlap.of(lists[p] for p in venn_order)

    by_row, columns = repo.columns(campaign_id, KIND_TI)
    ti = ti_column_stats(by_row, columns, matcher, figure_base=ti_figure_base,
                         denominator=agreement_denominator) if columns else None

    provenance = {
        "campaign_id": campaign_id,
        "list_digests": dict(sorted(matcher.source_digests.items())) if matcher else {},
        "config_digest": config_digest,
        "venn_reading": VENN_READING,
    }
    return AnalysisReport(
        campaign_id=campaign_id,
        corpus_size=corpus_size,
        providers=providers,
        venn=venn,
        venn_order=venn_order,
        ti=ti,
        provenance=provenance,
    )


def _rows_to_csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _flatten(value, f"{prefix}[{i}]")
    else:
        yield prefix, doc


def emit_report(report: AnalysisReport, out_dir: str, formats=("json", "plotdata")):
    """Write the selected artifacts; returns the paths written.

    Bytes are a pure function of the report: stable field order, no
    timestamps, LF newlines.
    """
    os.makedirs(out_dir, exist_ok=True)
    doc = report.to_json_dict()
    written = []

    def _write(name: str, text: str):
        path = os.path.join(out_dir, name)
        with open_aside(path) as fh:
            fh.write(text)
        written.append(path)

    if "json" in formats:
        _write("report.json", json.dumps(doc, indent=2) + "\n")

    if "csv" in formats:
        rows = [(key, json.dumps(value)) for key, value in _flatten(doc)]
        _write("report.csv", _rows_to_csv("key,value", rows))

    if "plotdata" in formats:
        venn_rows = []
        if report.venn is not None:
            venn_rows = list(report.venn.regions().items())
            venn_rows.append(("union", report.venn.union))
        _write("venn.csv", _rows_to_csv("region,count", venn_rows))

        share_rows = [
            (p.provider_id, p.blocked, p.blocked_pct, p.ad_blocked, p.ad_share_pct)
            for p in report.providers
        ]
        _write(
            "shares.csv",
            _rows_to_csv("provider,blocked,blocked_pct,ad_count,ad_share_pct", share_rows),
        )

        ecdf_rows = []
        if report.ti is not None:
            ecdf_rows = [(pt.ratio, pt.cum_fraction) for pt in report.ti.ecdf_points]
        _write("ecdf.csv", _rows_to_csv("ratio,cum_fraction", ecdf_rows))

    return written
