"""Spans around admal's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function or method with a wrapper
that records a span (name, start, end, parent, pair id) and restores the
originals on exit; nothing under ``src/`` is edited.  Spans of one
(domain, provider) pair share its pair id, spans stay in memory, and
``layer_metrics`` reduces them to the per-layer numbers once the run is
over.  Self time is a span's duration minus the time its children cover.

A span keeps its wall interval and the CPU time of the thread that ran it.
The scan runs many threads on one interpreter lock, so a call's wall time
there includes waiting for the lock: per-call costs (``.us``) are thread CPU
time, while percentiles (``p50``, ``p99``) are wall latency as callers see it.
"""

import contextlib
import contextvars
import importlib
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time


# Every per-layer metric of a traced run: name -> (unit, better).
LAYER_METRICS = {
    "dnsbroker.run_campaign.self_us_per_verdict": ("us", "lower"),
    "dnsbroker.query_endpoint.p50_ms": ("ms", "lower"),
    "dnsbroker.query_endpoint.p99_ms": ("ms", "lower"),
    "dnsbroker.queries": ("count", "lower"),
    "dnsbroker.control_queries": ("count", "lower"),
    "dnsbroker.timeouts": ("count", "lower"),
    "dnsbroker.verdicts_per_query": ("ratio", "higher"),
    "dnsbroker.classify.us": ("us", "lower"),
    "dnsbroker.token_wait_s": ("s", "lower"),
    "dnswire.build_query.us": ("us", "lower"),
    "dnswire.build_query.calls": ("count", "lower"),
    "dnswire.parse_response.us": ("us", "lower"),
    "dnswire.parse_response.calls": ("count", "lower"),
    "repository.upsert.p50_us": ("us", "lower"),
    "repository.upsert.p99_us": ("us", "lower"),
    "repository.upserts": ("count", "lower"),
    "repository.open_s": ("s", "lower"),
    "repository.replay_records_per_s": ("1/s", "higher"),
    "repository.rss_bytes_per_record": ("bytes", "lower"),
    "repository.log_bytes_per_record": ("bytes", "lower"),
    "repository.query.calls": ("count", "lower"),
    "repository.query_s": ("s", "lower"),
    "repository.existing_pairs_s": ("s", "lower"),
    "analytics.build_report_s": ("s", "lower"),
    "analytics.emit_report_s": ("s", "lower"),
    "analytics.repo_queries_per_report": ("count", "lower"),
    "analytics.ti_stats.reports_per_s": ("1/s", "higher"),
    "adlists.parse_list.lines_per_s": ("1/s", "higher"),
    "adlists.matcher_build_s": ("s", "lower"),
    "adlists.match.us": ("us", "lower"),
    "adlists.rejects": ("count", "lower"),
    "ingest.parse_url_list.urls_per_s": ("1/s", "higher"),
    "ingest.dedupe.urls_per_s": ("1/s", "higher"),
    "ingest.normalize_per_url": ("ratio", "lower"),
    "ticlient.fixture_load_s": ("s", "lower"),
    "ticlient.fetch.self_us": ("us", "lower"),
    "ticlient.lookups": ("count", "lower"),
    "ticlient.cache_hits": ("count", "higher"),
    "ticlient.unfetched": ("count", "lower"),
    "mockdns.cpu_s": ("s", "lower"),
    "mockdns.busy_frac": ("fraction", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace_overhead_frac": ("fraction", "lower"),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "cpu", "parent", "pair", "n", "attrs")

    def to_json(self) -> str:
        return json.dumps({
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "cpu": self.cpu,
            "parent": self.parent.id if self.parent else None,
            "pair": self.pair, "n": self.n, "attrs": self.attrs,
        })


def _log_lines(root) -> int:
    try:
        with open(f"{root}/records.jsonl", "rb") as fh:
            return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    except OSError:
        return 0


def _classify_pair(filtered, control, profile):
    questions = getattr(filtered, "questions", ())
    return (questions[0].name.rstrip("."), profile.provider_id) if questions else None


def _query_attrs(address, domain, qtype, profile):
    return {"control": address == profile.control_address}


# (module, attribute, span name, options).  Options: ``pair`` maps the call's
# arguments to a pair id, ``n`` to a work count taken before the call,
# ``attrs`` to extra fields, ``after`` maps the result to an extra count,
# ``root`` marks spans that worker threads hang their spans under, and
# ``home_only`` patches the name only in its own module.
TARGETS = (
    ("admal.dnsbroker", "run_campaign", "dnsbroker.run_campaign", {"root": True}),
    ("admal.dnsbroker", "_default_query_fn", "dnsbroker.query_endpoint",
     {"pair": lambda address, domain, qtype, profile: (domain, profile.provider_id),
      "attrs": _query_attrs}),
    ("admal.dnsbroker", "TokenBucket.acquire", "dnsbroker.token_wait", {}),
    ("admal.dnsbroker", "classify", "dnsbroker.classify", {"pair": _classify_pair}),
    ("admal.dnswire", "build_query", "dnswire.build_query", {}),
    ("admal.dnswire", "parse_response", "dnswire.parse_response", {}),
    ("admal.repository", "Repository.__init__", "repository.open",
     {"n": lambda self, root: _log_lines(root)}),
    ("admal.repository", "Repository.upsert", "repository.upsert",
     {"pair": lambda self, record: (record.domain, record.provider_id)}),
    ("admal.repository", "Repository.query", "repository.query", {}),
    ("admal.repository", "Repository.existing_pairs", "repository.existing_pairs", {}),
    ("admal.analytics", "build_report", "analytics.build_report", {}),
    ("admal.analytics", "emit_report", "analytics.emit_report", {}),
    ("admal.analytics", "ti_stats", "analytics.ti_stats",
     {"n": lambda results, *a, **k: len(results)}),
    ("admal.adlists", "parse_list", "adlists.parse_list",
     {"n": lambda text, *a, **k: text.count("\n") + 1,
      "after": lambda result: len(result.rejects)}),
    ("admal.adlists", "AdMatcher.__init__", "adlists.matcher_build", {}),
    ("admal.adlists", "AdMatcher.match", "adlists.match", {}),
    ("admal.ingest", "parse_url_list", "ingest.parse_url_list",
     {"n": lambda text: text.count("\n")}),
    ("admal.ingest", "dedupe", "ingest.dedupe",
     {"n": lambda records, *a, **k: len(records)}),
    ("admal.ingest", "normalize_hostname", "ingest.normalize_hostname", {"home_only": True}),
    ("admal.ticlient", "FixtureTiProvider.__init__", "ticlient.fixture_load", {}),
    ("admal.ticlient", "FixtureTiProvider.lookup", "ticlient.lookup", {}),
    ("admal.ticlient", "TiClient.fetch", "ticlient.fetch", {}),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("bench_span", default=None)
        self._roots: list[Span] = []

    def _open(self, name, pair, n, attrs, root):
        parent = self._current.get()
        if parent is None and self._roots and threading.current_thread() is not threading.main_thread():
            parent = self._roots[-1]  # a pool worker runs on behalf of the open root
        span = Span()
        span.id, span.name, span.parent, span.n, span.attrs = next(self._ids), name, parent, n, attrs
        span.pair = pair if pair is not None else (parent.pair if parent else None)
        self.spans.append(span)
        if root:
            self._roots.append(span)
        return span, self._current.set(span)

    def _close(self, span, token, root):
        span.cpu = thread_time() - span.cpu
        span.end = perf_counter()
        self._current.reset(token)
        if root:
            self._roots.remove(span)

    def wrap(self, fn, name, pair=None, n=None, attrs=None, after=None, root=False):
        def wrapper(*args, **kwargs):
            span, token = self._open(
                name,
                pair(*args, **kwargs) if pair else None,
                n(*args, **kwargs) if n else None,
                attrs(*args, **kwargs) if attrs else None,
                root,
            )
            span.start, span.cpu = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs = {**(span.attrs or {}), "error": type(exc).__name__}
                raise
            finally:
                self._close(span, token, root)
            if after:
                span.attrs = {**(span.attrs or {}), "after": after(result)}
            return result

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap every target that exists in the loaded code; a target the code
        no longer has is skipped and its metrics read zero."""
        undo = []
        try:
            for module_name, attr, name, opts in TARGETS:
                module = importlib.import_module(module_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, leaf, None)
                if original is None:
                    continue
                opts = dict(opts)
                home_only = opts.pop("home_only", False)
                wrapped = self.wrap(original, name, **opts)
                holders = [owner]
                if not owner_name and not home_only:
                    # also replace names imported elsewhere, e.g. cli.run_campaign
                    holders += [m for key, m in list(sys.modules.items())
                                if key.startswith("admal") and m is not module
                                and getattr(m, leaf, None) is original]
                for holder in holders:
                    undo.append((holder, leaf, original))
                    setattr(holder, leaf, wrapped)
            yield self
        finally:
            for holder, leaf, original in reversed(undo):
                setattr(holder, leaf, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(span.to_json() + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def containment_errors(spans) -> list[str]:
    bad = [s for s in spans
           if s.parent is not None and not (s.parent.start <= s.start and s.end <= s.parent.end)]
    return [f"{len(bad)} spans lie outside their parent (first: {bad[0].name})"] if bad else []


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced campaign, keyed by metric name."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent.id].append(span)

    def durations(name):
        return [s.end - s.start for s in by_name[name]]

    def mean_cpu_us(name):
        spans = by_name[name]
        return statistics.fmean(s.cpu for s in spans) * 1e6 if spans else 0.0

    def quantile(name, q):
        d = durations(name)
        if len(d) < 2:
            return d[0] if d else 0.0
        return statistics.quantiles(d, n=100, method="inclusive")[q - 1]

    def total(name):
        return sum(durations(name))

    def rate(name):
        busy = total(name)
        return sum(s.n or 0 for s in by_name[name]) / busy if busy else 0.0

    def descendants(span, names):
        found, stack = [], list(children[span.id])
        while stack:
            s = stack.pop()
            if s.name in names:
                found.append(s)
            stack.extend(children[s.id])
        return found

    def self_time(span, names):
        inner = descendants(span, names)
        return (span.end - span.start) - _covered((s.start, s.end) for s in inner)

    def has_error(span, kind):
        return (span.attrs or {}).get("error") == kind

    queries = by_name["dnsbroker.query_endpoint"]
    campaigns = by_name["dnsbroker.run_campaign"]
    verdicts = sum(1 for s in by_name["repository.upsert"]
                   if s.parent is not None and s.parent.name == "dnsbroker.run_campaign")
    # engine time: run_campaign wall time minus the CPU time its wire, classify
    # and storage calls used; the rest is the pool, futures, sockets and waits
    work = {"dnswire.build_query", "dnswire.parse_response", "dnsbroker.classify",
            "repository.upsert", "repository.query", "repository.existing_pairs"}
    engine_s = sum((s.end - s.start) - sum(d.cpu for d in descendants(s, work))
                   for s in campaigns)
    opens = [s for s in by_name["repository.open"] if s.n]
    open_busy = sum(s.end - s.start for s in opens)
    reports = by_name["analytics.build_report"]
    report_queries = sum(len(descendants(s, {"repository.query"})) for s in reports)
    fetches = by_name["ticlient.fetch"]
    looked_up = sum(1 for s in fetches if descendants(s, {"ticlient.lookup"}))
    dedupe_urls = sum(s.n or 0 for s in by_name["ingest.dedupe"])

    return {
        "dnsbroker.run_campaign.self_us_per_verdict": engine_s * 1e6 / verdicts if verdicts else 0.0,
        "dnsbroker.query_endpoint.p50_ms": quantile("dnsbroker.query_endpoint", 50) * 1e3,
        "dnsbroker.query_endpoint.p99_ms": quantile("dnsbroker.query_endpoint", 99) * 1e3,
        "dnsbroker.queries": len(queries),
        "dnsbroker.control_queries": sum(1 for s in queries if s.attrs and s.attrs.get("control")),
        "dnsbroker.timeouts": sum(1 for s in queries if has_error(s, "QueryTimeout")),
        "dnsbroker.verdicts_per_query": verdicts / len(queries) if queries else 0.0,
        "dnsbroker.classify.us": mean_cpu_us("dnsbroker.classify"),
        "dnsbroker.token_wait_s": total("dnsbroker.token_wait"),
        "dnswire.build_query.us": mean_cpu_us("dnswire.build_query"),
        "dnswire.build_query.calls": len(by_name["dnswire.build_query"]),
        "dnswire.parse_response.us": mean_cpu_us("dnswire.parse_response"),
        "dnswire.parse_response.calls": len(by_name["dnswire.parse_response"]),
        "repository.upsert.p50_us": quantile("repository.upsert", 50) * 1e6,
        "repository.upsert.p99_us": quantile("repository.upsert", 99) * 1e6,
        "repository.upserts": len(by_name["repository.upsert"]),
        "repository.open_s": total("repository.open"),
        "repository.replay_records_per_s": sum(s.n for s in opens) / open_busy if open_busy else 0.0,
        "repository.query.calls": len(by_name["repository.query"]),
        "repository.query_s": total("repository.query"),
        "repository.existing_pairs_s": total("repository.existing_pairs"),
        "analytics.build_report_s": total("analytics.build_report"),
        "analytics.emit_report_s": total("analytics.emit_report"),
        "analytics.repo_queries_per_report": report_queries / len(reports) if reports else 0.0,
        "analytics.ti_stats.reports_per_s": rate("analytics.ti_stats"),
        "adlists.parse_list.lines_per_s": rate("adlists.parse_list"),
        "adlists.matcher_build_s": total("adlists.matcher_build"),
        "adlists.match.us": mean_cpu_us("adlists.match"),
        "adlists.rejects": sum((s.attrs or {}).get("after", 0) for s in by_name["adlists.parse_list"]),
        "ingest.parse_url_list.urls_per_s": rate("ingest.parse_url_list"),
        "ingest.dedupe.urls_per_s": rate("ingest.dedupe"),
        "ingest.normalize_per_url": (len(by_name["ingest.normalize_hostname"]) / dedupe_urls
                                     if dedupe_urls else 0.0),
        "ticlient.fixture_load_s": total("ticlient.fixture_load"),
        "ticlient.fetch.self_us": (statistics.fmean(self_time(s, {"ticlient.lookup"}) for s in fetches) * 1e6
                                   if fetches else 0.0),
        "ticlient.lookups": len(by_name["ticlient.lookup"]),
        "ticlient.cache_hits": len(fetches) - looked_up,
        "ticlient.unfetched": sum(1 for s in fetches if has_error(s, "TransportError")),
    }
