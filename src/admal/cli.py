"""Batch front end for the pipeline.

Subcommands mirror the pipeline stages: ingest a corpus, scan it against
filtered DNS providers, fetch threat-intel reports, classify domains
against ad filter lists, and analyze the stored verdicts into a report.
Every stage is resumable; `analyze` never touches the network.

Exit codes: 0 success, 1 usage or config problem, 2 runtime failure.
Logs are JSONL on stderr; data goes to stdout or files.
"""

import argparse
import contextlib
import json
import os
import sys
import time

from . import __version__, ingest, log, show_library_logs
from .config import (
    TI_FIXTURE,
    TI_LIVE,
    ConfigError,
    PipelineConfig,
    campaign_id,
    load_config,
)
from .keydir import NO_REPORT, open_aside
from .repository import (
    KIND_AD,
    KIND_TI,
    RecordSchemaError,
    Repository,
    StorageError,
    VerdictRecord,
    utc_now_rfc3339,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

TI_PROVIDER_ID = "ti"
REUSE_BATCH = 1000  # records per upsert_many of a bulk writer: TI reuse, ads-classify --store
ADLIST_PROVIDER_ID = "adlists"
_encode = json.JSONEncoder(separators=(",", ":")).encode


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means runtime here
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _campaign_id(args, cfg: PipelineConfig, required: bool = True) -> str | None:
    # load_config has checked cfg.campaign
    campaign = cfg.campaign if args.campaign is None else campaign_id(args.campaign)
    if campaign is None and required:
        raise ConfigError("no campaign id: pass --campaign or set 'campaign' in config")
    return campaign


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _text_file(path: str, what: str):
    """``path`` open as UTF-8 text.  A file that cannot be read, or is not
    UTF-8, ends the command as a ConfigError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                yield fh
            except UnicodeDecodeError as exc:
                # the decoder failed in exc.object, the bytes that end where
                # the buffer stands; a pipe cannot tell where that is
                where = (f"invalid byte at offset {fh.buffer.tell() - len(exc.object) + exc.start}"
                         if fh.seekable() else exc.reason)
                raise ConfigError(f"{what} {path} is not UTF-8: {where}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _read_corpus(path: str) -> tuple[list[str], int]:
    """The corpus file's domains, normalized as ingest normalizes hosts, each
    kept once in first-seen order, and how many lines were rejected."""
    domains: dict[str, None] = {}
    rejected = 0
    with _text_file(path, "corpus") as fh:
        for line in fh:
            host = line.strip()
            if not host or line.startswith("#"):
                continue
            if not ingest.is_canonical(host):
                try:
                    host = ingest.normalize_hostname(host)
                except ingest.IngestError as exc:
                    rejected += 1
                    log("warning", f"corpus line rejected: {exc}")
                    continue
            domains[host] = None
    return list(domains), rejected


def _build_matcher(cfg: PipelineConfig, list_files):
    if not list_files:
        return None, []
    missing = [p for p in list_files if not os.path.exists(p)]
    if missing:
        raise ConfigError(f"list files not found: {', '.join(missing)}")
    from .adlists import load_lists  # kept out of admal.cli's import: only list users pay
    try:
        return load_lists(
            list_files,
            cfg.list_format_hint,
            subdomain_matching=cfg.subdomain_matching,
        )
    except ValueError as exc:  # a list that is not UTF-8
        raise ConfigError(str(exc)) from None


def cmd_ingest(args, cfg: PipelineConfig) -> int:
    url_list = args.url_list or cfg.input_url_list
    capture = args.capture or cfg.input_capture
    if not url_list and not capture:
        raise ConfigError("nothing to ingest: set input.url_list or input.capture")
    campaign = _campaign_id(args, cfg)

    # the URL list streams through in blocks: only distinct hosts are held
    corpus = ingest.Corpus()
    records = rejected_lines = 0
    if url_list:
        with _text_file(url_list, "url list") as fh:
            for block in ingest.line_blocks(fh):
                hosts, rejected = ingest.parse_url_list(block)
                ingest.dedupe(hosts, corpus)
                records += len(hosts)
                rejected_lines += rejected
    if capture:
        with _text_file(capture, "capture") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"capture {capture} is not valid JSON: {exc}") from exc
        try:
            urls = ingest.parse_capture(doc)
        except ingest.SchemaError as exc:
            raise ConfigError(f"capture {capture}: {exc}") from None
        ingest.dedupe([ingest.url_host(url) or "" for url in urls], corpus)
        records += len(urls)

    domains = corpus.domains
    if cfg.collapse_registrable:
        if not cfg.psl_file:
            raise ConfigError("input.collapse_registrable needs input.psl_file")
        with _text_file(cfg.psl_file, "psl file") as fh:
            try:
                psl = ingest.PublicSuffixList.from_text(fh.read())
            except ingest.IngestError as exc:  # a rule that is no domain name
                raise ConfigError(f"psl file {cfg.psl_file}: {exc}") from None
        # the first FQDN of each registrable name came first in the input
        domains = dict.fromkeys(map(psl.registrable, domains))

    os.makedirs(cfg.repository, exist_ok=True)
    corpus_path = cfg.corpus_path(campaign)
    with open_aside(corpus_path) as fh:
        fh.write("\n".join(domains))
        if domains:
            fh.write("\n")
    log("info", f"ingested {records} records into {len(domains)} domains")
    _emit({"campaign": campaign, "corpus": corpus_path, "records": records,
           "domains": len(domains), "rejected_lines": rejected_lines,
           "rejected_domains": sum(corpus.rejects.values())})
    return EXIT_OK


def cmd_dns_scan(args, cfg: PipelineConfig) -> int:
    campaign = _campaign_id(args, cfg)
    corpus_path = args.corpus or cfg.corpus_path(campaign)
    domains, rejected = _read_corpus(corpus_path)
    if not domains:
        raise ConfigError(f"corpus {corpus_path} is empty")
    from .dnsbroker import run_campaign  # only the scan loads the scan engine

    with Repository(cfg.repository) as repo:
        summary = run_campaign(domains, cfg.resolvers, cfg.limits, repo, campaign)
    _emit(
        {
            "campaign": campaign,
            "domains": summary.domains,
            "providers": summary.providers,
            "written": summary.written,
            "skipped_existing": summary.skipped_existing,
            "inconclusive": summary.inconclusive,
            "rejected_domains": rejected,
        }
    )
    return EXIT_OK


def _ti_provider(cfg: PipelineConfig, ticlient):
    if cfg.ti_mode == TI_FIXTURE:
        if not os.path.exists(cfg.ti_fixture):
            raise ConfigError(f"ti fixture not found: {cfg.ti_fixture}")
        try:
            return ticlient.FixtureTiProvider(cfg.ti_fixture)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if cfg.ti_mode == TI_LIVE:
        return ticlient.LiveTiProvider(cfg.ti_base_url, **cfg.ti_options,
                                       requests_per_minute=cfg.ti_requests_per_minute)
    raise ConfigError("ti.mode is 'off'; nothing to fetch")


def cmd_ti_fetch(args, cfg: PipelineConfig) -> int:
    from . import ticlient  # only ti-fetch loads the TI client

    try:
        return _fetch_reports(args, cfg, ticlient)
    except ticlient.AuthError as exc:
        log("error", f"auth error: {exc}")
        return EXIT_RUNTIME


def _fetch_reports(args, cfg: PipelineConfig, ticlient) -> int:
    campaign = _campaign_id(args, cfg)
    corpus_path = args.corpus or cfg.corpus_path(campaign)
    domains, rejected = _read_corpus(corpus_path)
    provider = _ti_provider(cfg, ticlient)
    fetched = no_report = unfetched = remote_requests = 0
    with Repository(cfg.repository) as repo:
        def missing(among):
            held = repo.held(campaign, KIND_TI, among, [TI_PROVIDER_ID])[TI_PROVIDER_ID]
            return [domain for domain, stored in zip(among, held) if not stored]

        todo = missing(domains)
        # a report another campaign holds is copied as stored, not asked for again
        batch = []
        for record in repo.latest_elsewhere(campaign, TI_PROVIDER_ID, KIND_TI, todo):
            batch.append(record._replace(campaign_id=campaign, recorded_at=utc_now_rfc3339()))
            fetched += 1
            no_report += record.payload["status"] == NO_REPORT
            if len(batch) == REUSE_BATCH:
                repo.upsert_many(batch)
                batch = []
        repo.upsert_many(batch)
        for domain in missing(todo):
            try:
                result = provider.lookup(domain)
            except (ticlient.TransportError, ticlient.PayloadError) as exc:
                unfetched += 1
                log("warning", f"unfetched {domain}: {exc}")
                continue
            remote_requests += 1
            if not result.fetched_at:
                stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                result = result._replace(fetched_at=stamp)
            repo.upsert(
                VerdictRecord(
                    domain=domain,
                    provider_id=TI_PROVIDER_ID,
                    campaign_id=campaign,
                    kind=KIND_TI,
                    payload=ticlient.report_to_payload(result),
                    recorded_at=utc_now_rfc3339(),
                )
            )
            fetched += 1
            no_report += isinstance(result, ticlient.NoReport)
    _emit(
        {
            "campaign": campaign,
            "fetched": fetched,
            "no_report": no_report,
            "unfetched": unfetched,
            "skipped_existing": len(domains) - len(todo),
            "remote_requests": remote_requests,
            "rejected_domains": rejected,
        }
    )
    return EXIT_OK if unfetched == 0 else EXIT_RUNTIME


def cmd_ads_classify(args, cfg: PipelineConfig) -> int:
    list_files = args.lists or cfg.list_files
    if not list_files:
        raise ConfigError("no filter lists: pass --lists or set lists.files")
    matcher, rejects = _build_matcher(cfg, list_files)

    campaign = _campaign_id(args, cfg, required=False)
    domains_path = args.domains or (campaign and cfg.corpus_path(campaign))
    if not domains_path:
        raise ConfigError("no domains file: pass --domains or configure a campaign")
    domains, _rejected = _read_corpus(domains_path)

    if args.store and not campaign:
        raise ConfigError("--store needs a campaign id")
    out_file = open_aside(args.out) if args.out else contextlib.nullcontext(sys.stdout)
    with out_file as out, \
            Repository(cfg.repository) if args.store else contextlib.nullcontext() as repo:
        # a campaign's stored classification is its first: a held pair is not stored again
        held = (repo.held(campaign, KIND_AD, domains, [ADLIST_PROVIDER_ID])[ADLIST_PROVIDER_ID]
                if repo is not None else b"\1" * len(domains))
        batch = []
        for domain, stored in zip(domains, held):
            entry = matcher.match(domain)
            doc = {
                "domain": domain,
                "is_ad": entry is not None,
                "matched_entry": entry.pattern if entry else None,
                "source_list": entry.source_list if entry else None,
            }
            out.write(_encode(doc) + "\n")
            if not stored:
                batch.append(VerdictRecord(domain, ADLIST_PROVIDER_ID, campaign, KIND_AD, doc,
                                           utc_now_rfc3339()))
                if len(batch) == REUSE_BATCH:
                    repo.upsert_many(batch)
                    batch = []
        if repo is not None:
            repo.upsert_many(batch)  # a kill loses at most one batch, which a rerun redoes
    log("info", f"classified {len(domains)} domains against {matcher.entry_count} entries"
        f" ({len(rejects)} rejects across lists)")
    return EXIT_OK


def cmd_analyze(args, cfg: PipelineConfig) -> int:
    campaign = _campaign_id(args, cfg)
    out_dir = args.out or os.path.join(cfg.repository, f"report-{campaign}")
    formats = args.formats.split(",") if args.formats else cfg.formats
    unknown = set(formats) - {"json", "csv", "plotdata"}
    if unknown:
        raise ConfigError(f"unknown formats: {', '.join(sorted(unknown))}")
    matcher, _rejects = _build_matcher(cfg, cfg.list_files)
    from . import analytics  # kept out of admal.cli's import, as adlists is
    with Repository(cfg.repository) as repo:
        try:
            report = analytics.build_report(
                repo,
                campaign,
                matcher,
                corpus_size=cfg.corpus_size,
                ti_figure_base=cfg.ti_figure_base,
                agreement_denominator=cfg.agreement_denominator,
                config_digest=cfg.analysis_digest(),
            )
        except analytics.UnknownCampaign as exc:
            log("error", f"no records for campaign {exc}")
            return EXIT_RUNTIME
        written = analytics.emit_report(report, out_dir, formats)
    _emit({"campaign": campaign, "out": out_dir, "files": sorted(written)})
    return EXIT_OK


def cmd_run_all(args, cfg: PipelineConfig) -> int:
    for step in (cmd_ingest, cmd_dns_scan, cmd_ti_fetch, cmd_analyze):
        if step is cmd_ti_fetch and cfg.ti_mode not in (TI_FIXTURE, TI_LIVE):
            log("info", "ti.mode=off; skipping report fetch")
            continue
        code = step(args, cfg)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def cmd_mock_dns(args, cfg: PipelineConfig) -> int:
    farm_path = args.farm or cfg.mock_farm
    if not farm_path:
        raise ConfigError("no farm file: pass --farm or set 'mock_farm' in config")
    if not os.path.exists(farm_path):
        raise ConfigError(f"farm file not found: {farm_path}")
    from . import mockdns  # the test farm: no pipeline command compiles it
    try:
        farm = mockdns.load_farm_config(farm_path)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad farm file {farm_path}: {exc}") from None
    with farm:
        _emit(farm.manifest())
        sys.stdout.flush()
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            log("info", "farm stopping")
    return EXIT_OK


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config JSON")
    common.add_argument("--campaign", help="campaign id (overrides config)")
    common.add_argument("--verbose", action="store_true", help="log library debug lines too")

    parser = _Parser(prog="admal", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("ingest", parents=[common],
                       help="parse inputs into a deduplicated domain corpus")
    p.add_argument("--url-list", help="newline-delimited URL file")
    p.add_argument("--capture", help="JSON capture file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("dns-scan", parents=[common],
                       help="query the corpus against the configured resolvers")
    p.add_argument("--corpus", help="domain file (default: the ingested corpus)")
    p.set_defaults(func=cmd_dns_scan)

    p = sub.add_parser("ti-fetch", parents=[common],
                       help="fetch threat-intel reports for the corpus")
    p.add_argument("--corpus", help="domain file (default: the ingested corpus)")
    p.set_defaults(func=cmd_ti_fetch)

    p = sub.add_parser("ads-classify", parents=[common],
                       help="classify domains against ad filter lists")
    p.add_argument("--lists", nargs="+", help="filter list files")
    p.add_argument("--domains", help="domain file to classify")
    p.add_argument("--out", help="JSONL output file (default stdout)")
    p.add_argument("--store", action="store_true",
                   help="also record classifications in the repository")
    p.set_defaults(func=cmd_ads_classify)

    p = sub.add_parser("analyze", parents=[common],
                       help="compute the report from stored verdicts (offline)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--formats", help="comma-separated: json,csv,plotdata")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run-all", parents=[common],
                       help="ingest, dns-scan, ti-fetch, analyze in sequence")
    p.add_argument("--url-list", help="newline-delimited URL file")
    p.add_argument("--capture", help="JSON capture file")
    p.add_argument("--corpus", help="domain file (default: the ingested corpus)")
    p.add_argument("--out", help="report output directory")
    p.add_argument("--formats", help="comma-separated: json,csv,plotdata")
    p.set_defaults(func=cmd_run_all)

    p = sub.add_parser("mock-dns", parents=[common],
                       help="serve a deterministic mock resolver farm")
    p.add_argument("--farm", help="farm config JSON")
    p.add_argument("--duration", type=float, help="seconds to serve (default: forever)")
    p.set_defaults(func=cmd_mock_dns)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    show_library_logs(getattr(args, "verbose", False))
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except ConfigError as exc:
        log("error", f"config error: {exc}")
        return EXIT_USAGE
    except (StorageError, RecordSchemaError) as exc:
        log("error", f"storage error: {exc}")
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        log("error", "interrupted; rerun the same command to resume")
        return EXIT_RUNTIME
    except OSError as exc:
        log("error", f"io error: {exc}")
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())
