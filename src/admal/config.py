"""Load and validate the pipeline config file (JSON).

One file drives every subcommand: inputs, resolver profiles, the TI
provider, filter lists, repository location, limits, and analytics
options.  The TI API key is the single value that never lives here; it
comes from the ADMAL_TI_API_KEY environment variable.  Resolver profiles and
scan limits are defined here, so reading a config loads no scan engine,
and the agreement denominators too, so it loads no TI client.  Its value
types are NamedTuples, the checked ones with a ``__new__`` that raises
ValueError.  It imports ``hashlib``, ``json``, ``math``, ``os`` and
``typing``, and nothing of admal.
"""

import hashlib
import json
import math
import os
from typing import NamedTuple

TI_OFF = "off"
TI_FIXTURE = "fixture"
TI_LIVE = "live"

# the partners a TI agreement ratio divides by: those that expressed an
# opinion (harmless, suspicious or malicious), or all of them
OPINIONS = "opinions"
ALL_PARTNERS = "all_partners"


class ConfigError(Exception):
    """Config file missing, unparseable, or structurally invalid."""


SIG_SINKHOLE_A = "sinkhole_a"
SIG_SINKHOLE_AAAA = "sinkhole_aaaa"
SIG_NXDOMAIN = "nxdomain"
SIG_REFUSED = "refused"
SIG_ZERO_ANSWER = "zero_answer_noerror"

_SINKHOLE_KINDS = (SIG_SINKHOLE_A, SIG_SINKHOLE_AAAA)
_KINDS = (*_SINKHOLE_KINDS, SIG_NXDOMAIN, SIG_REFUSED, SIG_ZERO_ANSWER)


class _BlockSignature(NamedTuple):
    kind: str
    sinkhole_ips: tuple[str, ...] = ()


class BlockSignature(_BlockSignature):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown block signature kind {self.kind!r}")
        if self.kind in _SINKHOLE_KINDS and not self.sinkhole_ips:
            raise ValueError(f"{self.kind} signature needs at least one IP")
        return self

    def label(self) -> str:
        if self.sinkhole_ips:
            return f"{self.kind}:{','.join(self.sinkhole_ips)}"
        return self.kind

    @classmethod
    def from_config(cls, doc: dict) -> "BlockSignature":
        return cls(kind=doc["kind"], sinkhole_ips=tuple(doc.get("ips", ())))

    def to_config(self) -> dict:
        doc = {"kind": self.kind}
        if self.sinkhole_ips:
            doc["ips"] = list(self.sinkhole_ips)
        return doc


def _parse_address(value: str) -> tuple[str, int]:
    """``host``, ``host:port``, ``[v6]``, ``[v6]:port`` or a bare IPv6
    address; the port defaults to 53 and must lie within 0-65535."""
    if type(value) is not str:
        raise ValueError(f"a resolver address is a string, got {value!r}")
    host, port = value, "53"
    if value.startswith("["):
        host, bracket, rest = value[1:].partition("]")
        if not bracket or (rest and not rest.startswith(":")):
            raise ValueError(f"bad resolver address {value!r}")
        port = rest[1:] if rest else port
    elif value.count(":") == 1:
        host, _, port = value.rpartition(":")
    if not (host and port.isdecimal() and int(port) <= 65535):
        raise ValueError(f"bad resolver address {value!r}")
    return host, int(port)


def _format_address(address: tuple[str, int]) -> str:
    host, port = address
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


class _ResolverProfile(NamedTuple):
    provider_id: str
    display_name: str
    filtered_address: tuple[str, int]
    control_address: tuple[str, int] | None = None
    transport: str = "udp+tcp"  # "udp+tcp" = UDP with TCP fallback, or "tcp"
    blocked_signatures: tuple[BlockSignature, ...] = ()
    timeout_ms: int = 3000
    retries: int = 2


class ResolverProfile(_ResolverProfile):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if type(self.timeout_ms) is not int or self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be a positive int, got {self.timeout_ms!r}")
        if type(self.retries) is not int or self.retries < 0:
            raise ValueError(f"retries must be a nonnegative int, got {self.retries!r}")
        if self.transport not in ("udp+tcp", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        return self

    @classmethod
    def from_config(cls, doc: dict) -> "ResolverProfile":
        control = doc.get("control_address")
        return cls(
            provider_id=doc["provider_id"],
            display_name=doc.get("display_name", doc["provider_id"]),
            filtered_address=_parse_address(doc["filtered_address"]),
            control_address=_parse_address(control) if control else None,
            transport=doc.get("transport", "udp+tcp"), blocked_signatures=tuple(
                BlockSignature.from_config(s) for s in doc.get("blocked_signatures", ())),
            timeout_ms=doc.get("timeout_ms", 3000), retries=doc.get("retries", 2))


# Best-effort public profiles; endpoints and signatures are config, not code,
# and deployments should override them (notably the Cisco sinkhole IPs).
def default_profiles() -> list[ResolverProfile]:
    return [
        ResolverProfile("cloudflare", "Cloudflare Security", ("1.1.1.2", 53), ("1.1.1.1", 53),
                        blocked_signatures=(BlockSignature(SIG_SINKHOLE_A, ("0.0.0.0",)),
                                            BlockSignature(SIG_SINKHOLE_AAAA, ("::",)))),
        ResolverProfile("quad9", "Quad9", ("9.9.9.9", 53), ("9.9.9.10", 53),
                        blocked_signatures=(BlockSignature(SIG_NXDOMAIN),)),
        ResolverProfile("cisco", "Cisco OpenDNS", ("208.67.222.222", 53), ("1.1.1.1", 53),
                        blocked_signatures=(BlockSignature(SIG_SINKHOLE_A, tuple(
                            f"146.112.61.{n}" for n in range(104, 111))),)),
    ]


class _CampaignLimits(NamedTuple):
    max_inflight: int = 64
    per_provider_qps: float = 20.0  # per endpoint address, control queries included


class CampaignLimits(_CampaignLimits):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        inflight, qps = self
        if type(inflight) is not int or inflight < 1:
            raise ValueError(f"max_inflight must be a positive int, got {inflight!r}")
        if type(qps) not in (int, float) or not 0 < qps < math.inf:
            raise ValueError(f"per_provider_qps must be a positive finite number, got {qps!r}")
        return self


class PipelineConfig(NamedTuple):
    campaign: str | None
    repository: str
    input_url_list: str | None
    input_capture: str | None
    collapse_registrable: bool
    psl_file: str | None
    resolvers: list
    ti_mode: str
    ti_fixture: str | None
    ti_base_url: str | None
    ti_options: dict
    ti_requests_per_minute: float
    list_files: list
    list_format_hint: str
    subdomain_matching: str
    limits: CampaignLimits
    agreement_denominator: str
    ti_figure_base: int | None
    corpus_size: int | None
    formats: list
    mock_farm: str | None

    def corpus_path(self, campaign_id: str) -> str:
        return os.path.join(self.repository, f"corpus-{campaign_id}.txt")

    def analysis_digest(self) -> str:
        """Digest of everything that shapes an analysis result.

        Runtime limits (workers, QPS, timeouts) are deliberately excluded:
        they change how fast data is gathered, never what a given
        repository analyzes to.
        """
        basis = {
            "campaign": self.campaign,
            "resolvers": [p.provider_id for p in self.resolvers],
            "agreement_denominator": self.agreement_denominator,
            "ti_figure_base": self.ti_figure_base,
            "corpus_size": self.corpus_size,
            "subdomain_matching": self.subdomain_matching,
            "list_files": [os.path.basename(p) for p in self.list_files],
            "collapse_registrable": self.collapse_registrable,
        }
        canon = json.dumps(basis, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _positive(value) -> bool:
    return type(value) in (int, float) and 0 < value < math.inf


def _text(doc: dict, key: str, section: str = "") -> str | None:
    """``doc[key]`` when it is a string, None when absent or null."""
    value = doc.get(key)
    _require(value is None or type(value) is str, f"{section}{key} must be a string")
    return value


def campaign_id(campaign: str) -> str:
    """The campaign id, which names files in the repository; ConfigError for
    one that is empty, holds a ``/``, ``\\`` or NUL, or starts with ``.``."""
    _require(campaign[:1] not in ("", ".") and not {"/", "\\", "\0"} & set(campaign),
             f"bad campaign id {campaign!r}: it must be non-empty, hold no '/', '\\' or NUL"
             " and not start with '.'")
    return campaign


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "config root must be a JSON object")

    repository = doc.get("repository")
    _require(
        isinstance(repository, str) and repository != "",
        "config needs a 'repository' path",
    )

    inputs = doc.get("input", {})
    _require(isinstance(inputs, dict), "'input' must be an object")
    collapse = inputs.get("collapse_registrable", False)
    _require(type(collapse) is bool, "input.collapse_registrable must be true or false")

    resolver_docs = doc.get("resolvers")
    if resolver_docs is None:
        resolvers = default_profiles()
    else:
        _require(isinstance(resolver_docs, list), "'resolvers' must be a list")
        try:
            resolvers = [ResolverProfile.from_config(d) for d in resolver_docs]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad resolver profile: {exc}") from exc
        ids = [p.provider_id for p in resolvers]
        _require(len(ids) == len(set(ids)), "resolver provider_ids must be unique")

    ti = doc.get("ti", {})
    _require(isinstance(ti, dict), "'ti' must be an object")
    ti_mode = ti.get("mode", TI_OFF)
    _require(
        ti_mode in (TI_OFF, TI_FIXTURE, TI_LIVE),
        f"ti.mode must be one of off/fixture/live, got {ti_mode!r}",
    )
    ti_fixture = _text(ti, "fixture", "ti.")
    ti_base_url = _text(ti, "base_url", "ti.")
    if ti_mode == TI_FIXTURE:
        _require(bool(ti_fixture), "ti.mode=fixture needs ti.fixture path")
    if ti_mode == TI_LIVE:
        _require(bool(ti_base_url), "ti.mode=live needs ti.base_url")
    _require("api_key" not in ti, "API keys belong in ADMAL_TI_API_KEY, not config")
    _require("cache" not in ti, "ti.cache is not read: fetched reports are kept in the repository")
    rpm = ti.get("requests_per_minute", 4.0)
    _require(_positive(rpm), "ti.requests_per_minute must be a positive number")
    _require(_positive(ti.get("timeout_s", 30.0)), "ti.timeout_s must be a positive number")
    retries = ti.get("retries", 3)
    _require(type(retries) is int and retries >= 0, "ti.retries must be a nonnegative int")
    ti_options = {
        k: ti[k]
        for k in (
            "api_key_header",
            "url_template",
            "stats_path",
            "partners_path",
            "timeout_s",
            "retries",
        )
        if k in ti
    }

    lists = doc.get("lists", {})
    _require(isinstance(lists, dict), "'lists' must be an object")
    list_files = lists.get("files", [])
    _require(
        isinstance(list_files, list) and all(isinstance(p, str) for p in list_files),
        "lists.files must be a list of paths",
    )
    hint = lists.get("format_hint", "auto")
    _require(
        hint in ("auto", "hosts", "plain", "adblock"),
        f"bad lists.format_hint {hint!r}",
    )
    matching = lists.get("subdomain_matching", "strict")
    _require(
        matching in ("strict", "always"),
        f"bad lists.subdomain_matching {matching!r}",
    )

    limits_doc = doc.get("limits", {})
    _require(isinstance(limits_doc, dict), "'limits' must be an object")
    try:
        limits = CampaignLimits(max_inflight=limits_doc.get("max_inflight", 64),
                                per_provider_qps=limits_doc.get("per_provider_qps", 20.0))
    except ValueError as exc:
        raise ConfigError(f"limits.{exc}") from None

    analytics_doc = doc.get("analytics", {})
    _require(isinstance(analytics_doc, dict), "'analytics' must be an object")
    denominator = analytics_doc.get("agreement_denominator", OPINIONS)
    _require(
        denominator in (OPINIONS, ALL_PARTNERS),
        f"bad analytics.agreement_denominator {denominator!r}",
    )
    figure_base = analytics_doc.get("ti_figure_base")
    _require(
        figure_base is None or (type(figure_base) is int and figure_base > 0),
        "analytics.ti_figure_base must be a positive integer",
    )
    corpus_size = analytics_doc.get("corpus_size")
    _require(
        corpus_size is None or (type(corpus_size) is int and corpus_size > 0),
        "analytics.corpus_size must be a positive integer",
    )
    formats = analytics_doc.get("formats", ["json", "plotdata"])
    _require(
        isinstance(formats, list) and set(formats) <= {"json", "csv", "plotdata"},
        "analytics.formats entries must be json/csv/plotdata",
    )

    campaign = _text(doc, "campaign")
    return PipelineConfig(
        campaign=campaign if campaign is None else campaign_id(campaign),
        repository=repository,
        input_url_list=_text(inputs, "url_list", "input."),
        input_capture=_text(inputs, "capture", "input."),
        collapse_registrable=collapse,
        psl_file=_text(inputs, "psl_file", "input."),
        resolvers=resolvers,
        ti_mode=ti_mode,
        ti_fixture=ti_fixture,
        ti_base_url=ti_base_url,
        ti_options=ti_options,
        ti_requests_per_minute=float(rpm),
        list_files=list_files,
        list_format_hint=hint,
        subdomain_matching=matching,
        limits=limits,
        agreement_denominator=denominator,
        ti_figure_base=figure_base,
        corpus_size=corpus_size,
        formats=formats,
        mock_farm=_text(doc, "mock_farm"),
    )
