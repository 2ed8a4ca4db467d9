"""Query corpus domains against filtered DNS endpoints and classify the
responses as blocked / not blocked / inconclusive.

Providers signal blocks differently: some answer with a sinkhole address,
some with NXDOMAIN.  NXDOMAIN is indistinguishable from a dead domain, so
a profile may name an unfiltered control endpoint; a domain only counts as
blocked when the configured signature matches the filtered answer and the
control (when queried) still resolves it.
"""

import contextvars
import logging
import math
from dataclasses import dataclass, field

from . import dnswire
from .dnsclient import DnsClient, QueryTimeout
from .dnswire import DnsResponse, MalformedMessage
from .keydir import BLOCKED, DNS_STATES, INCONCLUSIVE, NOT_BLOCKED
from .repository import KIND_DNS, Repository, VerdictRecord, utc_now_rfc3339

log = logging.getLogger(__name__)

SIG_SINKHOLE_A = "sinkhole_a"
SIG_SINKHOLE_AAAA = "sinkhole_aaaa"
SIG_NXDOMAIN = "nxdomain"
SIG_REFUSED = "refused"
SIG_ZERO_ANSWER = "zero_answer_noerror"

_SINKHOLE_KINDS = (SIG_SINKHOLE_A, SIG_SINKHOLE_AAAA)
_KINDS = (*_SINKHOLE_KINDS, SIG_NXDOMAIN, SIG_REFUSED, SIG_ZERO_ANSWER)
# the keys of a dns payload, in the order work() returns their values
_PAYLOAD_KEYS = ("verdict", "reason", "evidence", "queried_at")


@dataclass(frozen=True)
class BlockSignature:
    kind: str
    sinkhole_ips: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown block signature kind {self.kind!r}")
        if self.kind in _SINKHOLE_KINDS and not self.sinkhole_ips:
            raise ValueError(f"{self.kind} signature needs at least one IP")

    def matches(self, response: DnsResponse) -> bool:
        if self.kind == SIG_NXDOMAIN:
            return response.rcode == dnswire.RCODE_NXDOMAIN
        if self.kind == SIG_REFUSED:
            return response.rcode == dnswire.RCODE_REFUSED
        if self.kind == SIG_ZERO_ANSWER:
            return response.rcode == dnswire.RCODE_NOERROR and not response.answers
        if response.rcode != dnswire.RCODE_NOERROR:
            return False
        rtype = dnswire.TYPE_A if self.kind == SIG_SINKHOLE_A else dnswire.TYPE_AAAA
        return any(
            rr.rtype == rtype and rr.rdata in self.sinkhole_ips
            for rr in response.answers
        )

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


@dataclass(frozen=True)
class ResolverProfile:
    provider_id: str
    display_name: str
    filtered_address: tuple[str, int]
    control_address: tuple[str, int] | None = None
    transport: str = "udp+tcp"  # "udp+tcp" = UDP with TCP fallback, or "tcp"
    blocked_signatures: tuple[BlockSignature, ...] = ()
    timeout_ms: int = 3000
    retries: int = 2

    def __post_init__(self):
        if type(self.timeout_ms) is not int or self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be a positive int, got {self.timeout_ms!r}")
        if type(self.retries) is not int or self.retries < 0:
            raise ValueError(f"retries must be a nonnegative int, got {self.retries!r}")
        if self.transport not in ("udp+tcp", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")

    @classmethod
    def from_config(cls, doc: dict) -> "ResolverProfile":
        control = doc.get("control_address")
        return cls(
            provider_id=doc["provider_id"],
            display_name=doc.get("display_name", doc["provider_id"]),
            filtered_address=_parse_address(doc["filtered_address"]),
            control_address=_parse_address(control) if control else None,
            transport=doc.get("transport", "udp+tcp"),
            blocked_signatures=tuple(
                BlockSignature.from_config(s) for s in doc.get("blocked_signatures", ())
            ),
            timeout_ms=doc.get("timeout_ms", 3000),
            retries=doc.get("retries", 2),
        )


# Best-effort public profiles; endpoints and signatures are config, not code,
# and deployments should override them (notably the Cisco sinkhole IPs).
def default_profiles() -> list[ResolverProfile]:
    return [
        ResolverProfile(
            provider_id="cloudflare",
            display_name="Cloudflare Security",
            filtered_address=("1.1.1.2", 53),
            control_address=("1.1.1.1", 53),
            blocked_signatures=(
                BlockSignature(SIG_SINKHOLE_A, ("0.0.0.0",)),
                BlockSignature(SIG_SINKHOLE_AAAA, ("::",)),
            ),
        ),
        ResolverProfile(
            provider_id="quad9",
            display_name="Quad9",
            filtered_address=("9.9.9.9", 53),
            control_address=("9.9.9.10", 53),
            blocked_signatures=(BlockSignature(SIG_NXDOMAIN),),
        ),
        ResolverProfile(
            provider_id="cisco",
            display_name="Cisco OpenDNS",
            filtered_address=("208.67.222.222", 53),
            control_address=("1.1.1.1", 53),
            blocked_signatures=(
                BlockSignature(
                    SIG_SINKHOLE_A,
                    tuple(f"146.112.61.{n}" for n in range(104, 111)),
                ),
            ),
        ),
    ]


@dataclass(frozen=True)
class Classification:
    verdict: str
    reason: str | None = None
    matched_signature: str | None = None

    def __post_init__(self):
        if self.verdict == INCONCLUSIVE and not self.reason:
            raise ValueError("inconclusive verdicts need a reason")
        if self.verdict == BLOCKED and not self.matched_signature:
            raise ValueError("blocked verdicts need a matching signature")


def resolves_normally(response: DnsResponse) -> bool:
    return response.rcode == dnswire.RCODE_NOERROR and bool(response.address_answers())


def classify(
    filtered: DnsResponse,
    control: DnsResponse | None,
    profile: ResolverProfile,
) -> Classification:
    """Total, deterministic classification of a filtered response.

    ``control=None`` means no control response is available (not configured
    or not queried); transport-level failures are the runner's business.
    """
    matched = next(
        (sig for sig in profile.blocked_signatures if sig.matches(filtered)), None
    )
    if matched is not None:
        if control is None or resolves_normally(control):
            return Classification(BLOCKED, matched_signature=matched.label())
        if control.rcode == dnswire.RCODE_NXDOMAIN:
            return Classification(INCONCLUSIVE, reason="nxdomain-on-control")
        return Classification(INCONCLUSIVE, reason="control-not-resolving")

    if resolves_normally(filtered):
        return Classification(NOT_BLOCKED)

    reasons = {
        dnswire.RCODE_NXDOMAIN: "nxdomain",
        dnswire.RCODE_SERVFAIL: "servfail",
        dnswire.RCODE_REFUSED: "refused",
    }
    if filtered.rcode == dnswire.RCODE_NOERROR:
        reason = "no-address-answers"
    else:
        reason = reasons.get(filtered.rcode, f"rcode-{filtered.rcode}")
    return Classification(INCONCLUSIVE, reason=reason)


def summarize(response: DnsResponse) -> dict:
    """Evidence-sized summary of a parsed response."""
    return {
        "rcode": response.rcode,
        "answers": [
            [rr.name, rr.rtype, rr.ttl, rr.rdata] for rr in response.answers[:8]
        ],
        "tc": response.truncated,
        "ra": response.recursion_available,
        "latency_ms": response.latency_ms,
    }


@dataclass
class CampaignLimits:
    max_inflight: int = 64
    per_provider_qps: float = 20.0  # per endpoint address, control queries included

    def __post_init__(self):
        inflight, qps = self.max_inflight, self.per_provider_qps
        if type(inflight) is not int or inflight < 1:
            raise ValueError(f"max_inflight must be a positive int, got {inflight!r}")
        if type(qps) not in (int, float) or not 0 < qps < math.inf:
            raise ValueError(f"per_provider_qps must be a positive finite number, got {qps!r}")


@dataclass
class CampaignSummary:
    campaign_id: str
    domains: int
    providers: list[str]
    written: int = 0
    skipped_existing: int = 0
    inconclusive: dict = field(default_factory=dict)
    started: str = ""
    finished: str = ""
    interrupted: bool = False


# The campaign's DnsClient, for the default query_fn: the query_fn seam,
# (address, domain, qtype, profile), has no argument to carry it.
_CLIENT = contextvars.ContextVar("admal_dns_client")


async def _default_query_fn(address, domain, qtype, profile):
    return await _CLIENT.get().query(
        address, domain, qtype, timeout_ms=profile.timeout_ms,
        retries=profile.retries, transport=profile.transport,
    )


def _pending_pairs(domains, profiles, held):
    """Yield (domain, profile, encodable) for every pair not yet stored;
    ``held`` maps a provider to one stored flag per domain."""
    for domain, stored in zip(domains, zip(*(held[p.provider_id] for p in profiles))):
        if 0 in stored:
            todo = [p for p, done in zip(profiles, stored) if not done]
            encodable = _encodable(domain)
            for profile in todo:
                yield domain, profile, encodable


def run_campaign(
    domains: list[str],
    profiles: list[ResolverProfile],
    limits: CampaignLimits,
    repo: Repository,
    campaign_id: str,
    *,
    qtype: int = dnswire.TYPE_A,
    query_fn=None,
) -> CampaignSummary:
    """Emit exactly one verdict per (domain, profile) pair into the repo.

    Already-stored pairs are skipped, so an interrupted campaign resumes
    cleanly.  Network failures and names the wire format cannot carry become
    inconclusive verdicts; only storage failures abort the run.  ``query_fn``
    is a coroutine function ``(address, domain, qtype, profile)`` returning
    a DnsResponse; by default a DnsClient on the campaign's loop answers.
    """
    if not profiles:
        raise ValueError("at least one resolver profile is required")
    query_fn = query_fn or _default_query_fn

    held = repo.held(campaign_id, KIND_DNS, domains, {p.provider_id for p in profiles})
    todo = sum(len(domains) - held[p.provider_id].count(1) for p in profiles)
    summary = CampaignSummary(
        campaign_id=campaign_id,
        domains=len(domains),
        providers=[p.provider_id for p in profiles],
        skipped_existing=len(domains) * len(profiles) - todo,
    )

    prior = repo.read_manifest(campaign_id) or {}
    summary.started = prior.get("started") or utc_now_rfc3339()

    async def scan():
        import asyncio

        loop = asyncio.get_running_loop()
        interval = 1.0 / limits.per_provider_qps
        next_send: dict[tuple[str, int], float] = {}

        async def pace(address):
            # one send slot per interval and endpoint, whichever profile asks
            now = loop.time()
            due = next_send.get(address, now)
            next_send[address] = max(due, now) + interval
            if due > now:
                await asyncio.sleep(due - now)

        async def ask(address, domain, profile, control):
            """The response, or the inconclusive reason its failure maps to."""
            try:
                return await query_fn(address, domain, qtype, profile)
            except QueryTimeout:
                return "control-timeout" if control else "timeout"
            except MalformedMessage:
                return "control-malformed" if control else "malformed-response"
            except OSError:
                return "control-network-error" if control else "network-error"

        async def work(domain, profile, encodable):
            """(verdict, reason, evidence, queried_at) of one pair."""
            evidence: dict = {"filtered": None, "control": None, "matched_signature": None}
            if not encodable:
                return INCONCLUSIVE, "unencodable-name", evidence, utc_now_rfc3339()
            await pace(profile.filtered_address)
            queried_at = utc_now_rfc3339()
            filtered = await ask(profile.filtered_address, domain, profile, False)
            if isinstance(filtered, str):
                return INCONCLUSIVE, filtered, evidence, queried_at
            evidence["filtered"] = summarize(filtered)

            control = None
            if profile.control_address is not None and any(
                sig.matches(filtered) for sig in profile.blocked_signatures
            ):
                await pace(profile.control_address)
                control = await ask(profile.control_address, domain, profile, True)
                if isinstance(control, str):
                    return INCONCLUSIVE, control, evidence, queried_at
                evidence["control"] = summarize(control)

            result = classify(filtered, control, profile)
            evidence["matched_signature"] = result.matched_signature
            return result.verdict, result.reason, evidence, queried_at

        async def worker(pairs):
            # the single writer: upserts run on the loop, one at a time, and a
            # verdict lost before its flush is simply queried again on resume
            for domain, profile, encodable in pairs:
                payload = dict(zip(_PAYLOAD_KEYS, await work(domain, profile, encodable)))
                repo.upsert(VerdictRecord(domain, profile.provider_id, campaign_id,
                                          KIND_DNS, payload, utc_now_rfc3339()))
                summary.written += 1

        pairs = _pending_pairs(domains, profiles, held)
        client = DnsClient()
        _CLIENT.set(client)
        workers = [asyncio.ensure_future(worker(pairs))
                   for _ in range(min(limits.max_inflight, todo))]
        try:
            await asyncio.gather(*workers)
        finally:
            for task in workers:
                task.cancel()
            client.close()

    try:
        if todo:
            import asyncio

            asyncio.run(scan())
    except KeyboardInterrupt:
        summary.interrupted = True
        raise
    finally:
        summary.finished = utc_now_rfc3339()
        summary.inconclusive = _inconclusive_counts(repo, campaign_id, summary.providers)
        manifest = {
            "started": summary.started,
            "finished": summary.finished,
            "providers": summary.providers,
            "domains": summary.domains,
            "inconclusive": summary.inconclusive,
            "interrupted": summary.interrupted,
        }
        # a run that changed nothing but the clock leaves the manifest alone:
        # rewriting it costs an fsync and a rename
        if {**manifest, "finished": None} != {**prior, "finished": None}:
            repo.write_manifest(campaign_id, manifest)
        log.info(
            "campaign %s: %d written, %d skipped", campaign_id,
            summary.written, summary.skipped_existing,
        )
    return summary


def _encodable(domain: str) -> bool:
    try:
        dnswire.encode_name(domain)
    except ValueError:
        return False
    return True


def _inconclusive_counts(repo, campaign_id, providers) -> dict:
    """Inconclusive verdicts by provider: each given one, and any other holding one."""
    counts = dict.fromkeys(providers, 0)
    for provider_id, states, _tallies in repo.columns(campaign_id, KIND_DNS)[1]:
        if n := states.count(DNS_STATES[INCONCLUSIVE]):
            counts[provider_id] = n
    return counts
