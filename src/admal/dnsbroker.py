"""Query corpus domains against filtered DNS endpoints and classify the
responses as blocked / not blocked / inconclusive.

Providers signal blocks differently: some answer with a sinkhole address,
some with NXDOMAIN.  NXDOMAIN is indistinguishable from a dead domain, so
a profile may name an unfiltered control endpoint; a domain only counts as
blocked when the configured signature matches the filtered answer and the
control (when queried) still resolves it.
"""

import logging
import random
import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from threading import Event, Lock

from . import dnswire
from .dnswire import DnsResponse, MalformedMessage
from .repository import KIND_DNS, Repository, VerdictRecord, utc_now_rfc3339

log = logging.getLogger(__name__)

BLOCKED = "blocked"
NOT_BLOCKED = "not_blocked"
INCONCLUSIVE = "inconclusive"

SIG_SINKHOLE_A = "sinkhole_a"
SIG_SINKHOLE_AAAA = "sinkhole_aaaa"
SIG_NXDOMAIN = "nxdomain"
SIG_REFUSED = "refused"
SIG_ZERO_ANSWER = "zero_answer_noerror"

_SINKHOLE_KINDS = (SIG_SINKHOLE_A, SIG_SINKHOLE_AAAA)


class QueryTimeout(Exception):
    """No response within the profile's timeout after all retries."""


@dataclass(frozen=True)
class BlockSignature:
    kind: str
    sinkhole_ips: tuple[str, ...] = ()

    def __post_init__(self):
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
    host, _, port = value.rpartition(":")
    return (host or value, int(port) if host else 53)


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
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
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
            timeout_ms=int(doc.get("timeout_ms", 3000)),
            retries=int(doc.get("retries", 2)),
        )

    def to_config(self) -> dict:
        doc = {
            "provider_id": self.provider_id,
            "display_name": self.display_name,
            "filtered_address": "%s:%d" % self.filtered_address,
            "transport": self.transport,
            "blocked_signatures": [s.to_config() for s in self.blocked_signatures],
            "timeout_ms": self.timeout_ms,
            "retries": self.retries,
        }
        if self.control_address:
            doc["control_address"] = "%s:%d" % self.control_address
        return doc


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


@dataclass(frozen=True)
class ProviderVerdict:
    domain: str
    provider_id: str
    verdict: str
    reason: str | None
    evidence: dict
    queried_at: str

    def to_payload(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "evidence": self.evidence,
            "queried_at": self.queried_at,
        }

    @classmethod
    def from_record(cls, record: VerdictRecord) -> "ProviderVerdict":
        payload = record.payload
        return cls(
            domain=record.domain,
            provider_id=record.provider_id,
            verdict=payload["verdict"],
            reason=payload.get("reason"),
            evidence=payload.get("evidence", {}),
            queried_at=payload.get("queried_at", record.recorded_at),
        )


def _query_udp(address, message, txid, timeout_ms) -> DnsResponse:
    deadline = time.monotonic() + timeout_ms / 1000.0
    started = time.monotonic()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.sendto(message, address)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout()
            sock.settimeout(remaining)
            data, _ = sock.recvfrom(4096)
            response = dnswire.parse_response(data)
            if response.txid == txid:
                latency = int((time.monotonic() - started) * 1000)
                return replace(response, latency_ms=latency)
            # stray datagram with a foreign id: keep waiting


def _query_tcp(address, message, txid, timeout_ms) -> DnsResponse:
    started = time.monotonic()
    with socket.create_connection(address, timeout=timeout_ms / 1000.0) as sock:
        sock.settimeout(timeout_ms / 1000.0)
        sock.sendall(struct.pack("!H", len(message)) + message)
        header = _recv_exact(sock, 2)
        (length,) = struct.unpack("!H", header)
        data = _recv_exact(sock, length)
    response = dnswire.parse_response(data)
    if response.txid != txid:
        raise MalformedMessage("TCP response id mismatch")
    latency = int((time.monotonic() - started) * 1000)
    return replace(response, latency_ms=latency)


def _recv_exact(sock, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise MalformedMessage("TCP stream closed mid-message")
        buf += chunk
    return buf


def query_endpoint(
    address: tuple[str, int],
    domain: str,
    qtype: int = dnswire.TYPE_A,
    *,
    timeout_ms: int = 3000,
    retries: int = 2,
    transport: str = "udp+tcp",
) -> DnsResponse:
    """One resolution attempt chain: UDP first, TCP on truncation, retries
    on timeout.  Raises QueryTimeout / MalformedMessage / OSError."""
    txid = random.getrandbits(16)
    message = dnswire.build_query(domain, qtype, txid)
    for _attempt in range(retries + 1):
        try:
            if transport == "tcp":
                return _query_tcp(address, message, txid, timeout_ms)
            response = _query_udp(address, message, txid, timeout_ms)
            if response.truncated:
                return _query_tcp(address, message, txid, timeout_ms)
            return response
        except socket.timeout:
            continue
    raise QueryTimeout(f"{domain} via {address[0]}:{address[1]}")


class TokenBucket:
    """Simple blocking rate limiter: ``rate`` acquisitions per second."""

    def __init__(self, rate: float, burst: float | None = None):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.capacity = burst if burst is not None else max(1.0, rate)
        self._tokens = self.capacity
        self._updated = time.monotonic()
        self._lock = Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(
                    self.capacity, self._tokens + (now - self._updated) * self.rate
                )
                self._updated = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(min(wait, 0.05))


@dataclass
class CampaignLimits:
    max_inflight: int = 64
    per_provider_qps: float = 20.0

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.per_provider_qps <= 0:
            raise ValueError("per_provider_qps must be positive")


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


def _default_query_fn(address, domain, qtype, profile):
    return query_endpoint(
        address,
        domain,
        qtype,
        timeout_ms=profile.timeout_ms,
        retries=profile.retries,
        transport=profile.transport,
    )


def run_campaign(
    domains: list[str],
    profiles: list[ResolverProfile],
    limits: CampaignLimits,
    repo: Repository,
    campaign_id: str,
    *,
    qtype: int = dnswire.TYPE_A,
    query_fn=None,
    stop_event: Event | None = None,
) -> CampaignSummary:
    """Emit exactly one verdict per (domain, profile) pair into the repo.

    Already-stored pairs are skipped, so an interrupted campaign resumes
    cleanly.  Network failures and names the wire format cannot carry become
    inconclusive verdicts; only storage failures abort the run.
    """
    if not profiles:
        raise ValueError("at least one resolver profile is required")
    query_fn = query_fn or _default_query_fn
    stop_event = stop_event or Event()

    existing = repo.existing_pairs(campaign_id, KIND_DNS)
    buckets = {p.provider_id: TokenBucket(limits.per_provider_qps) for p in profiles}
    tasks = [
        (domain, profile)
        for domain in domains
        for profile in profiles
        if (domain, profile.provider_id) not in existing
    ]
    pending = {domain for domain, _profile in tasks}
    unencodable = {domain for domain in pending if not _encodable(domain)}
    summary = CampaignSummary(
        campaign_id=campaign_id,
        domains=len(domains),
        providers=[p.provider_id for p in profiles],
        skipped_existing=len(domains) * len(profiles) - len(tasks),
    )

    prior = repo.read_manifest(campaign_id) or {}
    summary.started = prior.get("started") or utc_now_rfc3339()

    def work(domain: str, profile: ResolverProfile) -> ProviderVerdict:
        evidence: dict = {"filtered": None, "control": None, "matched_signature": None}
        if domain in unencodable:
            return ProviderVerdict(domain, profile.provider_id, INCONCLUSIVE,
                                   "unencodable-name", evidence, utc_now_rfc3339())
        bucket = buckets[profile.provider_id]
        bucket.acquire()
        queried_at = utc_now_rfc3339()
        try:
            filtered = query_fn(profile.filtered_address, domain, qtype, profile)
        except QueryTimeout:
            return ProviderVerdict(domain, profile.provider_id, INCONCLUSIVE,
                                   "timeout", evidence, queried_at)
        except MalformedMessage:
            return ProviderVerdict(domain, profile.provider_id, INCONCLUSIVE,
                                   "malformed-response", evidence, queried_at)
        except OSError:
            return ProviderVerdict(domain, profile.provider_id, INCONCLUSIVE,
                                   "network-error", evidence, queried_at)
        evidence["filtered"] = summarize(filtered)

        control = None
        needs_control = profile.control_address is not None and any(
            sig.matches(filtered) for sig in profile.blocked_signatures
        )
        if needs_control:
            bucket.acquire()
            try:
                control = query_fn(profile.control_address, domain, qtype, profile)
            except QueryTimeout:
                return ProviderVerdict(domain, profile.provider_id, INCONCLUSIVE,
                                       "control-timeout", evidence, queried_at)
            except MalformedMessage:
                return ProviderVerdict(domain, profile.provider_id, INCONCLUSIVE,
                                       "control-malformed", evidence, queried_at)
            except OSError:
                return ProviderVerdict(domain, profile.provider_id, INCONCLUSIVE,
                                       "control-network-error", evidence, queried_at)
            evidence["control"] = summarize(control)

        result = classify(filtered, control, profile)
        evidence["matched_signature"] = result.matched_signature
        return ProviderVerdict(domain, profile.provider_id, result.verdict,
                               result.reason, evidence, queried_at)

    try:
        with ThreadPoolExecutor(max_workers=limits.max_inflight) as pool:
            futures = {
                pool.submit(work, domain, profile): (domain, profile)
                for domain, profile in tasks
            }
            try:
                for future in as_completed(futures):
                    verdict = future.result()
                    repo.upsert(
                        VerdictRecord(
                            domain=verdict.domain,
                            provider_id=verdict.provider_id,
                            campaign_id=campaign_id,
                            kind=KIND_DNS,
                            payload=verdict.to_payload(),
                            recorded_at=utc_now_rfc3339(),
                        )
                    )
                    summary.written += 1
                    if stop_event.is_set():
                        summary.interrupted = True
                        pool.shutdown(wait=False, cancel_futures=True)
                        break
            except KeyboardInterrupt:
                summary.interrupted = True
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    finally:
        summary.finished = utc_now_rfc3339()
        summary.inconclusive = _inconclusive_counts(repo, campaign_id, summary.providers)
        repo.write_manifest(
            campaign_id,
            {
                "started": summary.started,
                "finished": summary.finished,
                "providers": summary.providers,
                "domains": summary.domains,
                "inconclusive": summary.inconclusive,
                "interrupted": summary.interrupted,
            },
        )
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
    counts = {provider_id: 0 for provider_id in providers}
    for _domain, provider_id, verdict in repo.summaries(campaign_id, KIND_DNS):
        if verdict == INCONCLUSIVE:
            counts[provider_id] = counts.get(provider_id, 0) + 1
    return counts
