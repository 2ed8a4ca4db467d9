"""Query corpus domains against filtered DNS endpoints and classify the
responses as blocked / not blocked / inconclusive.

Providers signal blocks differently: some answer with a sinkhole address,
some with NXDOMAIN.  NXDOMAIN is indistinguishable from a dead domain, so
a profile may name an unfiltered control endpoint; a domain only counts as
blocked when the configured signature matches the filtered answer and the
control (when queried) still resolves it.
"""

from typing import NamedTuple

from . import dnswire, library_logs, log
from .config import (SIG_NXDOMAIN, SIG_REFUSED, SIG_SINKHOLE_A, SIG_ZERO_ANSWER, BlockSignature,
                     CampaignLimits, ResolverProfile)
from .dnsclient import DnsClient, QueryTimeout
from .dnswire import DnsResponse, MalformedMessage
from .keydir import BLOCKED, DNS_STATES, INCONCLUSIVE, NOT_BLOCKED
from .repository import KIND_DNS, Repository, VerdictRecord, utc_now_rfc3339

# the keys of a dns payload, in the order work() returns their values
_PAYLOAD_KEYS = ("verdict", "reason", "evidence", "queried_at")
# why a filtered response that neither matched a signature nor resolved is inconclusive
_RCODE_REASONS = {dnswire.RCODE_NOERROR: "no-address-answers", dnswire.RCODE_NXDOMAIN: "nxdomain",
                  dnswire.RCODE_SERVFAIL: "servfail", dnswire.RCODE_REFUSED: "refused"}


def matches(signature: BlockSignature, response: DnsResponse) -> bool:
    """Whether a response carries the block sign the signature describes."""
    kind = signature.kind
    if kind == SIG_NXDOMAIN:
        return response.rcode == dnswire.RCODE_NXDOMAIN
    if kind == SIG_REFUSED:
        return response.rcode == dnswire.RCODE_REFUSED
    if kind == SIG_ZERO_ANSWER:
        return response.rcode == dnswire.RCODE_NOERROR and not response.answers
    if response.rcode != dnswire.RCODE_NOERROR:
        return False
    rtype = dnswire.TYPE_A if kind == SIG_SINKHOLE_A else dnswire.TYPE_AAAA
    return any(rr.rtype == rtype and rr.rdata in signature.sinkhole_ips for rr in response.answers)


class _Classification(NamedTuple):
    verdict: str
    reason: str | None = None
    matched_signature: str | None = None


class Classification(_Classification):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.verdict == INCONCLUSIVE and not self.reason:
            raise ValueError("inconclusive verdicts need a reason")
        if self.verdict == BLOCKED and not self.matched_signature:
            raise ValueError("blocked verdicts need a matching signature")
        return self


def resolves_normally(response: DnsResponse) -> bool:
    return response.rcode == dnswire.RCODE_NOERROR and bool(response.address_answers())


def classify(filtered: DnsResponse, control: DnsResponse | None,
             profile: ResolverProfile) -> Classification:
    """Total, deterministic classification of a filtered response.

    ``control=None`` means no control response is available (not configured
    or not queried); transport-level failures are the runner's business.
    """
    matched = next((sig for sig in profile.blocked_signatures if matches(sig, filtered)), None)
    if matched is not None:
        if control is None or resolves_normally(control):
            return Classification(BLOCKED, matched_signature=matched.label())
        if control.rcode == dnswire.RCODE_NXDOMAIN:
            return Classification(INCONCLUSIVE, reason="nxdomain-on-control")
        return Classification(INCONCLUSIVE, reason="control-not-resolving")

    if resolves_normally(filtered):
        return Classification(NOT_BLOCKED)

    rcode = filtered.rcode
    return Classification(INCONCLUSIVE, reason=_RCODE_REASONS.get(rcode, f"rcode-{rcode}"))


def summarize(response: DnsResponse) -> dict:
    """Evidence-sized summary of a parsed response."""
    return {
        "rcode": response.rcode,
        "answers": [list(rr) for rr in response.answers[:8]],  # [name, rtype, ttl, rdata]
        "tc": response.truncated,
        "ra": response.recursion_available,
        "latency_ms": response.latency_ms,
    }


class CampaignSummary:
    """What ``run_campaign`` did, filled in as it runs."""

    __slots__ = ("campaign_id", "domains", "providers", "written", "skipped_existing",
                 "inconclusive", "started", "finished", "interrupted")

    def __init__(self, campaign_id: str, domains: int, providers: list[str], *,
                 skipped_existing: int = 0):
        self.campaign_id, self.domains, self.providers = campaign_id, domains, providers
        self.written, self.skipped_existing = 0, skipped_existing
        self.inconclusive: dict = {}
        self.started = self.finished = ""
        self.interrupted = False


def _pending_pairs(domains, profiles, held):
    """Yield (domain, profile, qname) for every pair not yet stored, where
    qname is the domain's wire name, encoded once for all its providers, or
    None for a name the wire format cannot carry; ``held`` maps a provider
    to one stored flag per domain."""
    for domain, stored in zip(domains, zip(*(held[p.provider_id] for p in profiles))):
        if 0 in stored:
            todo = [p for p, done in zip(profiles, stored) if not done]
            qname = _wire_name(domain)
            for profile in todo:
                yield domain, profile, qname


def run_campaign(domains: list[str], profiles: list[ResolverProfile], limits: CampaignLimits,
                 repo: Repository, campaign_id: str, *, qtype: int = dnswire.TYPE_A,
                 client=None) -> CampaignSummary:
    """Emit exactly one verdict per (domain, profile) pair into the repo.

    Already-stored pairs are skipped, so an interrupted campaign resumes
    cleanly.  Network failures and names the wire format cannot carry become
    inconclusive verdicts; only storage failures abort the run.  ``client``
    is any object with ``DnsClient.query``'s signature and a ``close()``,
    handed each query its endpoint's ``slot`` to await before every send;
    with ``None`` a DnsClient is made on the campaign's loop.  run_campaign
    closes the client it scans with when the scan ends, however it ends; a
    campaign with no pair left to query runs no scan and leaves a given
    client as it is.
    """
    if not profiles:
        raise ValueError("at least one resolver profile is required")

    held = repo.held(campaign_id, KIND_DNS, domains, {p.provider_id for p in profiles})
    todo = sum(len(domains) - held[p.provider_id].count(1) for p in profiles)
    summary = CampaignSummary(campaign_id, len(domains), [p.provider_id for p in profiles],
                              skipped_existing=len(domains) * len(profiles) - todo)

    prior = repo.read_manifest(campaign_id) or {}
    summary.started = prior.get("started") or utc_now_rfc3339()

    async def scan(client):  # asyncio is imported below, before scan runs
        if client is None:
            client = DnsClient()  # binds to the running loop
        loop = asyncio.get_running_loop()
        interval = 1.0 / limits.per_provider_qps
        batch: list[VerdictRecord] = []  # verdicts finished in this loop turn

        def schedule():
            """One endpoint's slot: each await takes the next send slot, one
            per interval whichever profile or query sends, and returns when
            it is due."""
            next_send = loop.time()

            async def slot():
                nonlocal next_send
                due, now = next_send, loop.time()
                next_send = max(due, now) + interval
                if due > now:
                    await asyncio.sleep(due - now)
            return slot

        slots = {address: schedule() for profile in profiles
                 for address in (profile.filtered_address, profile.control_address) if address}

        async def ask(address, domain, qname, profile, control):
            """The response, or the inconclusive reason its failure maps to."""
            try:
                return await client.query(
                    address, domain, qtype, timeout_ms=profile.timeout_ms,
                    retries=profile.retries, transport=profile.transport, qname=qname,
                    slot=slots[address])
            except QueryTimeout:
                return "control-timeout" if control else "timeout"
            except MalformedMessage:
                return "control-malformed" if control else "malformed-response"
            except OSError:
                return "control-network-error" if control else "network-error"

        async def work(domain, profile, qname):
            """(verdict, reason, evidence, queried_at) of one pair."""
            evidence: dict = {"filtered": None, "control": None, "matched_signature": None}
            if qname is None:
                return INCONCLUSIVE, "unencodable-name", evidence, utc_now_rfc3339()
            queried_at = utc_now_rfc3339()
            filtered = await ask(profile.filtered_address, domain, qname, profile, False)
            if isinstance(filtered, str):
                return INCONCLUSIVE, filtered, evidence, queried_at
            evidence["filtered"] = summarize(filtered)

            control = None
            if profile.control_address is not None and any(
                matches(sig, filtered) for sig in profile.blocked_signatures
            ):
                control = await ask(profile.control_address, domain, qname, profile, True)
                if isinstance(control, str):
                    return INCONCLUSIVE, control, evidence, queried_at
                evidence["control"] = summarize(control)

            result = classify(filtered, control, profile)
            evidence["matched_signature"] = result.matched_signature
            return result.verdict, result.reason, evidence, queried_at

        async def worker(pairs):
            # the single writer: the first worker to finish a verdict in a
            # loop turn yields once, then appends every verdict finished in
            # that turn in one write, so a StorageError still ends the run;
            # a verdict lost before its write is queried again on resume
            for domain, profile, qname in pairs:
                payload = dict(zip(_PAYLOAD_KEYS, await work(domain, profile, qname)))
                batch.append(VerdictRecord(domain, profile.provider_id, campaign_id,
                                           KIND_DNS, payload, utc_now_rfc3339()))
                if len(batch) == 1:
                    await asyncio.sleep(0)
                    repo.upsert_many(batch)  # no await: nothing joins the batch meanwhile
                    summary.written += len(batch)
                    batch.clear()

        pairs = _pending_pairs(domains, profiles, held)
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

            library_logs()
            asyncio.run(scan(client))
    except KeyboardInterrupt:
        summary.interrupted = True
        raise
    finally:
        summary.finished = utc_now_rfc3339()
        summary.inconclusive = _inconclusive_counts(repo, campaign_id, summary.providers)
        manifest = {"started": summary.started, "finished": summary.finished,
                    "providers": summary.providers, "domains": summary.domains,
                    "inconclusive": summary.inconclusive, "interrupted": summary.interrupted}
        # a run that changed nothing but the clock leaves the manifest alone:
        # rewriting it costs an fsync and a rename
        if {**manifest, "finished": None} != {**prior, "finished": None}:
            repo.write_manifest(campaign_id, manifest)
        log("info", f"campaign {campaign_id}: {summary.written} written, "
            f"{summary.skipped_existing} skipped", "admal.dnsbroker")
    return summary


def _wire_name(domain: str) -> bytes | None:
    try:
        return dnswire.encode_name(domain)
    except ValueError:
        return None


def _inconclusive_counts(repo, campaign_id, providers) -> dict:
    """Inconclusive verdicts by provider: each given one, and any other holding one."""
    counts = dict.fromkeys(providers, 0)
    for provider_id, states, _tallies in repo.columns(campaign_id, KIND_DNS)[1]:
        if n := states.count(DNS_STATES[INCONCLUSIVE]):
            counts[provider_id] = n
    return counts
