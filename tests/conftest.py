"""Shared fixture builders for the test suite.

The blocked-set fixture mirrors the published per-provider counts: three
providers over a 1,206,803-domain corpus whose exclusive overlap regions
sum to a 5,784-domain union.  Region sizes (a=quad9, b=cisco,
c=cloudflare):

    a_only 3,130   b_only 397   c_only 1,952
    ab 28          ac 230       bc 40         abc 7

giving per-set totals 3,395 / 472 / 2,229.
"""

import pytest

from admal.repository import KIND_DNS, Repository, VerdictRecord

CORPUS_SIZE = 1_206_803

REGION_SIZES = {
    "a": 3130,
    "b": 397,
    "c": 1952,
    "ab": 28,
    "ac": 230,
    "bc": 40,
    "abc": 7,
}

PROVIDERS = ("quad9", "cisco", "cloudflare")


def region_domains() -> dict[str, set[str]]:
    return {
        code: {f"{code}{i}.blocked.example" for i in range(size)}
        for code, size in REGION_SIZES.items()
    }


def provider_sets() -> dict[str, set[str]]:
    r = region_domains()
    return {
        "quad9": r["a"] | r["ab"] | r["ac"] | r["abc"],
        "cisco": r["b"] | r["ab"] | r["bc"] | r["abc"],
        "cloudflare": r["c"] | r["ac"] | r["bc"] | r["abc"],
    }


def blocked_payload(signature: str = "sinkhole_a:0.0.0.0") -> dict:
    return {
        "verdict": "blocked",
        "reason": None,
        "evidence": {"matched_signature": signature},
        "queried_at": "2023-12-17T12:00:00.000Z",
    }


def snapshot(repo: Repository, campaigns) -> list[VerdictRecord]:
    """The latest record of every key in the campaigns, in (domain,
    provider, campaign) order."""
    return sorted((r for c in campaigns for r in repo.query(c)), key=lambda r: r.key)


def build_blockset_repo(root, campaign_id: str = "reference") -> Repository:
    """Repository holding one blocked verdict per (domain, provider) of the
    fixture sets, plus a campaign manifest carrying the corpus size."""
    repo = Repository(root)
    for provider, domains in provider_sets().items():
        for domain in sorted(domains):
            repo.upsert(
                VerdictRecord(
                    domain=domain,
                    provider_id=provider,
                    campaign_id=campaign_id,
                    kind=KIND_DNS,
                    payload=blocked_payload(),
                    recorded_at="2023-12-17T12:00:00.000Z",
                )
            )
    repo.write_manifest(
        campaign_id,
        {
            "started": "2023-12-17T00:00:00.000Z",
            "finished": "2023-12-18T00:00:00.000Z",
            "providers": list(PROVIDERS),
            "domains": CORPUS_SIZE,
            "inconclusive": {p: 0 for p in PROVIDERS},
        },
    )
    return repo


# session-scoped: tests must treat it as read-only
@pytest.fixture(scope="session")
def blockset_repo(tmp_path_factory):
    repo = build_blockset_repo(tmp_path_factory.mktemp("blockset") / "repo")
    yield repo
    repo.close()
