"""The benchmark's three campaigns: input generators, command sequences and
output checks.

Every input is made from the seed alone; admal only ever sees the files
written here.  Generated domains carry a unique numbered label, so no corpus
domain is a suffix of another and every expected count is known exactly.
"""

import hashlib
import json
import random
import shutil
from pathlib import Path

CAMPAIGN = "bench"
_SYLLABLES = ("ka", "lo", "mi", "ne", "ra", "to", "vu", "ze", "ad", "ex", "in", "um")
_TLDS = ("com", "net", "org", "io", "de", "co.uk", "info", "xyz")
_SUBS = ("", "", "", "www.", "cdn.", "api.", "static.")
# IDN stems; a numbered ASCII suffix keeps every IDN host distinct
_IDN_STEMS = ("bücher", "пример", "例え", "straße", "café", "δοκιμή")
_TS = "2026-01-01T00:00:00.000Z"


def domain_names(rng: random.Random, n: int) -> list[str]:
    names = []
    for i in range(n):
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        names.append(f"{rng.choice(_SUBS)}{word}{i}.{rng.choice(_TLDS)}")
    return names


def sha256_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(path).iterdir())
    }


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _summary(step) -> dict:
    try:
        return json.loads(step.stdout)
    except ValueError:
        return {}


class Workload:
    """One campaign shape.  Subclasses fill in ``generate``, ``steps`` and
    ``check``; ``reset`` restores the starting state before each campaign."""

    name = ""
    why = ""

    def __init__(self, root: Path, seed: int):
        self.root = Path(root)
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.config = self.root / "config.json"
        self.repo = self.root / "repo"
        self.sizes: dict = {}
        self.farm = None

    def generate(self) -> None:
        raise NotImplementedError

    def start(self, spawn_farm) -> None:
        """Start helper processes: ``spawn_farm(argv)`` runs ``admal mock-dns``
        and returns a handle with ``manifest``, ``cpu_s()`` and ``stop()``."""

    def stop(self) -> None:
        pass

    def reset(self) -> None:
        shutil.rmtree(self.repo, ignore_errors=True)

    def steps(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, results: dict) -> list[str]:
        raise NotImplementedError

    def stage_metrics(self, results: dict) -> dict:
        raise NotImplementedError

    def failures(self, results: dict) -> tuple[int, int]:
        """(attempted, failed) operations of one campaign."""
        attempted = len(results)
        failed = sum(1 for r in results.values() if r.code != 0)
        return attempted, failed

    def admal_args(self, command: str, *extra: str) -> list[str]:
        return [command, "--config", str(self.config), *extra]

    def analyze_args(self, out: Path) -> list[str]:
        return self.admal_args("analyze", "--out", str(out), "--formats", "json,csv,plotdata")


class ScanWorkload(Workload):
    name = "scan"
    why = ("fresh dns-scan against a mock farm child process, then analyze: "
           "scan engine, wire codec and repository appends do the work")
    domains = 2000
    # provider -> (block behavior, block rate, sinkhole ip, has control)
    providers = {
        "cloudflare": ("sinkhole_a", 0.08, "0.0.0.0", False),
        "quad9": ("nxdomain", 0.10, None, True),
        "cisco": ("sinkhole_a", 0.06, "146.112.61.104", False),
    }

    def generate(self):
        self.root.mkdir(parents=True, exist_ok=True)
        corpus = domain_names(self.rng, self.domains)
        self.corpus = corpus
        self.corpus_path = self.root / "corpus.txt"
        self.corpus_path.write_text("\n".join(corpus) + "\n", encoding="utf-8")
        self.blocklists = {
            pid: {d for d in corpus if self.rng.random() < rate}
            for pid, (_, rate, _, _) in self.providers.items()
        }
        specs = [{"provider_id": "control", "listen": "127.0.0.1:0"}]
        for pid, (behavior, _, ip, _) in self.providers.items():
            spec = {
                "provider_id": pid,
                "listen": "127.0.0.1:0",
                "blocklist": sorted(self.blocklists[pid]),
                "block_behavior": behavior,
            }
            if ip:
                spec["sinkhole_ip"] = ip
            specs.append(spec)
        self.farm_path = self.root / "farm.json"
        _write_json(self.farm_path, {"seed": self.seed, "providers": specs})
        # the farm's own config only needs a repository path
        self.farm_config = self.root / "farm-config.json"
        _write_json(self.farm_config, {"repository": str(self.root / "farm-repo")})
        self.sizes = {
            "domains": len(corpus),
            "providers": len(self.providers),
            "pairs": len(corpus) * len(self.providers),
            "blocklist_sizes": {p: len(s) for p, s in self.blocklists.items()},
        }

    def start(self, spawn_farm):
        self.farm = spawn_farm(
            ["mock-dns", "--config", str(self.farm_config), "--farm", str(self.farm_path)]
        )
        addresses = {p["provider_id"]: p["address"] for p in self.farm.manifest["providers"]}
        resolvers = []
        for pid, (behavior, _, ip, has_control) in self.providers.items():
            signature = {"kind": behavior}
            if ip:
                signature["ips"] = [ip]
            profile = {
                "provider_id": pid,
                "filtered_address": addresses[pid],
                "blocked_signatures": [signature],
            }
            if has_control:
                profile["control_address"] = addresses["control"]
            resolvers.append(profile)
        _write_json(self.config, {
            "campaign": CAMPAIGN,
            "repository": str(self.repo),
            "resolvers": resolvers,
            # far above what one client core reaches; max_inflight keeps its default
            "limits": {"per_provider_qps": 1e6},
        })

    def stop(self):
        if self.farm is not None:
            self.farm.stop()
            self.farm = None

    def steps(self):
        return [
            ("dns-scan", self.admal_args("dns-scan", "--corpus", str(self.corpus_path))),
            ("analyze", self.analyze_args(self.root / "report")),
        ]

    def check(self, results):
        errors = []
        summary = _summary(results["dns-scan"])
        if summary.get("written") != self.sizes["pairs"]:
            errors.append(f"scan wrote {summary.get('written')} verdicts, "
                          f"expected {self.sizes['pairs']}")
        verdicts: dict = {}
        log = self.repo / "records.jsonl"
        for line in log.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            if doc["kind"] == "dns":
                verdicts.setdefault((doc["domain"], doc["provider"]), []).append(
                    doc["payload"]["verdict"])
        expected_pairs = {(d, p) for d in self.corpus for p in self.providers}
        if set(verdicts) != expected_pairs:
            errors.append(f"{len(expected_pairs ^ set(verdicts))} (domain, provider) "
                          "pairs missing or unexpected")
        repeated = sum(1 for v in verdicts.values() if len(v) != 1)
        if repeated:
            errors.append(f"{repeated} pairs have more than one verdict")
        inconclusive = sum(1 for v in verdicts.values() if "inconclusive" in v)
        if inconclusive:
            errors.append(f"{inconclusive} inconclusive verdicts")
        for pid, blocklist in self.blocklists.items():
            blocked = {d for (d, p), v in verdicts.items() if p == pid and "blocked" in v}
            if blocked != blocklist:
                errors.append(f"{pid}: blocked set differs from the farm blocklist "
                              f"({len(blocked ^ blocklist)} domains)")
        return errors

    def failures(self, results):
        attempted, failed = super().failures(results)
        summary = _summary(results["dns-scan"])
        inconclusive = summary.get("inconclusive") or {}
        return attempted + self.sizes["pairs"], failed + sum(inconclusive.values())

    def stage_metrics(self, results):
        scan = results["dns-scan"]
        written = _summary(scan).get("written") or 0
        return {
            "scan_verdicts_per_s": written / scan.wall,
            "scan_cpu_us_per_verdict": scan.cpu * 1e6 / max(written, 1),
            "analyze_s": results["analyze"].wall,
        }


class ResumeWorkload(Workload):
    name = "resume"
    why = ("dns-scan over a finished campaign, then analyze: repository replay "
           "and analytics do the work, the scan engine and wire codec none")
    domains = 10000
    providers = ("cloudflare", "quad9", "cisco")
    block_rates = {"cloudflare": 0.08, "quad9": 0.10, "cisco": 0.06}

    def generate(self):
        from admal.repository import KIND_DNS, KIND_TI, Repository, VerdictRecord

        rng = self.rng
        self.root.mkdir(parents=True, exist_ok=True)
        corpus = domain_names(rng, self.domains)
        (self.root / "corpus.txt").write_text("\n".join(corpus) + "\n", encoding="utf-8")
        ads = {d for d in corpus if rng.random() < 0.05}
        counts = {p: {"blocked": 0, "not_blocked": 0, "inconclusive": 0}
                  for p in self.providers}
        blocked = {p: set() for p in self.providers}
        ti = {"with_report": 0, "no_report": 0, "threat_count": 0, "ad_threat_count": 0}

        def answer(domain, ip, rcode=0):
            answers = [[domain, 1, 300, ip]] if ip else []
            return {"rcode": rcode, "answers": answers, "tc": False, "ra": True,
                    "latency_ms": rng.randint(1, 40)}

        self.repo.mkdir(parents=True, exist_ok=True)
        with Repository(self.repo) as repo:
            for domain in corpus:
                for pid in self.providers:
                    control = signature = reason = None
                    if rng.random() < self.block_rates[pid]:
                        verdict = "blocked"
                        if pid == "quad9":
                            filtered = answer(domain, None, rcode=3)
                            control = answer(domain, "203.0.113.1")
                            signature = "nxdomain"
                            if rng.random() < 0.05:
                                verdict, reason = "inconclusive", "nxdomain-on-control"
                                control, signature = answer(domain, None, rcode=3), None
                        else:
                            filtered = answer(domain, "0.0.0.0")
                            signature = "sinkhole_a:0.0.0.0"
                    else:
                        verdict, filtered = "not_blocked", answer(domain, "203.0.113.1")
                    counts[pid][verdict] += 1
                    if verdict == "blocked":
                        blocked[pid].add(domain)
                    payload = {
                        "verdict": verdict,
                        "reason": reason,
                        "evidence": {"filtered": filtered, "control": control,
                                     "matched_signature": signature},
                        "queried_at": _TS,
                    }
                    repo.upsert(VerdictRecord(domain, pid, CAMPAIGN, KIND_DNS, payload, _TS))
                if rng.random() < 0.15:
                    payload = {"status": "no_report", "fetched_at": _TS}
                    ti["no_report"] += 1
                else:
                    tallies = {k: rng.randint(0, 60) for k in ("harmless", "undetected")}
                    flagged = rng.random() < 0.2
                    tallies["suspicious"] = rng.randint(0, 3) if flagged else 0
                    tallies["malicious"] = rng.randint(1, 8) if flagged else 0
                    tallies["timeout"] = rng.randint(0, 2)
                    payload = {"status": "report", **tallies, "fetched_at": _TS}
                    ti["with_report"] += 1
                    ti["threat_count"] += flagged
                    ti["ad_threat_count"] += flagged and domain in ads
                repo.upsert(VerdictRecord(domain, "ti", CAMPAIGN, KIND_TI, payload, _TS))
            repo.write_manifest(CAMPAIGN, {
                "started": _TS, "finished": _TS, "providers": list(self.providers),
                "domains": len(corpus), "inconclusive": {
                    p: counts[p]["inconclusive"] for p in self.providers},
                "interrupted": False,
            })

        lines = ["! generated ad list", "##.banner"]
        for i, domain in enumerate(sorted(ads)):
            lines.append(("0.0.0.0 {}", "||{}^", "{}")[i % 3].format(domain))
        lines += [f"ads{i}.fill-ads.example" for i in range(1000)]
        self.ad_list = self.root / "ads.txt"
        self.ad_list.write_text("\n".join(lines) + "\n", encoding="utf-8")

        a, b, c = (blocked[p] for p in self.providers)
        self.expected = {
            "corpus_size": len(corpus),
            "providers": {p: {**counts[p], "ad_blocked": len(blocked[p] & ads)}
                          for p in self.providers},
            "venn": {"a_only": len(a - b - c), "b_only": len(b - a - c),
                     "c_only": len(c - a - b), "ab": len((a & b) - c),
                     "ac": len((a & c) - b), "bc": len((b & c) - a),
                     "abc": len(a & b & c)},
            "ti": ti,
        }
        # every pair is stored, so these endpoints are never contacted
        resolvers = [{"provider_id": p, "filtered_address": "127.0.0.1:9",
                      "blocked_signatures": [{"kind": "nxdomain"}]} for p in self.providers]
        _write_json(self.config, {
            "campaign": CAMPAIGN,
            "repository": str(self.repo),
            "resolvers": resolvers,
            "lists": {"files": [str(self.ad_list)]},
        })
        records = len(corpus) * (len(self.providers) + 1)
        self.sizes = {"domains": len(corpus), "records": records,
                      "log_bytes": (self.repo / "records.jsonl").stat().st_size,
                      "ad_list_lines": len(lines)}

    def reset(self):
        pass  # every command leaves the stored campaign as it found it

    def steps(self):
        return [
            ("dns-scan", self.admal_args("dns-scan", "--corpus", str(self.root / "corpus.txt"))),
            ("analyze", self.analyze_args(self.root / "report")),
        ]

    def check(self, results):
        errors = []
        written = _summary(results["dns-scan"]).get("written")
        if written != 0:
            errors.append(f"resume wrote {written} verdicts, expected 0")
        report = json.loads((self.root / "report" / "report.json").read_text("utf-8"))
        exp = self.expected
        if report["corpus_size"] != exp["corpus_size"]:
            errors.append(f"corpus_size {report['corpus_size']} != {exp['corpus_size']}")
        for row in report["providers"]:
            want = exp["providers"][row["provider"]]
            got = {k: row[k] for k in want}
            if got != want:
                errors.append(f"{row['provider']}: counts {got} != {want}")
        got_venn = {k: report["venn"][k] for k in exp["venn"]}
        if got_venn != exp["venn"]:
            errors.append(f"venn {got_venn} != {exp['venn']}")
        got_ti = {k: report["ti"][k] for k in exp["ti"]}
        if got_ti != exp["ti"]:
            errors.append(f"ti {got_ti} != {exp['ti']}")
        return errors

    def stage_metrics(self, results):
        return {"resume_s": results["dns-scan"].wall, "analyze_s": results["analyze"].wall}


class OfflineWorkload(Workload):
    name = "offline"
    why = ("ingest, ads-classify --store and ti-fetch from a fixture: ingest, "
           "adlists and ticlient do the work through the repository, no DNS")
    hosts = 12000
    lines_per_host = 3
    list_lines = 30000

    def generate(self):
        rng = self.rng
        self.root.mkdir(parents=True, exist_ok=True)
        n_idn = self.hosts * 2 // 100
        n_ip = self.hosts // 100
        ascii_hosts = domain_names(rng, self.hosts - n_idn - n_ip)
        idn_hosts = [f"{rng.choice(_IDN_STEMS)}{i}.{rng.choice(_TLDS)}" for i in range(n_idn)]
        ip_hosts = [f"10.{i // 250 % 250}.{i % 250}.{rng.randint(1, 254)}" if i % 2
                    else f"[2001:db8::{i:x}]" for i in range(n_ip)]
        hosts = ascii_hosts + idn_hosts + ip_hosts

        urls = []
        for _ in range(self.hosts * self.lines_per_host):
            host = rng.choice(hosts)
            if rng.random() < 0.1:  # case and port variants of the same host
                host = host.upper() if host.isascii() else host
                host += f":{rng.choice((80, 443, 8080))}"
            scheme = rng.choice(("http", "https", "HTTPS"))
            urls.append(f"{scheme}://{host}/p{rng.randint(0, 999)}?q={rng.randint(0, 9)}")
        # every host appears at least once, so the corpus size is exact
        urls += [f"https://{h}/" for h in hosts]
        rng.shuffle(urls)
        junk = ["not a url", "ftp://files.example/x", "//no-scheme.example/", "mailto:x@y"]
        for _ in range(len(urls) // 100):
            urls.insert(rng.randrange(len(urls)), rng.choice(junk))
        self.url_list = self.root / "urls.txt"
        self.url_list.write_text("\n".join(urls) + "\n", encoding="utf-8")

        ads = [h for h in ascii_hosts if rng.random() < 0.08]
        filler_count = self.list_lines - len(ads)
        lines = []
        for i in range(filler_count):
            kind = i % 10
            if kind == 0:
                lines.append(f"##.banner-{i}")
            elif kind == 1:
                lines.append(f"! comment {i}")
            elif kind == 2:
                lines.append(f"||track{i}.fill-ads.example^$third-party")
            elif kind in (3, 4):
                lines.append(f"0.0.0.0 ads{i}.fill-ads.example")
            elif kind in (5, 6):
                lines.append(f"||pix{i}.fill-ads.example^")
            else:
                lines.append(f"cdn{i}.fill-ads.example")
        for i, host in enumerate(ads):
            entry = ("0.0.0.0 {}", "||{}^", "{}")[i % 3].format(host)
            lines.insert(rng.randrange(len(lines) + 1), entry)
        self.ad_list = self.root / "ads.txt"
        self.ad_list.write_text("\n".join(lines) + "\n", encoding="utf-8")

        covered = set(rng.sample(ascii_hosts, int(len(ascii_hosts + idn_hosts) * 0.9)))
        fixture = []
        for domain in sorted(covered):
            flagged = rng.random() < 0.2
            fixture.append(json.dumps({
                "domain": domain,
                "harmless": rng.randint(0, 60), "undetected": rng.randint(0, 20),
                "suspicious": rng.randint(0, 2) if flagged else 0,
                "malicious": rng.randint(1, 6) if flagged else 0,
                "timeout": 0, "fetched_at": _TS,
            }))
        self.fixture = self.root / "ti-fixture.jsonl"
        self.fixture.write_text("\n".join(fixture) + "\n", encoding="utf-8")

        self.classified = self.root / "classified.jsonl"
        _write_json(self.config, {
            "campaign": CAMPAIGN,
            "repository": str(self.repo),
            "input": {"url_list": str(self.url_list)},
            "lists": {"files": [str(self.ad_list)]},
            "ti": {"mode": "fixture", "fixture": str(self.fixture),
                   "requests_per_minute": 1e9},
        })
        corpus_size = len(ascii_hosts) + len(idn_hosts)
        self.expected = {"domains": corpus_size, "ads": len(ads),
                         "no_report": corpus_size - len(covered)}
        self.sizes = {"url_lines": len(urls), "hosts": len(hosts),
                      "corpus_domains": corpus_size, "list_lines": len(lines),
                      "ti_fixture_reports": len(covered)}

    def steps(self):
        return [
            ("ingest", self.admal_args("ingest")),
            ("ads-classify", self.admal_args("ads-classify", "--store", "--out",
                                             str(self.classified))),
            ("ti-fetch", self.admal_args("ti-fetch")),
        ]

    def check(self, results):
        errors = []
        exp = self.expected
        ingested = _summary(results["ingest"]).get("domains")
        corpus = (self.repo / f"corpus-{CAMPAIGN}.txt").read_text("utf-8").split()
        if ingested != exp["domains"] or len(set(corpus)) != exp["domains"]:
            errors.append(f"corpus holds {ingested} / {len(set(corpus))} domains, "
                          f"expected {exp['domains']}")
        ads = sum(json.loads(line)["is_ad"]
                  for line in self.classified.read_text("utf-8").splitlines())
        if ads != exp["ads"]:
            errors.append(f"{ads} ad matches, expected {exp['ads']}")
        fetch = _summary(results["ti-fetch"])
        want = {"fetched": exp["domains"], "no_report": exp["no_report"], "unfetched": 0}
        got = {k: fetch.get(k) for k in want}
        if got != want:
            errors.append(f"ti-fetch {got} != {want}")
        return errors

    def failures(self, results):
        attempted, failed = super().failures(results)
        fetch = _summary(results["ti-fetch"])
        return (attempted + self.expected["domains"],
                failed + (fetch.get("unfetched") or 0))

    def stage_metrics(self, results):
        return {
            "ingest_urls_per_s": self.sizes["url_lines"] / results["ingest"].wall,
            "classify_domains_per_s": self.expected["domains"] / results["ads-classify"].wall,
            "ti_fetch_domains_per_s": self.expected["domains"] / results["ti-fetch"].wall,
        }


WORKLOADS = {w.name: w for w in (ScanWorkload, ResumeWorkload, OfflineWorkload)}
