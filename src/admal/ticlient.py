"""Fetch per-domain threat-intel reports and reduce them to partner tallies.

A report counts how many scan partners called the domain harmless,
suspicious or malicious, how many had no verdict (undetected) and how many
timed out.  ``analytics`` defines the agreement ratio over these tallies:
the flagging partners over those that expressed an opinion by default
(``config.OPINIONS``), or over all partners (``config.ALL_PARTNERS``).

A tally enters the program only as an int: a fixture line or live response
holding ``1.9``, ``true`` or ``"2"`` is refused, never rounded, by
``keydir.check_report``, the rule the repository applies to a stored report
too.  Fetched reports are kept in the repository log alone: ``ti-fetch``
copies those another campaign already holds without this module and asks a
provider only for the rest, so each domain is asked for once per repository.
A fixture is read unthrottled; ``LiveTiProvider`` paces every HTTP request it
sends, retries included.

Of the commands, only ``ti-fetch`` imports this module.  It imports
``ingest`` and ``keydir``, and ``requests`` only when a live provider is
made.
"""

import json
import os
import time
from typing import NamedTuple

from . import library_logs
from .ingest import is_canonical, normalize_hostname
from .keydir import NO_REPORT, REPORT, TALLIES, check_report

DEFAULT_API_KEY_ENV = "ADMAL_TI_API_KEY"


class TiError(Exception):
    pass


class AuthError(TiError):
    """The service rejected the API key (401/403)."""


class TransportError(TiError):
    """Could not get a usable answer; safe to retry later."""


class PayloadError(TiError):
    """Got a 2xx response whose body does not match the configured paths."""


class _TiReport(NamedTuple):
    domain: str
    harmless: int
    undetected: int
    suspicious: int
    malicious: int
    timeout: int
    partner_verdicts: dict | None = None
    fetched_at: str = ""


class TiReport(_TiReport):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_report(self[1:6], self.partner_verdicts)
        return self

    @property
    def opinions(self) -> int:
        return self.harmless + self.suspicious + self.malicious

    @property
    def partners(self) -> int:
        return self.opinions + self.undetected + self.timeout


class NoReport(NamedTuple):
    """The service has never analyzed this domain (a definitive 404)."""

    domain: str
    fetched_at: str = ""


def report_to_payload(result: "TiReport | NoReport") -> dict:
    if isinstance(result, NoReport):
        return {"status": NO_REPORT, "fetched_at": result.fetched_at}
    payload = {"status": REPORT, **dict(zip(TALLIES, result[1:6])), "fetched_at": result.fetched_at}
    if result.partner_verdicts is not None:
        payload["partners"] = result.partner_verdicts
    return payload


class FixtureTiProvider:
    """Serve reports from a JSONL file; domains absent from the file get
    NoReport.  Line shape: {"domain": ..., "harmless": n, ...}, each tally an
    int, 0 when absent.  Each line's domain is normalized as corpus domains
    are, so that a case, trailing-dot or IDN spelling of a corpus domain
    finds it."""

    def __init__(self, path: str):
        self.path = path
        self._reports: dict[str, TiReport] = {}
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line or line.startswith("#"):
                        continue
                    doc = json.loads(line)
                    domain = doc["domain"]
                    report = TiReport(
                        domain if is_canonical(domain) else normalize_hostname(domain),
                        *(doc.get(name, 0) for name in TALLIES), doc.get("partners"),
                        doc.get("fetched_at", ""))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise ValueError(f"{path} line {line_no}: bad report: {exc}") from None
                self._reports[report.domain] = report

    def lookup(self, domain: str) -> "TiReport | NoReport":
        return self._reports.get(domain) or NoReport(domain)

    def __len__(self) -> int:
        return len(self._reports)


def _dig(doc, path: str):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


class LiveTiProvider:
    """HTTPS lookup against a hosted intel API.

    The response shape is configurable: ``stats_path`` points at the tallies
    object, or ``partners_path`` at a per-partner result map whose
    ``category`` fields are counted instead.  Defaults fit a v3-style API.
    Every request, a retry included and sent after its backoff, waits for
    the next slot of ``requests_per_minute``.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        *,
        api_key_header: str = "x-apikey",
        url_template: str = "{base_url}/domains/{domain}",
        stats_path: str = "data.attributes.last_analysis_stats",
        partners_path: str | None = None,
        timeout_s: float = 30.0,
        retries: int = 3,
        backoff_s: float = 1.0,
        requests_per_minute: float = 4.0,
        session: "requests.Session | None" = None,
    ):
        if requests_per_minute <= 0:
            raise ValueError("requests_per_minute must be positive")
        import requests  # here, so that no other command pays for loading it

        library_logs()  # urllib3's records
        if api_key is None:
            api_key = os.environ.get(DEFAULT_API_KEY_ENV)
        if not api_key:
            raise AuthError(
                f"no API key; pass api_key or set {DEFAULT_API_KEY_ENV}"
            )
        self.base_url = base_url.rstrip("/")
        self.url_template = url_template
        self.stats_path = stats_path
        self.partners_path = partners_path
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.min_interval = 60.0 / requests_per_minute
        self._last_request = float("-inf")
        self._session = session or requests.Session()
        self._session.headers[api_key_header] = api_key

    def lookup(self, domain: str) -> "TiReport | NoReport":
        import requests

        url = self.url_template.format(base_url=self.base_url, domain=domain)
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            wait = self._last_request + self.min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()
            try:
                resp = self._session.get(url, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code == 404:
                return NoReport(domain)
            if resp.status_code in (401, 403):
                raise AuthError(f"HTTP {resp.status_code} for {domain}")
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = TransportError(f"HTTP {resp.status_code} for {domain}")
                continue
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code} for {domain}")
            return self._parse_body(domain, resp)
        raise TransportError(f"{domain}: retries exhausted ({last_error})")

    def _parse_body(self, domain: str, resp) -> TiReport:
        try:
            doc = resp.json()
        except ValueError as exc:
            raise PayloadError(f"{domain}: response is not JSON") from exc
        tallies = _dig(doc, self.stats_path)
        if tallies is None and self.partners_path:
            partner_map = _dig(doc, self.partners_path)
            if isinstance(partner_map, dict):
                tallies = dict.fromkeys(TALLIES, 0)
                for entry in partner_map.values():
                    category = entry.get("category") if isinstance(entry, dict) else None
                    if category in tallies:
                        tallies[category] += 1
        if not isinstance(tallies, dict):
            raise PayloadError(f"{domain}: no tallies at {self.stats_path!r}")
        try:
            return TiReport(domain, *(tallies.get(name, 0) for name in TALLIES))
        except ValueError as exc:
            raise PayloadError(f"{domain}: bad tally values") from exc
