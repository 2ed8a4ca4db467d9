"""Pipeline that checks harvested web-request domains against filtered DNS
providers, a threat-intelligence service, and advertising filter lists, and
reports how consistent the verdicts are.

Log lines are JSONL on stderr, one object per line with the keys ``ts``,
``level``, ``logger`` and ``msg``.  admal writes its own through ``log``,
without the ``logging`` module; a library that logs (asyncio, urllib3)
loads ``logging`` itself, and ``library_logs``, called right after such an
import, routes the library's records through ``log`` too.
"""

import json
import sys
import time

__version__ = "0.1.0"

_library_level = None  # set by the CLI: the least level of a library record it shows
_handler = None  # the root logger's handler that library_logs installs


def log(level: str, msg: str, logger: str = "admal", exc: str | None = None) -> None:
    """Write one log line to ``sys.stderr`` as it is now."""
    doc = {"ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "level": level, "logger": logger, "msg": msg}
    if exc:
        doc["exc"] = exc
    stream = sys.stderr
    stream.write(json.dumps(doc, separators=(",", ":")) + "\n")
    stream.flush()


def show_library_logs(verbose: bool) -> None:
    """Show library records from INFO up, or from DEBUG up when ``verbose``,
    as log lines; a library loaded already has its records routed now."""
    global _library_level
    _library_level = 10 if verbose else 20  # logging.DEBUG, logging.INFO
    if "logging" in sys.modules:
        library_logs()


def library_logs() -> None:
    """Route the records of the libraries that log through ``log``, once
    ``show_library_logs`` has set a level; call it right after importing
    one, which has loaded ``logging``."""
    global _handler
    if _library_level is None:
        return
    import logging

    if _handler is None:
        class LogLines(logging.Handler):
            def emit(self, record) -> None:
                try:
                    exc = record.exc_info and self.formatter.formatException(record.exc_info)
                    log(record.levelname.lower(), record.getMessage(), record.name, exc)
                except Exception:
                    self.handleError(record)

        _handler = LogLines()
        _handler.setFormatter(logging.Formatter())
    root = logging.getLogger()
    root.setLevel(_library_level)
    if _handler not in root.handlers:
        root.addHandler(_handler)
