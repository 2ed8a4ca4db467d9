"""Offline benchmark of the admal pipeline.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads (see workloads.py): ``scan`` (fresh dns-scan against a mock farm
child process, then analyze), ``resume`` (dns-scan over a finished campaign,
then analyze) and ``offline`` (ingest, ads-classify --store, ti-fetch).

With ``--trace 0`` every admal command runs as its own child process, with
tracing off, and the campaign repeats until ``--seconds`` have passed.  The
last stdout line reports the end-to-end metrics named in BENCHMARK.json as
medians over the campaigns; the line before it holds the per-stage rates
and the line before that the environment.  With ``--trace 1`` the same
commands run in this process through ``admal.cli.main``, once untraced and
once with spans around the public functions (tracing.py), and the last line
reports the per-layer metrics plus the tracing overhead.

Every campaign's outputs are checked against what the generator knows; a
failed check prints ``"correct": false`` and exits 1.  Needs no network and
only the standard library plus admal's own dependencies.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 150
SETUP_PROBES = 9

# name -> (unit, better); the first four are BENCHMARK.json's end_to_end set
END_TO_END = {
    "campaign_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cpu_s": ("s", "lower"),
}
STAGE_UNITS = {
    "error_rate": ("fraction", "lower"),
    "scan_verdicts_per_s": ("1/s", "higher"),
    "scan_cpu_us_per_verdict": ("us", "lower"),
    "analyze_s": ("s", "lower"),
    "resume_s": ("s", "lower"),
    "ingest_urls_per_s": ("1/s", "higher"),
    "classify_domains_per_s": ("1/s", "higher"),
    "ti_fetch_domains_per_s": ("1/s", "higher"),
    "mockdns.busy_frac": ("fraction", "lower"),
    "host_steal_frac": ("fraction", "lower"),
}

# Runs in a fresh interpreter: what every admal command pays before its
# first unit of work, plus the repository's resident size per record.
SETUP_PROBE = """
import json, os, sys, time
t0 = time.perf_counter()
import admal.cli
t1 = time.perf_counter()
from admal.adlists import load_lists
from admal.config import load_config
from admal.repository import Repository
def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
cfg = load_config(sys.argv[1])
t2 = time.perf_counter()
before = rss()
repo = Repository(cfg.repository)
t3 = time.perf_counter()
grown = rss() - before
if cfg.list_files:
    load_lists(cfg.list_files, cfg.list_format_hint, subdomain_matching=cfg.subdomain_matching)
t4 = time.perf_counter()
records = len(repo)
repo.close()
print(json.dumps({"setup_s": t4 - t0, "import_s": t1 - t0, "open_s": t3 - t2,
                  "records": records, "rss_bytes": grown}))
"""


@dataclass
class StepResult:
    code: int
    stdout: str
    wall: float
    cpu: float
    maxrss_mb: float = 0.0
    farm_cpu: float = 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_admal(argv, workdir: Path) -> StepResult:
    """Run one admal command as a child process; wall, CPU and peak RSS
    come from its own rusage."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "admal", *argv],
                                stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        if proc.returncode != 0:
            sys.stderr.write(f"admal {argv[0]} exited {proc.returncode}:\n"
                             + err.read().decode("utf-8", "replace")[-2000:])
    return StepResult(proc.returncode, stdout, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024)


def run_in_process(argv, workdir: Path) -> StepResult:
    """Run one admal command through ``admal.cli.main`` in this process."""
    from admal import cli

    out, err = io.StringIO(), io.StringIO()
    started, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu0
    if code != 0:
        sys.stderr.write(f"admal {argv[0]} exited {code}:\n{err.getvalue()[-2000:]}")
    return StepResult(code, out.getvalue(), wall, cpu)


class Farm:
    """``admal mock-dns`` as a child process, so it does not share the
    client's interpreter lock."""

    def __init__(self, argv, workdir: Path):
        self._err = open(workdir / "farm.stderr", "wb")
        self.proc = subprocess.Popen([sys.executable, "-m", "admal", *argv],
                                     stdout=subprocess.PIPE, stderr=self._err,
                                     env=child_env(), text=True)
        self.pid = self.proc.pid
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            text = ""
            for line in self.proc.stdout:  # the manifest is indented JSON
                text += line
                if line.startswith("}"):
                    break
            self.manifest = json.loads(text)
        except ValueError:
            self.stop()
            raise RuntimeError("mock farm did not start; see farm.stderr") from None
        finally:
            timer.cancel()

    def cpu_s(self) -> float:
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


def setup_probe(config: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_campaign(wl, runner) -> dict:
    """One pass over the workload's command sequence from its starting state."""
    wl.reset()
    results = {}
    for stage, argv in wl.steps():
        farm_before = wl.farm.cpu_s() if wl.farm else 0.0
        results[stage] = runner(argv, wl.root)
        if wl.farm:
            results[stage].farm_cpu = wl.farm.cpu_s() - farm_before
    return results


def campaign_errors(wl, results) -> list[str]:
    failed = [f"admal {stage} exited {r.code}" for stage, r in results.items() if r.code]
    return failed or wl.check(results)


def determinism_errors(wl, runner) -> list[str]:
    """A second analyze over the same repository must give the same bytes."""
    if not any(stage == "analyze" for stage, _ in wl.steps()):
        return []
    again = wl.root / "report-again"
    step = runner(wl.analyze_args(again), wl.root)
    if step.code != 0:
        return [f"second analyze exited {step.code}"]
    first, second = workloads.sha256_dir(wl.root / "report"), workloads.sha256_dir(again)
    shutil.rmtree(again)
    return [] if first == second else [f"analyze output differs between runs: {first} vs {second}"]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, wl) -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), cpu_model)
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(ram / 2**30, 1),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
        "workload": wl.name,
        "input_sizes": wl.sizes,
        "farm": "child process" if wl.name == "scan" else "none",
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) ticks of the whole machine: time the hypervisor ran
    other guests on this one's CPUs, which slows every number here."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(wl, seconds: float) -> tuple[dict, dict, list, int, int]:
    """Untraced run: setup probes, then campaigns until ``seconds`` pass."""
    # warm-up: a fresh checkout byte-compiles admal on its first import
    subprocess.run([sys.executable, "-c", "import admal.cli"], env=child_env(), check=True)
    setups = [setup_probe(wl.config)["setup_s"] for _ in range(SETUP_PROBES)]
    campaigns, errors = [], []
    steal0, total0 = cpu_ticks()
    started = time.perf_counter()
    while not campaigns or time.perf_counter() - started < seconds:
        results = run_campaign(wl, run_admal)
        errors += campaign_errors(wl, results)
        campaigns.append(results)
    steal1, total1 = cpu_ticks()
    errors += determinism_errors(wl, run_admal)

    attempted = failed = 0
    for results in campaigns:
        a, f = wl.failures(results)
        attempted, failed = attempted + a, failed + f
    metrics = {
        "campaign_s": median([sum(r.wall for r in c.values()) for c in campaigns]),
        "setup_s": median(setups),
        "peak_rss_mb": median([max(r.maxrss_mb for r in c.values()) for c in campaigns]),
        "cpu_s": median([sum(r.cpu for r in c.values()) for c in campaigns]),
    }
    stage_rows = [wl.stage_metrics(c) for c in campaigns]
    stages = {k: median([row[k] for row in stage_rows]) for k in stage_rows[0]}
    stages["error_rate"] = failed / attempted
    stages["campaigns"] = len(campaigns)
    stages["host_steal_frac"] = (steal1 - steal0) / max(total1 - total0, 1)
    if wl.farm:
        scans = [c["dns-scan"] for c in campaigns]
        stages["mockdns.busy_frac"] = median([r.farm_cpu / r.wall for r in scans])
        stages["farm_busier_than_client"] = any(r.farm_cpu > r.cpu for r in scans)
        if stages["farm_busier_than_client"]:
            sys.stderr.write("warning: the mock farm used more CPU than the scan client; "
                             "scan numbers measure the farm, not the client\n")
    return metrics, stages, errors, attempted, failed


def measure_traced(wl, seconds: float, trace_path: Path) -> tuple[dict, list, int, int]:
    """Traced run: untraced and traced passes in this process, alternating
    until ``seconds`` pass; per-layer metrics come from the last traced pass."""
    walls = {False: [], True: []}
    errors, attempted, failed = [], 0, 0
    started = time.perf_counter()
    while not walls[True] or time.perf_counter() - started < seconds:
        for traced in (False, True):
            tracer = tracing.Tracer()
            with tracer.install() if traced else contextlib.nullcontext():
                results = run_campaign(wl, run_in_process)
            walls[traced].append(sum(r.wall for r in results.values()))
            errors += campaign_errors(wl, results)
            a, f = wl.failures(results)
            attempted, failed = attempted + a, failed + f
    errors += determinism_errors(wl, run_in_process)
    errors += tracing.containment_errors(tracer.spans)
    tracer.write(trace_path)

    metrics = tracing.layer_metrics(tracer.spans)
    probe = setup_probe(wl.config)  # a fresh process on the end state
    records = probe["records"]
    log = wl.repo / "records.jsonl"
    scan = results.get("dns-scan")
    metrics.update({
        "repository.rss_bytes_per_record": probe["rss_bytes"] / records if records else 0.0,
        "repository.log_bytes_per_record": (log.stat().st_size / records
                                            if records and log.exists() else 0.0),
        "mockdns.cpu_s": scan.farm_cpu if scan and wl.farm else 0.0,
        "mockdns.busy_frac": scan.farm_cpu / scan.wall if scan and wl.farm else 0.0,
        "cli.import_s": probe["import_s"],
        "trace_overhead_frac": median(walls[True]) / median(walls[False]) - 1,
    })
    return metrics, errors, attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns the result object and, for untraced runs, the stage metrics."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    wl = workloads.WORKLOADS[name](workdir, seed)
    try:
        wl.generate()
        wl.start(lambda argv: Farm(argv, workdir))
        env = environment(seed, wl)
        print(json.dumps({"environment": env}), flush=True)
        if trace:
            layer, errors, attempted, failed = measure_traced(
                wl, seconds, WORK / f"trace-{name}-{seed}.jsonl")
            metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]}
                       for k, v in layer.items()}
            stages = {}
        else:
            e2e, stages, errors, attempted, failed = measure(wl, seconds)
            metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}
            print(json.dumps({"stages": stages, "checks": errors}), flush=True)
    finally:
        wl.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors:
        sys.stderr.write(f"check failed: {error}\n")
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan", "resume", "offline", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "admal" / "cli.py").is_file():
        sys.stderr.write(f"admal sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    names = ["scan", "resume", "offline"] if args.workload == "all" else [args.workload]
    runs = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    results = {n: result for n, (result, _) in runs.items()}
    if args.workload == "all":
        print_table(runs)
    result = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def print_table(runs: dict) -> None:
    directions = {**END_TO_END, **STAGE_UNITS, **tracing.LAYER_METRICS}
    print(f"{'workload':<9} {'metric':<44} {'value':>14}  {'unit':<9} better")
    for name, (result, stages) in runs.items():
        rows = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        rows.update({k: (v, STAGE_UNITS[k][0]) for k, v in stages.items() if k in STAGE_UNITS})
        for metric, (value, unit) in rows.items():
            arrow = {"lower": "↓ lower", "higher": "↑ higher"}[directions[metric][1]]
            print(f"{name:<9} {metric:<44} {value:>14.6g}  {unit:<9} {arrow}")
        print(f"{name:<9} {'correct':<44} {str(result['correct']):>14}")


if __name__ == "__main__":
    sys.exit(main())
