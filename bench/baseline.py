"""Run the benchmark over several seeds and summarise each metric as a
median with quartiles.

    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1-3 --out bench/baseline.json

Each run is ``bench/run.py`` in a child process, one workload and seed at a
time.  The spread of a metric is the distance between its first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of its median;
an end-to-end spread at or above a third of the metric's bound in
BENCHMARK.json is flagged.  Exits 1 when any run fails or is incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or not lines or not lines[-1].get("correct"):
        sys.stderr.write(done.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed (exit {done.returncode})")
    doc = {"result": lines[-1]}
    for line in lines[:-1]:
        doc.update(line)
    return doc


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="scan,resume,offline")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs, e.g. 1-3")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in seed_range(args.seeds)]
        traced = ([run_once(workload, seed, seconds, 1) for seed in seed_range(args.trace_seeds)]
                  if args.trace_seeds else [])
        env = dict(runs[0]["environment"])
        env.pop("seed")
        entry = {"environment": env, "seeds": args.seeds, "end_to_end": {},
                 "stages": {}, "per_layer": {}}
        for name in bounds:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["unit"], stats["better"] = units[name]
            entry["end_to_end"][name] = stats
            flag = ""
            if name != "setup_s" and stats["spread"] >= bounds[name] / 3:
                flag, steady = "  <-- spread at or above a third of the bound", False
            print(f"{workload:<8} {name:<14} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}")
        for name in runs[0]["stages"]:
            values = [r["stages"][name] for r in runs]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
                entry["stages"][name] = summarise(values)
            else:
                entry["stages"][name] = {"values": values}
        if len(traced) >= 2:
            for name in traced[0]["result"]["metrics"]:
                stats = summarise([t["result"]["metrics"][name]["value"] for t in traced])
                stats["unit"], stats["better"] = units[name]
                entry["per_layer"][name] = stats
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print("steady" if steady else "NOT steady: some spread is at or above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
