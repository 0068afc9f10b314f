"""Run the benchmark repeatedly and report each end-to-end metric's spread.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--out FILE]

Run from the checkout root. Each run uses its own seed (1, 2, ...). For each
workload and end-to-end metric this prints the median of the runs and the
spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
bound BENCHMARK.json sets for the metric. --out keeps every run's result and
printed report. --compare FILE, an earlier --out, also prints how much worse
each median got since then, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in spec["workloads"]]
    before = json.loads(args.compare.read_text(encoding="utf-8"))["spread"] if args.compare else {}
    record = {"runs": {}, "spread": {}}
    ok = True
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            took = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"], result["run_s"], result["report"] = seed, took, lines[:-1]
            results.append(result)
            print(f"{name} seed {seed}: {took:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            ok &= result["correct"]
        record["runs"][name] = results
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            s = spread(values)
            record["spread"].setdefault(name, {})[metric["name"]] = {
                "median": statistics.median(values), "spread": s, "bound": metric["bound"]}
            flag = "" if s < metric["bound"] / 3 else (" > bound/3" if s < metric["bound"] else " > BOUND")
            earlier = before.get(name, {}).get(metric["name"])
            if earlier:
                change = statistics.median(values) / earlier["median"] - 1
                worse = change if metric["better"] == "lower" else -change
                record["spread"][name][metric["name"]]["worse_than_compared"] = worse
                flag += f"; worse than compared by {worse:+.2%}" + (" > BOUND" if worse > metric["bound"] else "")
            print(f"  {metric['name']:<16} median {statistics.median(values):<12.6g} "
                  f"spread {s:7.2%}  bound {metric['bound']:.0%}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
