"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workload W ...] [--seeds 1-10] [--seconds 15]

Runs ``perfbench/run.py`` once per seed and workload, one process at a time,
and prints for each metric the median of the runs and the distance between
the first and third quartile as a share of that median, next to the bound
in BENCHMARK.json.  Distinct seeds give the spread that a gate over seeds
sees, which includes how the seed changes the inputs; a repeated seed
(``--seeds 3,3,3,3,3``) gives the run-to-run noise of the same inputs.
Each run's result line is appended to ``.perfbench_work/spread.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = os.path.join(ROOT, ".perfbench_work", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "exit": proc.returncode,
                                     **result}) + "\n")
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"correct={result.get('correct')}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({len(next(iter(values.values()), []))} runs)")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or share <= bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
            print(f"  {name:<20} median {med:<12.6g} spread {share:7.2%}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
