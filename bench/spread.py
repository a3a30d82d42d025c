"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload spectrum --seeds 1-10 [--baseline bench/baseline.json]

Runs one seed at a time from the repository root with the run length of
BENCHMARK.json.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median, next to the metric's bound.  With ``--baseline``
the medians and quartiles are merged into that JSON file under the
workload's name, with the machine the runs were made on.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                          timeout=180)
    lines = done.stdout.splitlines()
    machine = next(line for line in lines if line.startswith("# machine: "))
    return json.loads(lines[-1]), machine[len("# machine: "):]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--baseline", type=Path, default=None)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in args.seeds:
        start = time.perf_counter()
        result, machine = run_once(args.workload, seed, spec["run_seconds"])
        results.append(result)
        print(f"seed {seed}: wall={time.perf_counter() - start:.1f}s "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        print(f"{name:16s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f} bound={metric['bound']}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": metric["unit"]}
    if args.baseline is not None:
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        doc[args.workload] = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
                              "machine": json.loads(machine), "metrics": summary}
        args.baseline.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
