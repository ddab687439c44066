"""Run-to-run spread and exact-count steadiness of the benchmark.

    python3 perfbench/spread.py --workload paranoid-search --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload trendy-levels --seeds 7 --hash-seeds 0 1

Without ``--hash-seeds``, runs ``run.py --trace 0`` once per seed and
prints, for every end-to-end metric, the median of the runs and the
distance between their first and third quartiles as a share of that
median, next to the metric's bound from ``BENCHMARK.json``.

With ``--hash-seeds``, runs ``run.py --trace 1`` for each seed under
each ``PYTHONHASHSEED`` value and checks that the exact counts of every
instance (bound attempts, conflicts, closure size, objective key) are
identical across them.  Exits 1 when a spread exceeds its bound or a
count differs.  ``--record FILE`` merges each metric's quartiles into
FILE, as ``perfbench/baseline.json`` was written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int, hash_seed: str | None = None) -> dict:
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"run failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def record(path: Path, workload: str, section: str, results: list[dict]) -> None:
    """Store each metric's quartiles over ``results`` under ``workload``/``section``."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"]}
    stored.setdefault(workload, {})[section] = {"runs": len(results), "metrics": summary}
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def spreads(workload: str, seeds: list[int], seconds: int, bench: dict, out: Path | None) -> bool:
    results = []
    for seed in seeds:
        result = run(workload, seed, seconds, 0)
        results.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    steady = all(r["correct"] for r in results)
    if out is not None:
        record(out, workload, "end_to_end", results)
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        within = share <= metric["bound"]
        steady &= within
        print(
            f"{metric['name']:>16}: median {median:.4g} {metric['unit']},"
            f" spread {share:.3f} of median, bound {metric['bound']}"
            f"{'' if within else '  OVER BOUND'}"
        )
    return steady


def counts_agree(
    workload: str, seeds: list[int], seconds: int, hash_seeds: list[str], out: Path | None
) -> bool:
    steady, results = True, []
    for seed in seeds:
        seen = {}
        for hash_seed in hash_seeds:
            results.append(run(workload, seed, seconds, 1, hash_seed))
            steady &= results[-1]["correct"]
            trace = json.loads((ROOT / ".perfbench" / f"trace-{workload}-{seed}.json").read_text())
            seen[hash_seed] = trace["instances"]
        first = seen[hash_seeds[0]]
        same = all(counts == first for counts in seen.values())
        steady &= same
        total = sum(c["conflicts"] for c in first.values())
        print(
            f"seed {seed}: {len(first)} instances, {total} conflicts;"
            f" exact counts {'identical' if same else 'DIFFER'} under PYTHONHASHSEED"
            f" {', '.join(hash_seeds)}"
        )
    if out is not None:
        record(out, workload, "per_layer", results)
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--hash-seeds", nargs="+")
    parser.add_argument("--record", type=Path, help="merge the quartiles into this JSON file")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    if args.hash_seeds:
        steady = counts_agree(args.workload, args.seeds, seconds, args.hash_seeds, args.record)
    else:
        steady = spreads(args.workload, args.seeds, seconds, bench, args.record)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
