"""Time seeded CUDF corpora end to end through the cudfsolve CLI.

    python3 perfbench/run.py --workload big-trim --seed 1 --seconds 20 --trace 0

Set-up writes the workload's corpus for ``--seed`` several times, each
in a fresh interpreter running ``corpus.py``; ``setup_s`` is the median
wall time (interpreter start, ``import cudfsolve``, generation, files
written).  Then this process is the one caller of a closed loop on one
thread: it answers one instance at a time with
``cudfsolve.cli.main(["solve", ...])``, going round the corpus until
``--seconds`` have gone by and every instance has been answered once.
Every answer goes through the correctness gate outside the timed region.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` every instance is answered twice per pass, untraced
and traced in alternating order, and the last line holds the per-layer
metrics; the spans are written to
``.perfbench/trace-<workload>-<seed>.json``.
A human-readable report, with sample counts, goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Set-ups per run: at least ``SETUPS``, and more while fewer than
#: ``SETUP_SECONDS`` have passed, so a cheap set-up is sampled more often.
#: The median is reported as ``setup_s``.
SETUPS = 3
SETUP_SECONDS = 8.0


def metric_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _digest(directory: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def set_up(workload: str, seed: int, corpus_dir: Path) -> tuple[list[float], bool]:
    """Write the corpus repeatedly; wall times and whether all matched."""
    times, digests = [], set()
    while len(times) < SETUPS or sum(times) < SETUP_SECONDS:
        shutil.rmtree(corpus_dir, ignore_errors=True)
        command = [sys.executable, str(HERE / "corpus.py"), "--workload", workload]
        command += ["--seed", str(seed), "--out", str(corpus_dir)]
        start = perf_counter()
        subprocess.run(command, check=True, timeout=150)
        times.append(perf_counter() - start)
        digests.add(_digest(corpus_dir))
    return times, len(digests) == 1


class Harness:
    """The closed loop: answers instances one at a time and gates each answer."""

    def __init__(self, workload, corpus_dir: Path, manifest: list[dict]) -> None:
        from cudfsolve import parse_criteria

        self.workload = workload
        self.criteria = parse_criteria(workload.criteria)
        self.corpus_dir = corpus_dir
        self.manifest = manifest
        self.answer_path = corpus_dir.parent / "answer.cudf"
        self.attempted = 0
        self.failures: list[str] = []
        self.optimal = 0
        self.keys: dict[str, list[int]] = {}

    def answer(self, entry: dict) -> float:
        """Answer one instance through the CLI; return the timed seconds."""
        from corpus import BUDGET_S
        from cudfsolve import cli

        self.answer_path.unlink(missing_ok=True)
        argv = ["solve", str(self.corpus_dir / entry["file"])]
        argv += [f"-c={self.workload.criteria}", "-o", str(self.answer_path)]
        argv += ["--timeout", str(BUDGET_S)]
        stderr = io.StringIO()
        gc.collect()
        with contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit):  # a crash or usage exit is a failed answer
                code = traceback.format_exc()
            elapsed = perf_counter() - start
        self.attempted += 1
        problem = self.gate(entry, code, stderr.getvalue())
        if problem is not None:
            self.failures.append(f"{entry['file']}: {problem}")
        elif "timed out" not in stderr.getvalue():
            self.optimal += 1
        return elapsed

    def gate(self, entry: dict, code, stderr: str) -> str | None:
        """Why the answer is wrong, or None when it passes every check."""
        from cudfsolve import ParseError, evaluate, parse_document, semantics

        if code != 0:
            return f"exit {code!r}"
        doc = parse_document((self.corpus_dir / entry["file"]).read_text(encoding="utf-8"))
        try:
            answer = parse_document(self.answer_path.read_text(encoding="utf-8")).installed_ids()
        except (OSError, ParseError) as exc:
            return f"answer unreadable: {exc}"
        report = semantics.validate_solution(doc, answer)
        if not report.ok:
            return f"invalid answer: {report.violations[0]}"
        vector = evaluate(doc, answer, self.criteria)
        claimed = [line for line in stderr.splitlines() if line.startswith("objective: ")]
        if claimed != [f"objective: {vector}"]:
            return f"objective line {claimed!r} != {str(vector)!r}"
        key = list(vector.key())
        if key > entry["witness_key"]:
            return f"key {key} worse than witness {entry['witness_key']}"
        self.keys[entry["file"]] = key
        return None


def _median_of(values: list[float]) -> str:
    return f"median {statistics.median(values):.4f} over {len(values)}"


def warm_up(harness: Harness, seconds: float = 1.0) -> None:
    """Untimed answers until ``seconds`` have passed, so heap growth, lazy
    imports and a cold processor are not charged to the first instances."""
    deadline = perf_counter() + seconds
    for entry in harness.manifest:
        harness.answer(entry)
        if perf_counter() >= deadline:
            return


def timed_samples(harness: Harness, seconds: float) -> list[list[float]]:
    """Untraced answers round the corpus until ``seconds`` have elapsed and
    every instance has been answered; the times of each instance."""
    samples: list[list[float]] = [[] for _ in harness.manifest]
    deadline = perf_counter() + seconds
    answered = 0
    while answered < len(samples) or perf_counter() < deadline:
        number = answered % len(samples)
        samples[number].append(harness.answer(harness.manifest[number]))
        answered += 1
    return samples


def corpus_time(samples: list[list[float]]) -> float:
    """One answer per instance, each instance at the median of its times."""
    return sum(statistics.median(times) for times in samples)


def traced_passes(harness: Harness, seconds: float, tracer) -> tuple[list, list, list]:
    """Pairs of passes, each instance answered both untraced and traced.

    The order alternates from one instance to the next, so the second
    answer's warmer caches do not bias ``trace.overhead_frac``.
    """
    plain_passes, traced, spans_by_pass = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain, timed, first_span = [], [], len(tracer.spans)
        for number, entry in enumerate(harness.manifest):
            if number % 2:
                plain.append(harness.answer(entry))
            tracer.instance = f"{len(traced)}:{entry['file']}"
            with tracer.installed():
                timed.append(harness.answer(entry))
            if not number % 2:
                plain.append(harness.answer(entry))
        tracer.instance = None
        plain_passes.append(plain)
        traced.append(timed)
        spans_by_pass.append(tracer.spans[first_span:])
    return plain_passes, traced, spans_by_pass


def instance_counts(spans: list[dict], keys: dict[str, list[int]]) -> dict[str, dict]:
    """Exact per-instance counts from one traced pass, for steadiness checks."""
    counts: dict[str, dict] = {}
    for span in spans:
        if span["instance"] is None or "counts" not in span:
            continue
        file = span["instance"].split(":", 1)[1]
        entry = counts.setdefault(file, {"attempts": 0, "conflicts": 0, "key": keys.get(file)})
        if span["name"] == "sat.Solver.solve":
            entry["attempts"] += 1
            entry["conflicts"] += span["counts"]["conflicts"]
        elif span["name"] == "solve.compute_closure":
            entry["closure"] = span["counts"]["closure"]
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cudfsolve").is_dir():
        print(f"error: no cudfsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import corpus
    import tracing

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = corpus.WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-{args.seed}"
    corpus_dir = run_dir / "corpus"
    try:
        setup_times, reproducible = set_up(workload.name, args.seed, corpus_dir)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: corpus set-up failed: {exc}", file=sys.stderr)
        return 2
    manifest = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
    harness = Harness(workload, corpus_dir, manifest)

    report = [
        f"workload {workload.name} seed {args.seed}: {len(manifest)} instances of"
        f" ~{workload.packages} packages, criteria {workload.criteria},"
        f" budget {corpus.BUDGET_S:g} s each; closed loop, 1 caller, 1 thread",
        f"setup_s: {_median_of(setup_times)} set-ups",
    ]
    warm_up(harness)
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, spans_by_pass = traced_passes(harness, args.seconds, tracer)
        per_pass = [tracing.summarize(spans) for spans in spans_by_pass]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        traced, plain = list(zip(*traced)), list(zip(*plain))
        values["trace.overhead_frac"] = corpus_time(traced) / corpus_time(plain) - 1
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{workload.name}-{args.seed}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "workload": workload.name,
                    "seed": args.seed,
                    "absent": tracer.absent,
                    "instances": instance_counts(spans_by_pass[0], harness.keys),
                    "spans": tracer.spans,
                }
            ),
            encoding="utf-8",
        )
        report.append(
            f"per-layer values are medians over {len(per_pass)} traced passes;"
            f" corpus_s {corpus_time(traced):.4f} s traced,"
            f" {corpus_time(plain):.4f} s untraced"
        )
        report.append("wait time: none to report; one caller, one thread, no queue")
        if tracer.absent:
            report.append(f"absent layers: {', '.join(tracer.absent)}")
        report.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        samples = timed_samples(harness, args.seconds)
        per_instance = [statistics.median(times) for times in samples]
        counts = sorted(len(times) for times in samples)
        values = {
            "corpus_s": corpus_time(samples),
            "instance_s.p50": statistics.median(per_instance),
            "optimal_frac": harness.optimal / harness.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        report.append(
            f"corpus_s: sum of per-instance medians, {counts[0]}-{counts[-1]} answers each"
        )
        report.append(f"instance_s.p50: {_median_of(per_instance)} instances")
    report.append(
        f"fail_frac: {len(harness.failures) / harness.attempted:.4f}"
        f" ({len(harness.failures)} of {harness.attempted} answers)"
    )
    report.extend(f"FAILED {failure}" for failure in harness.failures[:20])
    if not reproducible:
        report.append("FAILED: set-ups wrote different corpora for one seed")
    units = metric_units()
    report.extend(f"{name}: {value:.6g} {units[name]}" for name, value in values.items())
    print("\n".join(report), file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": reproducible and not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
