"""Tests of the benchmark itself: generator, correctness gate, tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from cudfsolve import (  # noqa: E402
    DocIndex,
    brute_force,
    cli,
    evaluate,
    parse_criteria,
    parse_document,
    render_solution,
    validate_solution,
)

END_TO_END = {"corpus_s", "instance_s.p50", "optimal_frac", "peak_rss_mb", "setup_s"}

# Each workload's recipe shrunk to a universe brute_force can enumerate.
TINY = {
    name: dataclasses.replace(workload, instances=4, packages=11, install_requests=3)
    for name, workload in corpus.WORKLOADS.items()
}


def _harness(workload, tmp_path: Path, seed: int = 5) -> run.Harness:
    out = tmp_path / "corpus"
    manifest = corpus.write_corpus(workload, seed, out)
    return run.Harness(workload, out, manifest)


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_corpus_keys_match_brute_force(name, seed, tmp_path):
    workload = TINY[name]
    harness = _harness(workload, tmp_path, seed)
    criteria = parse_criteria(workload.criteria)
    for number, entry in enumerate(harness.manifest):
        harness.answer(entry)
        instance = corpus.make_instance(workload, seed, number)
        assert validate_solution(instance.doc, instance.witness).ok
        best = brute_force(instance.doc, criteria)
        assert best is not None
        assert harness.keys[entry["file"]] == list(best.objective.key())
    assert harness.failures == []
    assert harness.optimal == harness.attempted == len(harness.manifest)


def test_gate_catches_a_dropped_package(tmp_path):
    workload = TINY["paranoid-search"]
    harness = _harness(workload, tmp_path)
    number, entry = next((n, e) for n, e in enumerate(harness.manifest) if e["requests"])
    harness.answer(entry)
    assert harness.failures == []
    doc = corpus.make_instance(workload, 5, number).doc
    answer = parse_document(harness.answer_path.read_text()).installed_ids()
    index = DocIndex(doc)
    # Drop the only answer package serving some install request.
    needed = next(
        served.pop()
        for clause in doc.request.install.clauses
        if len(served := set(index.providers(clause)) & answer) == 1
    )
    broken = answer - {needed}
    harness.answer_path.write_text(render_solution(broken))
    stderr = f"objective: {evaluate(doc, broken, harness.criteria)}\n"
    assert "invalid answer" in harness.gate(entry, 0, stderr)


def test_gate_rejects_a_wrong_objective_line(tmp_path):
    harness = _harness(TINY["trendy-levels"], tmp_path)
    entry = harness.manifest[0]
    harness.answer(entry)
    assert harness.gate(entry, 0, "objective: -removed=99\n") is not None
    assert harness.gate(entry, 2, "") is not None


def test_same_seed_same_bytes_under_any_hash_seed(tmp_path):
    workload = "trendy-levels"
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        command = [sys.executable, str(HERE / "corpus.py"), "--workload", workload]
        subprocess.run(command + ["--seed", "3", "--out", str(out)], check=True, env=env)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == corpus.WORKLOADS[workload].instances + 1


def test_timed_samples_answer_every_instance_once_at_least(tmp_path):
    harness = _harness(TINY["big-trim"], tmp_path)
    samples = run.timed_samples(harness, 0)
    assert [len(times) for times in samples] == [1] * len(harness.manifest)
    assert run.corpus_time(samples) == sum(times[0] for times in samples)
    assert harness.failures == []


def test_tracer_restores_names_and_reports_absent_ones(monkeypatch):
    original = cli.main
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("cudfsolve.cli", "gone", None),))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main is not original
    assert cli.main is original
    assert tracer.absent == ["cli.gone"]


def test_traced_pass_counts_every_layer(tmp_path):
    harness = _harness(TINY["trendy-levels"], tmp_path)
    tracer = tracing.Tracer()
    plain, traced, spans = run.traced_passes(harness, 0, tracer)
    assert len(plain) == len(traced) == 1
    summary = tracing.summarize(spans[0])
    assert summary["solve.attempts"] >= len(harness.manifest)
    assert 0 < summary["closure.kept_frac"] <= 1
    assert summary["semantics.validate_s"] > 0
    names = {span["name"] for span in spans[0]}
    assert names >= {"cli.main", "cli.parse_document", "sat.Solver.solve"}
    assert set(summary) | {"trace.overhead_frac"} == set(run.metric_units()) - END_TO_END
    counts = run.instance_counts(spans[0], harness.keys)
    assert set(counts) == {entry["file"] for entry in harness.manifest}
    json.dumps(tracer.spans)  # spans are written out as JSON when a run ends
