"""Tests of the benchmark itself: its checks, its tracer and its files.

    python3 -m pytest bench -q

Each workload's check must accept the engine's real output and reject it
with one leaf dropped or one value raised.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _replace(lines: list, i: int, value: str) -> list:
    key = lines[i].partition(" = ")[0]
    return lines[:i] + [f"{key} = {value}"] + lines[i + 1:]


@pytest.fixture(scope="module")
def closure():
    workload = workloads.Closure(7)
    operations, tag = workload.pass_input(0)
    (lines,) = workload.run_pass(operations)
    return workload, tag, lines


def test_closure_check_accepts_the_engine(closure):
    workload, tag, lines = closure
    assert workload.check(tag, [lines]) == []


def test_closure_check_rejects_a_dropped_leaf(closure):
    workload, tag, lines = closure
    i = next(i for i, line in enumerate(lines) if line.startswith("T("))
    assert workload.check(tag, [lines[:i] + lines[i + 1:]])


def test_closure_check_rejects_a_raised_value(closure):
    workload, tag, lines = closure
    full = inputs.label_text(range(inputs.CLOSURE_LABELS))
    i = next(i for i, line in enumerate(lines)
             if line.startswith("T(") and not line.endswith(full))
    assert workload.check(tag, [_replace(lines, i, full)])


@pytest.fixture(scope="module")
def analyses():
    workload = workloads.Analyses(7)
    operations, tag = workload.pass_input(0)
    return workload, tag, workload.run_pass(operations)


def test_analyses_check_accepts_the_engine(analyses):
    workload, tag, outputs = analyses
    assert workload.check(tag, outputs) == []


def test_analyses_oracle_agrees_with_the_reference(analyses):
    workload, tag, _ = analyses
    assert workload.check_once(tag) == []


@pytest.mark.parametrize("ring", [0, 1, 2])
def test_analyses_check_rejects_a_dropped_leaf(analyses, ring):
    workload, tag, outputs = analyses
    _, _, dom = workload.rings[ring]
    lines = outputs[ring]
    observed = workload.observed[ring]
    i = next(i for i, line in enumerate(lines)
             if any(line.startswith(f"A({inputs.state_name(tag, s)},{v})") for s, v in observed))
    broken = outputs[:ring] + [lines[:i] + lines[i + 1:]] + outputs[ring + 1:]
    assert workload.check(tag, broken)
    # the concrete executions alone already catch it
    assert reference.unsound(dom, reference.leaf_map(broken[ring]), observed, tag)


@pytest.mark.parametrize("ring", [0, 1, 2])
def test_analyses_check_rejects_a_raised_value(analyses, ring):
    workload, tag, outputs = analyses
    _, _, dom = workload.rings[ring]
    top = dom.render(dom.top)
    lines = outputs[ring]
    i = next(i for i, line in enumerate(lines) if not line.endswith(f" = {top}"))
    broken = outputs[:ring] + [_replace(lines, i, top)] + outputs[ring + 1:]
    assert workload.check(tag, broken)


@pytest.fixture(scope="module")
def batch():
    workload = workloads.Batch(7)
    texts, wants = workload.pass_input(0)
    return workload, texts, wants, workload.run_pass(texts)


def test_batch_check_accepts_the_engine(batch):
    workload, _, wants, outputs = batch
    assert workload.check(wants, outputs) == []


def test_batch_check_rejects_a_dropped_leaf(batch):
    workload, _, wants, outputs = batch
    k = next(k for k, lines in enumerate(outputs) if lines)
    broken = outputs[:k] + [outputs[k][1:]] + outputs[k + 1:]
    assert workload.check(wants, broken)


def test_batch_check_rejects_a_raised_value(batch):
    workload, texts, wants, outputs = batch
    for k, (text, lines) in enumerate(zip(texts, outputs)):
        top = text.splitlines()[0].removeprefix("lattice powerset ")
        i = next((i for i, line in enumerate(lines) if not line.endswith(f" = {top}")), None)
        if i is not None:
            break
    broken = outputs[:k] + [_replace(lines, i, top)] + outputs[k + 1:]
    assert workload.check(wants, broken)


def test_no_pass_repeats_a_text():
    closure, rings = workloads.Closure(1), workloads.Analyses(1)
    texts = [t for p in range(3) for t in closure.pass_input(p)[0]]
    texts += [args[0] for p in range(3) for args in rings.pass_input(p)[0]]
    assert len(set(texts)) == len(texts)


def test_self_times_subtract_the_spans_inside():
    tracer = measure.Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.01))
    outer = tracer.span("outer", lambda: (inner(), inner()))
    outer()
    own = tracer.self_times()
    (_, _, _, start, end) = next(s for s in tracer.spans if s[2] == "outer")
    assert own["inner"] >= 0.02
    assert own["outer"] == pytest.approx(end - start - own["inner"])


def test_benchmark_json_matches_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closure", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_run_fails_without_the_latlog_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closure", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
