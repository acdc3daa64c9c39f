"""Tests of the benchmark's own arithmetic and input generation."""

from __future__ import annotations

import enum
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402

harness.bootstrap()

import spans  # noqa: E402
import workloads  # noqa: E402
from doxatest.frames import Frame, Model, frame_to_obj, model_to_obj  # noqa: E402


# --- the tail-percentile rule -------------------------------------------------


def test_tail_needs_more_than_ten_samples():
    assert harness.tail_percentile([1.0] * 10) is None
    assert harness.tail_percentile([]) is None


def test_tail_is_highest_percentile_with_ten_samples_above():
    values = [float(v) for v in range(100, 0, -1)]
    pct, value, n = harness.tail_percentile(values)
    assert (pct, value, n) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    values = [5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    pct, value, n = harness.tail_percentile(values)
    assert value == 1.0 and n == 11
    assert pct == pytest.approx(100 / 11)


# --- self-time arithmetic -------------------------------------------------------


def test_self_time_subtracts_child_coverage_and_leaves():
    # (name, start, end, parent, item, leaf seconds)
    synthetic = [
        ("item", 0.0, 10.0, -1, 0, 1.0),
        ("a", 1.0, 4.0, 0, 0, 0.5),
        ("b", 3.0, 6.0, 0, 0, 0.0),  # overlaps a: the union covers 1..6 once
        ("c", 2.0, 3.0, 1, 0, 0.0),
        ("d", 8.0, 12.0, 0, 0, 0.0),  # runs past its parent: clipped to 8..10
    ]
    got = spans.self_times(synthetic)
    assert got == pytest.approx([10 - 5 - 2 - 1.0, 3 - 1 - 0.5, 3.0, 1.0, 4.0])


def test_traced_calls_balance_against_wall_time():
    tracer = spans.Tracer()

    def leaf(x):
        return sum(range(x))

    leaf_w = tracer.wrap(leaf, "frames.cells")  # a registered leaf name
    inner_w = tracer.wrap(lambda x: leaf_w(x) + leaf_w(x), "inner")
    outer_w = tracer.wrap(lambda x: inner_w(x) + leaf_w(x), "outer")
    t0 = spans.perf_counter()
    for item in range(3):
        tracer.item = item
        with tracer.span("item"):
            outer_w(2000)
        tracer.item = None
        leaf(2000)  # untraced remainder between items
    wall = spans.perf_counter() - t0
    assert spans.check_balance(tracer, wall) < 1e-6
    calls, self_s = spans.layer_totals(tracer)
    assert calls == {"item": 3, "outer": 3, "inner": 3, "frames.cells": 9}
    assert all(v >= 0 for v in self_s.values())
    assert [s[3] for s in tracer.spans[:3]] == [-1, 0, 1]  # item > outer > inner


def test_direct_recursion_is_one_call():
    tracer = spans.Tracer()

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tracer.wrap(fact, "fact")
    tracer.item = 0
    assert wrapped(5) == 120
    assert len(tracer.spans) == 1


# --- seeded inputs ----------------------------------------------------------------


def _encode(value):
    if isinstance(value, Frame):
        return frame_to_obj(value)
    if isinstance(value, Model):
        return model_to_obj(value)
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(type(value))


def _input_bytes(name: str, seed: int, workdir: str, items) -> bytes:
    workload = workloads.WORKLOADS[name](seed, workdir)
    out = []
    for i in items:
        inp = workload.make_input(i)
        out.append(json.dumps(inp, default=_encode, sort_keys=True))
        if "argv" in inp:  # the frame file the CLI will read
            with open(inp["argv"][1], "rb") as fh:
                out.append(fh.read().decode())
    return "\n".join(out).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs_and_another_seed_changes_them(name, tmp_path):
    items = [0, 1, 2, workloads.WORKLOADS[name].cycle]
    first = _input_bytes(name, 7, str(tmp_path), items)
    assert _input_bytes(name, 7, str(tmp_path), items) == first
    assert _input_bytes(name, 8, str(tmp_path), items) != first


# --- the benchmark definition ---------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in harness.per_layer_spec()
    ]


def test_refuses_to_run_without_package_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH_DIR, name), bench / name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "oracle-agreement",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
