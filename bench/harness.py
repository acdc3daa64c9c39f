"""Closed-loop benchmark harness: one caller, one process, one item at a time.

A run prepares the workload's first inputs (set-up), then sends items one
after another for the requested number of seconds, timing each call into the
package and checking each verdict, outside the item's timing, against the
answer known from the input's construction and against the recorded
reference verdicts.  End-to-end metrics come from untraced runs only; a
traced run (``--trace 1``) reports per-layer numbers instead.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

SETUP_REPEATS = 7
TAIL_MIN_ABOVE = 10

# a fresh interpreter, so every sample pays the cold import a user pays
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import doxatest.cli; print(time.perf_counter() - t)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    """The checkout does not hold the package sources the benchmark measures."""


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the import path and make sure
    ``doxatest`` is imported from there and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "doxatest", "__init__.py")):
        raise SetupError(f"no package sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import doxatest

    if os.path.dirname(os.path.dirname(os.path.abspath(doxatest.__file__))) != SRC:
        raise SetupError(f"doxatest imported from {doxatest.__file__}, not {SRC}")


# --- statistics ---------------------------------------------------------------


def tail_percentile(values, min_above: int = TAIL_MIN_ABOVE):
    """The highest percentile that still has ``min_above`` samples above it.

    Returns (percentile, value, sample count), or None when there are too
    few samples for any such percentile.
    """
    n = len(values)
    if n <= min_above:
        return None
    rank = n - min_above  # 1-based rank of the sample with min_above above it
    return 100.0 * rank / n, sorted(values)[rank - 1], n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- host-speed calibration -----------------------------------------------------

# Reported times are scaled to a host on which the calibration kernel takes
# CALIBRATION_REF_S.  On shared hosts the CPU speed one process sees drifts
# by up to half over tens of seconds and more; timing a fixed kernel next to
# each item and scaling by (CALIBRATION_REF_S / kernel time) ** exponent
# removes most of that drift.  Each workload states its exponent: how its
# item time follows the kernel time (see Workload.calibration_exponent).
CALIBRATION_REF_S = 0.004
CALIBRATION_INTERVAL_S = 0.1

_KERNEL_SELECTION = {
    (s, e): (e & ((e * 40503 >> 3) | (1 << s))) or (e & -e)
    for s in range(4)
    for e in range(1, 16)
}


def _kernel_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _calibration_kernel() -> int:
    """Fixed pure-Python work shaped like the package's: bit scans, tuple
    keys, dict updates, and a pairwise event scan over a small selection
    table with a generator and a cache.  It imports nothing from the
    package, so no change to the package can move the reference."""
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = (i & 63, i >> 6)
        m = (i * 2654435761) & 0xFFFF
        while m:
            low = m & -m
            acc ^= low.bit_length()
            m ^= low
        table[key] = table.get(key, 0) | acc
    sel = _KERNEL_SELECTION
    for _ in range(3):
        cache: dict = {}
        for s in range(4):
            b = (s * 5 + 3) & 15 or 1
            for e in range(1, 16):
                for f in range(1, 16):
                    ef = e & f
                    if not ef:
                        continue
                    sup = cache.get((b, ef))
                    if sup is None:
                        sup = 0
                        for i in _kernel_bits(b):
                            sup |= sel[(i, ef)]
                        cache[(b, ef)] = sup
                    for i in _kernel_bits(b):
                        if sel[(i, e)] & f & ~sup:
                            acc += 1
    return acc


class SpeedGauge:
    """Kernel timings taken between items, at most every
    CALIBRATION_INTERVAL_S; each interval is scaled by the samples that
    bracket it."""

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        best = None
        for _ in range(3):
            t0 = perf_counter()
            _calibration_kernel()
            dt = perf_counter() - t0
            best = dt if best is None or dt < best else best
        self.times.append(perf_counter())
        self.kernel_s.append(best)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= CALIBRATION_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor taking a duration measured in [start, end] to reference
        seconds; needs a sample before start and one after end."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        kernel = (self.kernel_s[max(before, 0)] + self.kernel_s[min(after, len(self.times) - 1)]) / 2
        return (CALIBRATION_REF_S / kernel) ** self.exponent


# --- environment ----------------------------------------------------------------


def _git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "doxatest")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def env_header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_rev": _git_rev(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


# --- reference verdicts ----------------------------------------------------------


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"workloads": {}}


def save_reference(doc: dict) -> None:
    """Valid JSON with one item record per line, so a changed witness shows
    as one changed line."""
    compact = dict(separators=(",", ":"), sort_keys=True)
    blocks = []
    for name, entry in sorted(doc["workloads"].items()):
        items = ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(record, **compact)}"
            for key, record in sorted(entry["items"].items())
        )
        blocks.append(
            f'  {json.dumps(name)}: {{\n   "runs": {json.dumps(entry["runs"])},\n'
            f'   "items": {{\n{items}\n   }}\n  }}'
        )
    with open(REFERENCE_PATH, "w") as fh:
        fh.write('{"workloads": {\n' + ",\n".join(blocks) + "\n}}\n")


# --- one run ---------------------------------------------------------------


def measure_setup(workload_cls, seed: int, workdir: str, gauge: SpeedGauge):
    """Median over repeats of cold package import plus preparing the
    inputs of the first items, in raw and in reference seconds; returns
    them with the last prepared workload."""
    samples = []
    raw = []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, SRC],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"package import failed: {proc.stderr.strip()}")
        import_s = float(proc.stdout.split()[-1])
        t0 = perf_counter()
        workload = workload_cls(seed, workdir)
        prepared = [workload.make_input(i) for i in range(workload.setup_items)]
        raw.append(import_s + perf_counter() - t0)
        end = perf_counter()
        gauge.sample()
        samples.append(raw[-1] * gauge.scale(start, end))
    return statistics.median(samples), statistics.median(raw), workload, prepared


def run_one(name: str, seed: int, seconds: float, trace: bool,
            items: int = 0, record_reference: bool = False) -> tuple[dict, list]:
    """Run one workload; returns (result, extra lines to print before it).

    ``items`` > 0 runs exactly that many items instead of timing the loop
    (for checking or recording reference verdicts).
    """
    from spans import NullTracer, Tracer, check_balance, installed, write_trace
    import workloads
    from workloads import WORKLOADS, ItemFailure

    header = env_header(name, seed, seconds, trace)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        gauge = SpeedGauge(WORKLOADS[name].calibration_exponent)
        setup_s, setup_raw_s, workload, prepared = measure_setup(
            WORKLOADS[name], seed, workdir, gauge
        )
        reference_doc = load_reference()
        reference = reference_doc["workloads"].get(name, {}).get("items", {})
        tracer = Tracer() if trace else NullTracer()
        # compact, so that peak memory barely grows with the item count
        starts = array("d")
        latencies = array("d")
        failures: list = []
        recorded: dict = {}
        ref_checked = 0
        with installed(tracer, [workloads]) if trace else contextlib.nullcontext():
            gauge.sample()
            t_start = perf_counter()
            i = 0
            # a timed run ends at the first cycle boundary after `seconds`, so
            # every run does whole cycles of the workload's stratified mix
            while (i < items) if items else (
                perf_counter() - t_start < seconds or i % workload.cycle
            ):
                inp = prepared[i] if i < len(prepared) else workload.make_input(i)
                tracer.item = i
                t0 = perf_counter()
                try:
                    with tracer.span("item"):
                        out = workload.run(inp, tracer)
                except Exception:  # an item that raises is a failed item; keep going
                    out = None
                    failures.append([i, traceback.format_exc(limit=3)])
                latencies.append(perf_counter() - t0)
                starts.append(t0)
                tracer.item = None
                gauge.maybe_sample()
                if out is not None:
                    try:
                        key, record = workload.verify(inp, out)
                        record = json.loads(json.dumps(record))
                        want = reference.get(key)
                        if want is not None:
                            ref_checked += 1
                            if want != record:
                                raise ItemFailure(f"differs from reference {want!r}: {record!r}")
                        if record_reference:
                            recorded[key] = record
                    except ItemFailure as exc:
                        failures.append([i, str(exc)])
                i += 1
            wall = perf_counter() - t_start
            gauge.sample()
        try:
            workload.finish()
        except ItemFailure as exc:
            failures.append(["finish", str(exc)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies)
    failed = len({f[0] for f in failures})
    for item, message in failures[:5]:
        print(f"item {item} failed: {message}", file=sys.stderr)
    scaled = [lat * gauge.scale(t0, t0 + lat) for t0, lat in zip(starts, latencies)]
    items_per_s = attempted / sum(scaled)
    tail = tail_percentile(scaled)
    summary = {
        "items": attempted,
        "failed_share": failed / attempted,
        "item_tail_s": None if tail is None else tail[1],
        "tail_percentile": None if tail is None else round(tail[0], 2),
        "reference_checked": ref_checked,
        "timed_wall_s": wall,
        "raw": {
            "setup_s": setup_raw_s,
            "items_per_s": attempted / sum(latencies),
            "item_p50_s": statistics.median(latencies),
        },
        "calibration": {
            "ref_s": CALIBRATION_REF_S,
            "exponent": gauge.exponent,
            "samples": len(gauge.kernel_s),
            "kernel_median_s": statistics.median(gauge.kernel_s),
            "kernel_min_s": min(gauge.kernel_s),
            "kernel_max_s": max(gauge.kernel_s),
        },
        "loadavg_end": list(os.getloadavg()),
    }
    if trace:
        metrics = layer_metrics(tracer, wall, attempted, items_per_s)
        summary["trace_balance_error_s"] = check_balance(tracer, wall)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
        write_trace(tracer, path, {"env": header, "summary": summary})
        summary["trace_file"] = os.path.relpath(path, ROOT)
    else:
        values = {
            "setup_s": setup_s,
            "items_per_s": items_per_s,
            "item_p50_s": statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    if record_reference and not failures:
        entry = reference_doc["workloads"].setdefault(name, {"runs": [], "items": {}})
        entry["runs"] = sorted({tuple(r) for r in entry["runs"]} | {(seed, attempted)})
        entry["items"].update(recorded)
        save_reference(reference_doc)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, [{"env": header}, {"summary": summary}]


# --- per-layer metrics from a traced run ---------------------------------------

# spelled out rather than read from PropertyId: BENCHMARK.json names these
PROPERTY_IDS = ("BASE", "PD2", "PD57", "PD57_STRONG", "PD6", "PD7", "PD9", "PR4", "PR8")


def layer_names() -> list[str]:
    from spans import BENCH_SPANS, TRACED

    names = [name for _, _, name in TRACED if name != "properties.check_property"]
    names += [f"properties.check_property.{p}" for p in PROPERTY_IDS]
    names += [n for n in BENCH_SPANS if n != "item"]
    return names


# (name, unit, better) of every per-layer metric a traced run reports
def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for name in layer_names():
        spec.append((f"{name}.calls", "1/item", "lower"))
        spec.append((f"{name}.self_pct", "%", "lower"))
    spec += [(f"properties.check_property.{p}.holds", "1/item", "higher") for p in PROPERTY_IDS]
    spec += [
        ("correspondence.models_checked", "1/item", "higher"),
        ("correspondence.memo_hit_ratio", "ratio", "higher"),
        ("changegen.events_checked", "1/item", "higher"),
        ("cli.output_bytes", "B/item", "lower"),
        ("bench.self_pct", "%", "lower"),
        ("trace.items_per_s", "1/s", "higher"),
    ]
    return spec


def layer_metrics(tracer, wall: float, items: int, items_per_s: float) -> dict:
    from spans import layer_totals

    calls, self_s = layer_totals(tracer)
    values = {}
    for name in layer_names():
        values[f"{name}.calls"] = calls.get(name, 0) / items
        values[f"{name}.self_pct"] = 100.0 * self_s.get(name, 0.0) / wall
    for p in PROPERTY_IDS:
        key = f"properties.check_property.{p}.holds"
        values[key] = tracer.counters.get(key, 0) / items
    models = tracer.counters.get("correspondence.models_checked", 0)
    values["correspondence.models_checked"] = models / items
    contexts = calls.get("axioms.ModelContext.of", 0)
    values["correspondence.memo_hit_ratio"] = 1.0 - contexts / models if models else 0.0
    values["changegen.events_checked"] = tracer.counters.get("changegen.events_checked", 0) / items
    values["cli.output_bytes"] = tracer.counters.get("cli.output_bytes", 0) / items
    layered = sum(self_s.get(n, 0.0) for n in layer_names())
    values["bench.self_pct"] = 100.0 * (wall - layered) / wall
    values["trace.items_per_s"] = items_per_s
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


# --- every workload, untraced and traced ------------------------------------------


def _child(args: list[str]) -> tuple[dict, dict, int]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT,
    )
    sys.stderr.write(proc.stderr)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    summary = next((line["summary"] for line in lines if "summary" in line), {})
    return lines[-1], summary, proc.returncode


def run_all(seed: int, seconds: float, top: int = 8) -> int:
    """Run each workload in fresh processes, untraced then traced; print the
    end-to-end metrics, the tail, the tracing overhead and the heaviest
    layers; write everything to ``out/all-seed<seed>.json``."""
    from workloads import WORKLOADS

    rows = {}
    status = 0
    for name in WORKLOADS:
        base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        plain, summary, code_plain = _child(base + ["--trace", "0"])
        traced, traced_summary, code_traced = _child(base + ["--trace", "1"])
        status |= code_plain | code_traced
        untraced_rate = plain["metrics"]["items_per_s"]["value"]
        traced_rate = traced["metrics"]["trace.items_per_s"]["value"]
        rows[name] = {
            "untraced": plain, "summary": summary,
            "traced": traced, "traced_summary": traced_summary,
            "trace_overhead": 1.0 - traced_rate / untraced_rate,
        }
        print(f"== {name}  (seed {seed}, {seconds} s, {summary['items']} items, "
              f"failed_share {summary['failed_share']:.4f}, correct {plain['correct']})")
        for metric, unit in END_TO_END:
            print(f"  {metric:<14} {plain['metrics'][metric]['value']:>12.6g} {unit}")
        if summary.get("item_tail_s") is not None:
            print(f"  {'item_tail_s':<14} {summary['item_tail_s']:>12.6g} s"
                  f"  (p{summary['tail_percentile']}, N={summary['items']})")
        else:
            print(f"  {'item_tail_s':<14} {'-':>12}    (N={summary['items']}: too few items)")
        print(f"  trace overhead {100 * rows[name]['trace_overhead']:>11.1f} %  "
              f"(traced {traced_rate:.4g} vs untraced {untraced_rate:.4g} items/s)")
        shares = sorted(
            ((m[: -len('.self_pct')], v["value"]) for m, v in traced["metrics"].items()
             if m.endswith(".self_pct")),
            key=lambda kv: -kv[1],
        )
        for layer, pct in shares[:top]:
            calls = traced["metrics"].get(f"{layer}.calls", {}).get("value")
            extra = "" if calls is None else f"  {calls:.4g} calls/item"
            print(f"    {layer:<44} {pct:6.2f} % self{extra}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"all-seed{seed}.json"), "w") as fh:
        json.dump(rows, fh, indent=1)
    return status
