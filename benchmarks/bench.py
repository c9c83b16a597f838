"""protofilter benchmark: closed-loop calls into the public API by one caller.

    python3 benchmarks/bench.py --workload eval_ref --seed 0 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/`` next
to this directory, never from an installed copy.  The run sets up (import,
dataset generation, one warm-up call), makes calls until they have taken
``--seconds`` seconds, then checks a sample of the outputs against a plain-numpy
recomputation.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it makes only the calls it then replays with every
layer wrapped, and reports per-layer counts and self times instead.  The last
line of standard output is one JSON object; the line before it holds the
environment and details of the run.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One caller, workers=1: keep BLAS to the calling thread unless the user
# asks otherwise.  Must be set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 9
SETUP_TIMEOUT_S = 60
CHECKED_CALLS = 5
TAIL_BEYOND = 10
FAILURES_SHOWN = 5
SPANS_DIR = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("eval_ref", "eval_rbf_20shot", "sweep_ref_5lambda", "train_fd"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_library() -> float:
    """Import protofilter from this checkout's ``src``; returns the time taken."""
    if not (SRC / "protofilter" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library source at {SRC / 'protofilter'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import protofilter
    elapsed = time.perf_counter() - start
    if not Path(protofilter.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: imported protofilter from {protofilter.__file__}, not {SRC}")
    return elapsed


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "protofilter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": _thread_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def fresh_set_up_s(workload_name: str, seed: int) -> float:
    """Time of one set-up in a new interpreter: importing protofilter and
    its dependencies, generating the dataset, and one warm-up call."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import protofilter\n"
        "from workloads import WORKLOADS\n"
        f"WORKLOADS[{workload_name!r}]({seed}).set_up()\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=SETUP_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1])


def run_calls(workload, seconds: float, set_ups: int, max_calls: int | None = None):
    """Call ``workload`` closed-loop until the calls alone have taken
    ``seconds`` (or ``max_calls`` calls are made), timing one calibration
    probe before each call and pausing ``set_ups`` times, evenly spread
    over the call time, for a fresh set-up.  Returns outputs (None for a
    call that raised), call latencies, probe times, set-up times, and the
    indices of calls that raised."""
    from calibration import probe_s

    outputs, latencies, probes, set_up_times, raised = [], [], [], [], []
    call_s = 0.0
    index = 0
    while call_s < seconds and (max_calls is None or index < max_calls):
        if len(set_up_times) < set_ups and call_s >= len(set_up_times) * seconds / set_ups:
            set_up_times.append(fresh_set_up_s(workload.name, workload.seed))
        probes.append(probe_s())
        began = time.perf_counter()
        try:
            output = workload.call(index)
        except Exception:  # a failed call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            output = None
            raised.append(index)
        latencies.append(time.perf_counter() - began)
        call_s += latencies[-1]
        outputs.append(output)
        index += 1
    return outputs, latencies, probes, set_up_times, raised


def check_sample(workload, outputs, seed: int) -> tuple[list[int], dict[int, list[str]]]:
    """Recompute a seeded sample of calls (always including call 0)."""
    candidates = [i for i, out in enumerate(outputs) if out is not None]
    if not candidates:
        return [], {}
    rest = candidates[1:]
    chosen = [candidates[0]] + random.Random(seed).sample(rest, min(CHECKED_CALLS - 1, len(rest)))
    problems = {}
    for index in sorted(chosen):
        found = workload.check(index, outputs[index])
        if found:
            problems[index] = found
    return sorted(chosen), problems


def probe_ratio(latencies: list[float], probes: list[float]) -> float:
    """Median call time in probe passes, each call against the probe timed
    just before it (see calibration.py)."""
    return statistics.median(lat / probe for lat, probe in zip(latencies, probes, strict=True))


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least TAIL_BEYOND samples above it,
    and its percentile rank."""
    ordered = sorted(latencies)
    position = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[position], 100.0 * (position + 1) / len(ordered)


def layer_metrics(trace, workload, calls: int, overhead: float) -> dict:
    group = trace.group_sum
    episodes = calls * workload.episodes
    steps = calls * workload.steps
    rows = {
        "data.calls": (group(trace.calls, "data"), "count"),
        "data.self_s": (group(trace.self_s, "data"), "s"),
        "kernels.calls": (group(trace.calls, "kernels"), "count"),
        "kernels.self_s": (group(trace.self_s, "kernels"), "s"),
        "kernels.entries": (group(trace.values, "kernels"), "count"),
        "centering.calls": (group(trace.calls, "centering"), "count"),
        "centering.self_s": (group(trace.self_s, "centering"), "s"),
        "spectral.eig_calls": (group(trace.calls, "spectral.eig"), "count"),
        "spectral.eig_self_s": (group(trace.self_s, "spectral.eig"), "s"),
        "spectral.filter_calls": (group(trace.calls, "spectral.filter"), "count"),
        "spectral.filter_self_s": (group(trace.self_s, "spectral.filter"), "s"),
        "classifier.pairs": (trace.calls.get("protofilter.classifier.distance_sq", 0), "count"),
        "classifier.self_s": (group(trace.self_s, "classifier"), "s"),
        "classifier.distance_self_s": (group(trace.self_s, "classifier.distance"), "s"),
        "classifier.softmax_loss_self_s": (group(trace.self_s, "classifier.softmax_loss"), "s"),
        "harness.self_s": (group(trace.self_s, "harness"), "s"),
        "harness.samples_per_episode": (
            trace.calls.get("protofilter.harness.sample_episode", 0) / episodes, "ratio"),
        "harness.eig_per_class_episode": (
            group(trace.calls, "spectral.eig") / (episodes * workload.way), "ratio"),
        "training.self_s": (group(trace.self_s, "training"), "s"),
        "training.fd_self_s": (group(trace.self_s, "training.fd"), "s"),
        "training.loss_evals_per_step": (
            trace.calls.get("protofilter.training.episodes_loss", 0) / steps if steps else 0.0,
            "ratio"),
        "trace_overhead_ratio": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()}


def traced_replay(workload, outputs, latencies, probes, seed: int):
    """Replay the run's calls with every layer wrapped.  Returns the trace,
    the overhead ratio, the indices whose traced output differs from the
    untraced one, and the path of the kept spans."""
    from calibration import probe_s
    from layertrace import LayerTrace

    differs = []
    traced, traced_probes = [], []
    with LayerTrace() as trace:
        for index, untraced in enumerate(outputs):
            trace.request = index
            traced_probes.append(probe_s())
            began = time.perf_counter()
            try:
                output = workload.call(index)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                output = None
            traced.append(time.perf_counter() - began)
            if output != untraced:
                differs.append(index)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"{workload.name}-seed{seed}-spans.jsonl"
    with spans_path.open("w", encoding="utf-8") as out:
        for record in trace.span_records():
            out.write(json.dumps(record) + "\n")
    overhead = probe_ratio(traced, traced_probes) / probe_ratio(latencies, probes)
    return trace, overhead, differs, spans_path


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.set_up()
    # the traced run only needs the untraced twins of the calls it replays
    set_up_reps, max_calls = (0, workload.trace_calls) if args.trace else (SETUP_REPS, None)
    outputs, latencies, probes, set_ups, raised = run_calls(
        workload, args.seconds, set_up_reps, max_calls)
    attempted = len(outputs)
    checked, problems = check_sample(workload, outputs, args.seed)
    failed_calls = set(raised) | set(problems)

    info = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup": {"import_s": import_s},
        "calls": attempted,
        "episodes_per_call": workload.episodes,
        "steps_per_call": workload.steps,
        "checked_calls": checked,
        "raised_calls": raised,
        "check_failures": [msg for found in problems.values() for msg in found][:FAILURES_SHOWN],
    }

    if args.trace:
        trace, overhead, differs, spans_path = traced_replay(
            workload, outputs, latencies, probes, args.seed)
        failed_calls |= set(differs)
        metrics = layer_metrics(trace, workload, attempted, overhead)
        info["traced_calls"] = attempted
        info["traced_output_differs"] = differs
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        info["layers"] = trace.report()
    else:
        good = [workload.accuracy_and_loss(out) for out in outputs if out is not None]
        accuracies = [a for a, _ in good if a is not None]
        passes_per_call = probe_ratio(latencies, probes)
        call_s = sum(latencies)
        tail_s, tail_rank = tail(latencies)
        info["setup"]["fresh_s"] = set_ups
        info.update({
            "call_samples": len(latencies),
            "call_p50_ms": statistics.median(latencies) * 1e3,
            "call_tail_ms": tail_s * 1e3,
            "call_tail_percentile": tail_rank,
            "probe_p50_ms": statistics.median(probes) * 1e3,
            "call_probe_passes": passes_per_call,
            "episodes_per_s": attempted * workload.episodes / call_s,
            "steps_per_s": attempted * workload.steps / call_s if workload.steps else None,
            "steps_per_probe": workload.steps / passes_per_call if workload.steps else None,
            "accuracy_mean": statistics.fmean(accuracies) if accuracies else None,
            "mean_loss": statistics.fmean(loss for _, loss in good) if good else None,
        })
        metrics = {
            "setup_s": {"value": statistics.median(set_ups), "unit": "s"},
            "episodes_per_probe": {"value": workload.episodes / passes_per_call,
                                   "unit": "1/probe"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }

    info["failed_ratio"] = len(failed_calls) / attempted
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed_calls,
        "attempted": attempted,
        "failed": len(failed_calls),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
