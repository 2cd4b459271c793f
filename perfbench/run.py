"""defectlab benchmark: seeded, closed-loop workloads of real CLI invocations.

Run from the repository root:

    python3 perfbench/run.py --workload cert-large --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): cert-large, cert-small,
scan, bethe.  One client runs one workload in a closed loop in a worker
process with BLAS pinned to one thread; every output is verified.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median wall time of five fresh interpreters importing
  ``defectlab.cli`` (after one unmeasured import that fills the bytecode
  cache), the start-up cost a CLI user pays on every call;
* ``throughput_ops_s``: verified ops per second of op time;
* ``latency_p50_s``: median op time;
* ``peak_rss_mb``: the worker's peak resident set size.

Times are scaled to a reference machine speed: the time of each CLI call
and of each import is multiplied by ``speed.REF_S`` over the mean of the
speed probes (speed.py) taken just before and after it.  On a shared machine
whose speed drifts by tens of percent, this keeps the run-to-run spread of
the medians within a few percent; the summary also prints the unscaled
figures.

The failed fraction is ``failed / attempted`` in the result line.  The
summary above it also gives the sample count, the tail latency (the highest
percentile with at least ten samples beyond it, or why there is none), the
input and output digests, and the environment.  With ``--trace 1`` a
separate traced run reports the per-layer metrics of layers.py.  A record of
every run is written to ``.perfbench/runs/`` in the checkout.

The last line of stdout is the JSON result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
TAIL_BEYOND = 10


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEFECTLAB_")}
    env.update({"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"})
    return env


def import_seconds(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import defectlab.cli"], env=env, cwd=ROOT,
                   check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(env: dict) -> float:
    import_seconds(env)
    times, probes = [], [speed.probe()]
    for _ in range(SETUP_SAMPLES):
        times.append(import_seconds(env))
        probes.append(speed.probe())
    return statistics.median(speed.scaled(t, a, b) for t, a, b in zip(times, probes, probes[1:]))


def tail_latency(latencies: list) -> tuple | None:
    """(percentile, value) for the highest whole percentile above the median
    with at least TAIL_BEYOND samples beyond it, by the nearest-rank rule."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return None


def end_to_end(run: dict, setup: float) -> tuple:
    lat = run["scaled_latencies"]
    verified = run["attempted"] - run["failed"]
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "throughput_ops_s": {"value": verified / sum(lat), "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }
    tail = tail_latency(lat)
    wall = run["latencies"]
    notes = [f"latency_p50_s over {len(lat)} ops; unscaled: p50 {statistics.median(wall):.6g} s, "
             f"{verified / run['window_s']:.6g} verified ops/s over the {run['window_s']:.3g} s window, "
             f"{len(run['probes_s'])} speed probes, median {statistics.median(run['probes_s']) * 1e3:.4g} ms"]
    if tail:
        notes.append(f"latency_tail_s {tail[1]:.6g} s at p{tail[0]} of {len(lat)} ops")
        run["latency_tail"] = {"percentile": tail[0], "value_s": tail[1], "samples": len(lat)}
    else:
        notes.append(f"latency_tail_s omitted: {len(lat)} ops leave no percentile above the median "
                     f"with {TAIL_BEYOND} samples beyond it")
    return metrics, notes


def run_worker(args, env: dict, workdir: Path, record: Path, budget: float) -> dict:
    result = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--workdir", str(workdir), "--result", str(result)]
    if args.trace:
        cmd += ["--spans", str(record.with_suffix(".spans.jsonl.gz"))]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=budget, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed.pin_blas(os.environ)  # for the speed probe here and every child process
    if not (ROOT / "src" / "defectlab" / "cli.py").is_file():
        print(f"error: no defectlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    scratch = ROOT / ".perfbench"
    (scratch / "runs").mkdir(parents=True, exist_ok=True)
    record_path = scratch / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        setup = None if args.trace else setup_seconds(env)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            budget = DEADLINE_S - (time.perf_counter() - started)
            run = run_worker(args, env, Path(tmp), record_path, budget)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = run["failed"] == 0 and run["deterministic"]
    if args.trace:
        units = dict(run.pop("units"))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(run["metrics"].items())}
        total = sum(run["layer_self_s"].values())
        shares = ", ".join(f"{k} {v / total:.1%}" for k, v in sorted(
            run["layer_self_s"].items(), key=lambda kv: -kv[1]))
        notes = [f"{run['traced_ops']} traced ops; self time by layer: {shares}"]
        if run["stall_probe_failure"]:
            notes.append(f"no-impurity stall probe failed, as known: {run['stall_probe_failure'][:160]}")
        if run["counter_errors"]:
            notes.append(f"{run['counter_errors']:g} work counters could not read their call")
    else:
        metrics, notes = end_to_end(run, setup)

    name = f"{args.workload} seed {args.seed} {'traced' if args.trace else 'timed'}"
    print(f"{name}: attempted {run['attempted']}, failed {run['failed']} "
          f"(failed_frac {run['failed'] / run['attempted']:.4g}), "
          f"deterministic {run['deterministic']}")
    for failure in run["failures"]:
        print(f"  failure: {failure}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    inputs = wl.digest("".join(run["input_digests"]))
    outputs = wl.digest("".join(run["output_digests"]))
    print(f"  inputs digest {inputs} (first op {run['input_digests'][0]}), outputs digest {outputs}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in run["environment"].items()))

    record = dict(run, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, metrics=metrics, inputs_digest=inputs, outputs_digest=outputs)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
