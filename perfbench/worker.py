"""Runs one workload in a closed loop inside this interpreter.

Started by ``run.py`` as its own process, with PYTHONPATH naming the
checkout's ``src``.  Each op calls ``defectlab.cli.main(argv)`` in-process
and starts only after the previous one returned and was verified.  The
result goes to the JSON file named by ``--result``.

Untraced mode times ops until ``--seconds`` have passed, then runs op 0 again
and requires byte-identical stdout.  Traced mode runs a fixed list of ops
once without tracing, then repeats the list with every layer wrapped until
``--seconds`` have passed, and requires every traced op to print exactly
what its untraced run printed.
"""

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
import speed


@dataclass
class OpResult:
    index: int
    latency: float = 0.0
    scaled_latency: float = 0.0
    outputs: list = field(default_factory=list)
    input_digests: list = field(default_factory=list)
    failure: str | None = None

    @property
    def output_bytes(self) -> int:
        return sum(len(out.encode()) for out in self.outputs)


class Runner:
    def __init__(self, main, workdir: Path):
        self.main = main
        self.state_path = workdir / "state.json"
        self.probes = []  # speed probe times, when execute() is asked to probe

    def invoke(self, argv) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(list(argv))
            except Exception:  # a crash is a failed op, not a benchmark error
                code = None
                err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def execute(self, op: wl.Op, probe: bool = False) -> OpResult:
        """Run and verify an op.  With ``probe``, the machine's speed is
        probed before and after each call, and the op's time is also given
        at the reference speed (speed.py)."""
        result = OpResult(op.index)
        for call in op.calls:
            if call.state is not None:
                self.state_path.write_text(call.state)
            argv = [str(self.state_path) if a == wl.STATE else a for a in call.argv]
            if probe and not self.probes:
                self.probes.append(speed.probe())
            start = time.perf_counter()
            code, out, err = self.invoke(argv)
            elapsed = time.perf_counter() - start
            result.latency += elapsed
            if probe:
                self.probes.append(speed.probe())
                result.scaled_latency += speed.scaled(elapsed, *self.probes[-2:])
            result.outputs.append(out)
            result.input_digests.append(call.input_digest())
            if result.failure is None:
                try:
                    call.verify(code, out)
                except wl.VerificationError as exc:
                    result.failure = f"op {op.index} {' '.join(call.argv[:1])}: {exc} {err.strip()[-300:]}"
        return result


def timed(runner: Runner, workload: wl.Workload, seed: int, seconds: float) -> dict:
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(runner.execute(workload.op(seed, len(results)), probe=True))
    window = time.perf_counter() - start
    again = runner.execute(workload.op(seed, 0))
    return {
        "window_s": window,
        "ops": results,
        "scaled_latencies": [r.scaled_latency for r in results],
        "probes_s": runner.probes,
        "deterministic": again.outputs == results[0].outputs,
    }


def traced(runner: Runner, workload: wl.Workload, seed: int, seconds: float, spans_path: Path) -> dict:
    import layers  # imports numpy, so only after main() pinned BLAS
    import tracer as tr
    from defectlab import cli

    ops = [workload.op(seed, i) for i in range(workload.trace_ops)]
    plain = [runner.execute(op) for op in ops]  # also warms caches for the timings below
    tracer = tr.Tracer()
    runner.main = tracer.wrap(layers.ROOT, cli.main)
    results, totals, roots, spans = [], Counter(), 0.0, 0
    with layers.instrumented(tracer), gzip.open(spans_path, "wt") as dump:
        start = time.perf_counter()
        while not results or time.perf_counter() - start < seconds:
            for op in ops:
                tracer.op = len(results)
                results.append(runner.execute(op, probe=True))
            # fold each pass into totals so memory holds one pass of spans
            totals.update(layers.span_totals(tracer.spans))
            roots += sum(s[tr.END] - s[tr.START] for s in tracer.spans if s[tr.PARENT] < 0)
            spans += len(tracer.spans)
            if len(results) == len(ops):
                for span in tracer.spans:
                    dump.write(json.dumps(span) + "\n")
            tracer.spans.clear()
    runner.main = cli.main
    warm = [runner.execute(op, probe=True) for op in ops]
    same = all(r.outputs == plain[i % len(ops)].outputs for i, r in enumerate(results + warm))
    metrics = layers.layer_metrics(totals, tracer, len(results))
    untraced_s = sum(r.scaled_latency for r in warm) / len(warm)
    traced_s = sum(r.scaled_latency for r in results) / len(results)
    metrics.update({
        "cli.output_bytes": sum(r.output_bytes for r in results) / len(results),
        "trace.untraced_ops_s": 1.0 / untraced_s,
        "trace.traced_ops_s": 1.0 / traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.accounted_frac": roots / sum(r.latency for r in results),
        "trace.spans": spans / len(results),
    })
    stall = runner.execute(wl.stall_probe()).failure if workload.name == "bethe" else None
    metrics["bethe.stall_probe_failed"] = float(stall is not None)
    return {
        "ops": plain + results + warm,
        "deterministic": same,
        "metrics": {name: metrics[name] for name, _ in layers.PER_LAYER},
        "units": layers.PER_LAYER,
        "layer_self_s": {m: metrics[f"{m}.self_s"] for m in ("cli",) + layers.MODULES},
        "stall_probe_failure": stall,
        "counter_errors": tracer.counts.get("trace.counter_errors", 0.0),
        "traced_ops": len(results),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(root: Path) -> dict:
    import importlib.util

    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "numba_present": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="traced mode: gzipped JSON lines of the first pass's spans")
    args = parser.parse_args(argv)

    speed.pin_blas(os.environ)
    import defectlab
    from defectlab import cli

    src = (args.root / "src").resolve()
    if src not in Path(defectlab.__file__).resolve().parents:
        print(f"error: defectlab imported from {defectlab.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    runner = Runner(cli.main, args.workdir)
    if args.trace:
        run = traced(runner, workload, args.seed, args.seconds, args.spans)
    else:
        run = timed(runner, workload, args.seed, args.seconds)
    ops = run.pop("ops")
    run.update({
        "attempted": len(ops),
        "failed": sum(1 for r in ops if r.failure),
        "failures": [r.failure for r in ops if r.failure][:5],
        "latencies": [r.latency for r in ops],
        "input_digests": [d for r in ops for d in r.input_digests],
        "output_digests": [wl.digest(out) for r in ops for out in r.outputs],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(args.root),
    })
    args.result.write_text(json.dumps(run, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
