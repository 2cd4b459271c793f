"""Tests of the benchmark itself: verifiers, span arithmetic, tracing
transparency, input generation and the BENCHMARK.json contract.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import tracer as tr
import worker
import workloads as wl
from defectlab import cli, tensor

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return worker.Runner(cli.main, tmp_path_factory.mktemp("state"))


@pytest.fixture(scope="module")
def outputs(runner):
    """Genuine (call, exit code, stdout) for op 0 of the cheap workloads."""
    got = {}
    for name in ("cert-small", "scan", "bethe"):
        op = wl.WORKLOADS[name].op(0, 0)
        for call in op.calls:
            if call.state is not None:
                runner.state_path.write_text(call.state)
            argv = [str(runner.state_path) if a == wl.STATE else a for a in call.argv]
            code, out, _ = runner.invoke(argv)
            got[call.argv[0]] = (call, code, out)
    return got


def rejects(call, code, out):
    with pytest.raises(wl.VerificationError):
        call.verify(code, out)


def test_genuine_outputs_pass(outputs):
    for call, code, out in outputs.values():
        call.verify(code, out)


def test_check_verifier_rejects_flipped_verdicts(outputs):
    call, code, out = outputs["check"]
    payload = json.loads(out)
    rejects(call, code, out.replace('"all_passed": true', '"all_passed": false'))
    one_failed = json.loads(out)
    one_failed["checks"][3]["passed"] = False
    rejects(call, code, json.dumps(one_failed))
    above = json.loads(out)
    above["checks"][0]["residual"] = above["checks"][0]["tolerance"] * 10
    rejects(call, code, json.dumps(above))
    rejects(call, 1, out)
    assert payload["all_passed"] is True


def test_amplitude_verifier_rejects_truncated_or_wrong_rows(outputs):
    call, code, out = outputs["amplitudes"]
    lines = out.splitlines()
    rejects(call, code, "\n".join(lines[:-1]) + "\n")
    rejects(call, code, "\n".join(lines[:1]) + "\n")
    row = lines[5].split(",")
    row[3] = repr(float(row[3]) * (1 + 1e-4))
    rejects(call, code, "\n".join(lines[:5] + [",".join(row)] + lines[6:]) + "\n")


def test_density_verifier_rejects_truncated_or_wrong_bulk(outputs):
    call, code, out = outputs["density"]
    lines = out.splitlines()
    rejects(call, code, "\n".join(lines[:-3]) + "\n")
    row = lines[100].split(",")
    row[3] = repr(float(row[3]) + 1e-8)
    rejects(call, code, "\n".join(lines[:100] + [",".join(row)] + lines[101:]) + "\n")


def test_bae_verifier_rejects_residual_above_tolerance(outputs):
    call, code, out = outputs["bae"]
    payload = json.loads(out)
    payload["residual"] = 2 * wl.BAE_TOL
    rejects(call, code, json.dumps(payload))
    rejects(call, 1, json.dumps({"schema": 1, "converged": False, "error": "stalled", "trace": [1.0]}))
    rejects(call, code, out[: len(out) // 2])


def test_self_time_on_hand_built_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0, False),
        ("lax.monodromy", 1.0, 4.0, 0, 0, False),
        ("tensor.embed_pair", 2.0, 3.0, 1, 0, False),
        ("checks.rll_residual", 5.0, 9.0, 0, 0, False),
        ("checks.rll_residual", 6.0, 8.5, 3, 0, True),
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5])
    assert tr.layer_self_times(spans) == pytest.approx(
        {"cli": 3.0, "lax": 2.0, "tensor": 1.0, "checks": 4.0})
    assert sum(tr.layer_self_times(spans).values()) == pytest.approx(10.0)
    assert tr.outermost(spans, "checks.rll_residual") == [spans[3]]
    assert tr.inside(spans, "tensor.embed_pair", "lax.monodromy") == [spans[2]]
    assert tr.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)


def test_wrapper_records_nesting_and_failure():
    t = tr.Tracer()

    def boom():
        raise ValueError("no")

    inner = t.wrap("b.inner", boom)
    outer = t.wrap("a.outer", lambda: inner())
    with pytest.raises(ValueError):
        outer()
    (name_i, _, _, parent_i, _, failed_i), (name_o, _, _, parent_o, _, failed_o) = t.spans[1], t.spans[0]
    assert (name_o, parent_o, failed_o) == ("a.outer", -1, True)
    assert (name_i, parent_i, failed_i) == ("b.inner", 0, True)


def test_traced_and_untraced_stdout_digests_agree(runner):
    ops = [wl.WORKLOADS[name].op(5, 1) for name in ("cert-small", "scan", "bethe")]
    plain = [runner.execute(op) for op in ops]
    t = tr.Tracer()
    original = tensor.embed_pair
    runner.main = t.wrap(layers.ROOT, cli.main)
    try:
        with layers.instrumented(t):
            assert tensor.embed_pair is not original
            traced = [runner.execute(op) for op in ops]
    finally:
        runner.main = cli.main
    assert tensor.embed_pair is original
    for p, q in zip(plain, traced):
        assert p.failure is None and q.failure is None
        assert [wl.digest(o) for o in p.outputs] == [wl.digest(o) for o in q.outputs]
    layers_seen = {tr.layer(s[tr.NAME]) for s in t.spans}
    assert {"cli", "tensor", "lax", "checks", "kernels", "thermo", "special", "bethe"} <= layers_seen
    metrics = layers.layer_metrics(layers.span_totals(t.spans), t, len(ops))
    assert metrics["lax.monodromy.calls"] > 0 and metrics["bethe.iterations"] > 0
    assert t.counts.get("trace.counter_errors", 0) == 0


def test_inputs_depend_only_on_seed_and_index():
    for w in wl.WORKLOADS.values():
        first = [c.input_digest() for i in range(4) for c in w.op(7, i).calls]
        again = [c.input_digest() for i in range(4) for c in w.op(7, i).calls]
        other = [c.input_digest() for i in range(4) for c in w.op(8, i).calls]
        assert first == again
        assert first != other


def test_bethe_theta_is_stratified():
    thetas = [wl._bethe_theta(3, i) for i in range(wl.BETHE_BLOCK)]
    assert sorted(int((t + 2.0) * wl.BETHE_BLOCK / 4.0) for t in thetas) == list(range(wl.BETHE_BLOCK))


def test_tail_latency_needs_ten_samples_beyond():
    assert run.tail_latency([1.0] * 20) is None
    pct, value = run.tail_latency([float(i) for i in range(100)])
    assert pct == 90 and value == 89.0


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    fake = {"latencies": [1.0, 2.0], "scaled_latencies": [1.0, 2.0], "probes_s": [0.004] * 3,
            "attempted": 2, "failed": 0, "window_s": 3.0, "peak_rss_kb": 1024}
    metrics, _ = run.end_to_end(fake, 0.5)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, v["unit"]) for k, v in metrics.items()]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
