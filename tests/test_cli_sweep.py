"""The CLI's reports stay byte-identical across refactors (see cli_sweep.py).

Where numpy, Python or the platform differ from the ones that
recorded the digests, floats may round differently, so the sweep is run
twice and the two runs must agree instead.  An intended output change
regenerates the digests with ``python tests/cli_sweep.py --write``.
"""

import cli_sweep


def test_cli_sweep_matches_recorded_digests():
    recorded = cli_sweep.load()
    got = cli_sweep.run_sweep()
    if recorded["environment"] == cli_sweep.environment():
        expected = recorded["invocations"]
    else:
        expected = cli_sweep.run_sweep()
    assert cli_sweep.differences(expected, got) == []


def _record(argv, stdout, exit=0, stderr="", written=None):
    return {"argv": argv, "env": {}, "exit": exit, "stdout": stdout, "stderr": stderr,
            "written": written or {}}


def test_compare_reports_field_changes_exit_codes_and_stderr():
    csv = "lambda,closed_re,sign\n0.0,1.0,+\n1.0,{},+\n"
    old = [
        _record(["amplitudes"], csv.format("2.0")),
        _record(["bae", "state.json"], '{"residual": 1.0, "trace": [NaN]}', exit=1,
                stderr="warning: a\n", written={"out.json": '{"x": [1.0, 2.0]}'}),
        _record(["check", "ybe"], '{"all_passed": true}'),
    ]
    new = [
        _record(["amplitudes"], csv.format("2.5")),
        _record(["bae", "state.json"], '{"residual": 1.0, "trace": [null]}', exit=2,
                stderr="warning: b\n", written={"out.json": '{"x": [1.0, 2.0]}'}),
        _record(["check", "ybe"], '{"all_passed": true}'),
    ]
    assert cli_sweep.compare(old, new) == [
        "#0 amplitudes",
        "  stdout closed_re: 1 of 2 values, max abs 0.5, max rel 0.2",
        "#1 bae state.json",
        "  exit: 1 -> 2",
        "  stderr: -warning: a",
        "  stderr: +warning: b",
        "  stdout trace[]: 1 of 1 values, 1 not between finite numbers, e.g. nan -> None",
        "2 of 3 invocations differ; 1 exit codes and 1 stderr texts changed; "
        "largest absolute change 0.5 (#0 amplitudes)",
    ]
    assert cli_sweep.compare(old, old) == [
        "0 of 3 invocations differ; 0 exit codes and 0 stderr texts changed; "
        "largest absolute change 0"
    ]
