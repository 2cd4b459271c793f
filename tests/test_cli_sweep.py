"""The CLI's contract and reports stay the same across refactors (see cli_sweep.py).

The argv, env and exit code of every invocation are compared with
cli_sweep.json on every environment.  Where numpy, Python or the platform
differ from the ones that recorded the digests, floats may round
differently, so the output digests must agree with a second run instead.
An intended output change regenerates the record with
``python tests/cli_sweep.py --write``.
"""

import json

import pytest

import cli_sweep


@pytest.fixture(scope="module")
def outputs():
    return cli_sweep.run_outputs()


def test_cli_sweep_matches_recorded_digests(outputs):
    got = [cli_sweep.digest(record) for record in outputs]
    expected = cli_sweep.expected(cli_sweep.load(), cli_sweep.run_sweep)
    assert cli_sweep.differences(expected, got) == []


def _strict(token):
    raise ValueError(f"not strict JSON: {token}")


def test_every_json_report_of_the_sweep_is_strict(outputs):
    loose = []
    for record in outputs:
        for where, text in [("stdout", record["stdout"]), *record["written"].items()]:
            try:
                json.loads(text)
            except ValueError:
                continue  # a CSV report, a help text or nothing
            try:
                json.loads(text, parse_constant=_strict)
            except ValueError as exc:
                loose.append(f"{' '.join(record['argv'])} {where}: {exc}")
    assert loose == []


def test_a_report_written_to_a_file_holds_what_the_same_invocation_prints(outputs):
    # the rows that repeat an earlier invocation in the same interpreter with
    # -o: the check all sequence at ranks 4, 2 and 4, and the 400-site solve
    def key(case, argv):
        return tuple(argv), json.dumps(case["env"]), json.dumps(case["files"])

    printed = {key(case, case["argv"]): r["stdout"] for case, r in zip(cli_sweep.INVOCATIONS, outputs)}
    compared = []
    for case, record in zip(cli_sweep.INVOCATIONS, outputs):
        argv = case["argv"]
        if "-o" not in argv:
            continue
        i = argv.index("-o")
        plain = key(case, argv[:i] + argv[i + 2:])
        if plain in printed:
            assert record["written"][argv[i + 1]] == printed[plain], " ".join(argv)
            compared.append(argv[i + 1])
    assert len(compared) == 5, compared


def _record(argv, stdout, exit=0, stderr="", written=None):
    return {"argv": argv, "env": {}, "exit": exit, "stdout": stdout, "stderr": stderr,
            "written": written or {}}


def test_another_environment_still_pins_the_recorded_exit_codes(monkeypatch):
    recorded = {"environment": {"numpy": "1.0"},
                "invocations": [_record(["check", "ybe"], "a", exit=1), _record(["bae", "s.json"], "b")]}
    # a second run that rounds and exits differently: its digests count, its exit codes do not
    rerun = [_record(["check", "ybe"], "c", exit=0), _record(["bae", "s.json"], "d")]
    monkeypatch.setattr(cli_sweep, "environment", lambda: {"numpy": "2.0"})
    assert cli_sweep.expected(recorded, lambda: rerun) == [
        _record(["check", "ybe"], "c", exit=1), _record(["bae", "s.json"], "d")]
    assert cli_sweep.differences(cli_sweep.expected(recorded, lambda: rerun), rerun) == [
        "check ybe : exit"]
    # the recording environment takes every field from the record, with no second run
    monkeypatch.setattr(cli_sweep, "environment", lambda: {"numpy": "1.0"})
    assert cli_sweep.expected(recorded, pytest.fail) == recorded["invocations"]


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
