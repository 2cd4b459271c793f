import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from defectlab import bethe, checks, lax, tensor, thermo
from defectlab.bethe import BetheState, ground_state_seed
from defectlab.cli import (
    DEFAULT_TOLERANCES,
    RunConfig,
    _amplitude_rows,
    _json_columns,
    _load_config,
    _write_csv,
    _write_json,
    build_parser,
    main,
)
from defectlab.tensor import FockSpace

AMP_HEADER = (
    "lambda,closed_form_re,closed_form_im,integral_re,integral_im,"
    "logderiv_residual,sign,status"
)
DEN_HEADER = "lambda,sigma_re,sigma_im,bulk,hole_backflow,defect_re,defect_im"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "-o", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


# ---------------------------------------------------------------------------
# check command


def test_check_oscillator_no_seed_needed(tmp_path):
    code, text = run(tmp_path, "check", "oscillator", "--fock-cutoff", "3")
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == 1 and payload["all_passed"]
    assert [c["name"] for c in payload["checks"]] == ["oscillator-algebra"]


def test_check_randomized_requires_seed(capsys):
    code = main(["check", "ybe"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_check_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("DEFECTLAB_SEED", "9")
    code, text = run(tmp_path, "check", "ybe", "--rank", "2")
    assert code == 0
    payload = json.loads(text)
    assert payload["config"]["seed"] == 9


def test_check_ybe_report_contents(tmp_path):
    code, text = run(tmp_path, "check", "ybe", "--rank", "3", "--seed", "4")
    assert code == 0
    payload = json.loads(text)
    checks = payload["checks"]
    assert len(checks) == 6  # four R pairs, two S pairs
    assert all(c["name"] == "ybe" for c in checks)
    matrices = sorted(dict(c["parameters"])["matrix"] for c in checks)
    assert matrices == ["R", "R", "R", "R", "S", "S"]
    for c in checks:
        assert c["passed"] and c["residual"] <= c["tolerance"]


def test_check_all_passes_and_covers_every_check(tmp_path):
    code, text = run(
        tmp_path,
        "check",
        "all",
        "--rank",
        "2",
        "--fock-cutoff",
        "4",
        "--sites",
        "2",
        "--seed",
        "7",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["all_passed"]
    names = {c["name"] for c in payload["checks"]}
    assert names == {
        "ybe",
        "rll",
        "oscillator-algebra",
        "lax-crossing",
        "transmission-algebra",
        "transmission-crossing",
        "transfer-commute",
        "highest-weight",
        "gamma-identity",
    }


def test_check_runs_are_byte_identical(tmp_path):
    argv = ["check", "rll", "--rank", "2", "--fock-cutoff", "3", "--seed", "5"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main([*argv, "-o", str(a)]) == 0
    assert main([*argv, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_all_rank4_runs_are_byte_identical(tmp_path):
    argv = ["check", "all", "--rank", "4", "--fock-cutoff", "2", "--sites", "2", "--seed", "3"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main([*argv, "-o", str(a)]) == 0
    assert main([*argv, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_all_at_mixed_ranks_in_one_process_prints_what_a_fresh_process_prints(capsys):
    # the thread's work arrays carry the larger ranks' buffers into the later
    # runs, in the order 4, 2, 3, 4, 2; each run prints a fresh process's bytes
    runs = {rank: ["check", "all", "--rank", str(rank), "--fock-cutoff", str(6 - rank), "--seed", "7"]
            for rank in (2, 3, 4)}
    fresh = {
        rank: subprocess.run([sys.executable, "-m", "defectlab.cli", *argv], capture_output=True,
                             env=_cli_env(PYTHONPATH=str(SRC)), check=True).stdout
        for rank, argv in runs.items()
    }
    capsys.readouterr()
    for rank in (4, 2, 3, 4, 2):
        assert main(runs[rank]) == 0
        assert capsys.readouterr().out.encode() == fresh[rank], rank


@pytest.mark.parametrize("rank, cutoff, stacked", [("2", "5", [4, 4]), ("4", "2", [2, 2, 2, 2])])
def test_check_all_with_one_point_per_run_prints_the_same_bytes(tmp_path, monkeypatch, rank, cutoff, stacked):
    # with a one-byte stack size every run holds one entry of its stack (a
    # point, or a pair) and every transfer pass one point; the runs change no
    # report.  The points per transfer call: one stack of both pairs at rank
    # 2, one pair per run at rank 4, and the eight points one at a time
    argv = ["check", "all", "--rank", rank, "--fock-cutoff", cutoff, "--seed", "7"]
    points, transfer = [], lax.transfer
    monkeypatch.setattr(lax, "transfer", lambda chain, lam, x: points.append(np.size(lam)) or transfer(chain, lam, x))
    default = run(tmp_path, *argv)
    assert default[0] == 0 and points == stacked
    points.clear()
    monkeypatch.setattr(tensor, "STACK_BYTES", 1)
    assert run(tmp_path, *argv) == default
    assert points.count(1) == 8 and sum(points) == 16  # each pair's two points, twice, then one by one


@pytest.mark.parametrize(
    "argv, built",
    [
        (["check", "all", "--rank", "2", "--fock-cutoff", "5", "--seed", "11"], 1),
        (["check", "all", "--rank", "4", "--fock-cutoff", "2", "--seed", "11"], 1),
        (["check", "ybe", "--seed", "11"], 0),
        # a cutoff whose Fock operators exceed the byte budget refuses no suite
        # that has no oscillator
        (["check", "ybe", "--fock-cutoff", "100000", "--seed", "11"], 0),
        (["check", "gamma-identity", "--fock-cutoff", "100000"], 0),
    ],
    ids=["all-rank2", "all-rank4", "ybe", "ybe-huge-cutoff", "gamma-identity-huge-cutoff"],
)
def test_check_builds_one_fock_space_per_run(tmp_path, monkeypatch, argv, built):
    sizes = []
    init = FockSpace.__init__
    monkeypatch.setattr(
        FockSpace, "__init__", lambda self, *args: sizes.append(args) or init(self, *args)
    )
    assert run(tmp_path, *argv)[0] == 0
    assert len(sizes) == built, sizes


def test_check_over_the_byte_budget_is_refused_unallocated(capsys):
    # dimension 4 * 84 * 4**4 = 86,016, of which 35 * 4**4 = 8,960 quantum-space
    # columns are faithful: one auxiliary block of the monodromy on them would
    # take 12.3 GB, and the columns themselves 3.1 GB
    argv = ["check", "transfer-commute", "--rank", "4", "--fock-cutoff", "6", "--sites", "4", "--seed", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "monodromy block needs a 86016 x 8960 complex array (12.3 GB)" in err
    assert "budget" in err
    assert peak < 10 * 2**20


def test_transfer_commute_is_refused_before_its_column_index(capsys):
    # 20 bulk sites, rank 2, cutoff 5: 2**20 * 6 quantum states, of which
    # 2**20 * 4 are faithful columns, whose index alone would take 32 MiB
    argv = ["check", "transfer-commute", "--sites", "20", "--seed", "1"]
    main(argv)  # the first call in a process imports what the CLI imports lazily
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: monodromy block needs a 12582912 x 4194304 complex array (8.44e+05 GB), over the "
        "0.268 GB budget; reduce sites, rank or the Fock cutoff\n")
    assert peak < 2**20


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
def test_unwritable_output_is_refused_before_computing(tmp_path, capsys, monkeypatch, source, target):
    path = str(tmp_path / target)
    argv = ["check", "oscillator", "--fock-cutoff", "2"]
    if source == "flag":
        argv += ["-o", path]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": path}))
        argv += ["--config", str(cfg)]
    monkeypatch.setattr(checks, "check_oscillator_algebra", lambda *a, **k: pytest.fail("computed"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def test_output_probe_leaves_no_file_and_keeps_an_old_one(tmp_path):
    # the budget refusal comes after the probe: a new path stays absent, an
    # existing file keeps its bytes
    argv = ["check", "transfer-commute", "--rank", "4", "--fock-cutoff", "6", "--sites", "4", "--seed", "1"]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    assert main([*argv, "-o", str(new)]) == 2
    assert not new.exists()
    assert main([*argv, "-o", str(old)]) == 2
    assert old.read_text() == "kept"


def test_check_config_echo_omits_the_lambda_grid(tmp_path):
    # no check suite reads the grid, so the report does not echo it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_grid": {"min": -1, "max": 2, "count": 7}, "seed": 3}))
    code, text = run(tmp_path, "check", "ybe", "--config", str(cfg))
    assert code == 0
    echo = json.loads(text)["config"]
    assert sorted(echo) == ["chain_sites", "fock_cutoff", "ordering", "rank", "seed", "shift", "theta"]


@pytest.mark.parametrize(
    "suite, largest",
    [("rll", 27), ("transmission-algebra", 27), ("crossing", 18), ("transmission-crossing", 18)],
)
def test_budget_of_one_point_evaluates_each_stack_in_runs(tmp_path, monkeypatch, suite, largest):
    # rank 3, cutoff 2: one pair's product is 27 x 27, one operator 18 x 18;
    # a budget of one point's largest array refuses every stack of two or
    # more points whole, and the run reports what the default budget does
    argv = ["check", suite, "--rank", "3", "--fock-cutoff", "2", "--seed", "5"]
    code, expected = run(tmp_path, *argv)
    assert code == 0
    monkeypatch.setattr("defectlab.tensor.MATRIX_BYTE_BUDGET", largest * largest * 16)
    assert run(tmp_path, *argv) == (0, expected)


@pytest.mark.parametrize("suite", ["rll", "transmission-algebra"])
def test_exchange_relation_over_the_byte_budget_is_refused_unallocated(capsys, suite):
    # rank 5, cutoff 7: Fock dimension 330, 210 of its states below the
    # cutoff; the two operators (1650 x 1650 each) would fit, but one pair's
    # product on the kept Fock legs (25 * 210 = 5250 square) does not, and
    # it is refused before either operator is built
    argv = ["check", suite, "--rank", "5", "--fock-cutoff", "7", "--seed", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "exchange-relation product needs a 5250 x 5250 complex array (0.441 GB)" in err
    assert "budget" in err
    assert peak < 10 * 2**20


@pytest.mark.parametrize("argv, refusal", [
    # 999 species at cutoff 1: a Fock space of 1,000 states, whose 2 x 999
    # ladders would be kept, 16 MB each
    (["check", "oscillator"], "Fock ladders needs a 1998 x 1000 x 1000 complex array (32 GB)"),
    # the monodromy's columns e_l (x) vacuum, one per auxiliary index
    (["check", "highest-weight", "--sites", "0"],
     "monodromy block needs a 1000000 x 1000 complex array (16 GB)"),
], ids=["oscillator", "highest-weight"])
def test_rank_1000_fock_suites_are_refused_unallocated(capsys, argv, refusal):
    # the basis alone peaks at about 8 MiB, and one ladder would add 15.3 MiB
    tracemalloc.start()
    try:
        code = main(argv + ["--rank", "1000", "--fock-cutoff", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert refusal in err and "budget" in err
    assert peak < 16 * 2**20


@pytest.mark.parametrize("suite", [
    ["highest-weight", "--sites", "0"], ["crossing", "--seed", "1"], ["transmission-crossing"],
], ids=lambda suite: suite[0])
def test_highest_weight_refuses_its_ladders_unallocated(capsys, suite):
    # rank 20, cutoff 3: 1,540 Fock states; the monodromy block (30,800 x 20)
    # fits, the defect's Lax operator (30,800 x 30,800), which the monodromy
    # builds, does not, and it is refused before any Fock ladder is built.
    # The crossing checks build operators of the same size, and their
    # builders refuse them before any work array is taken
    tracemalloc.start()
    try:
        code = main(["check", *suite, "--rank", "20", "--fock-cutoff", "3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "oscillator operator needs a 30800 x 30800 complex array (15.2 GB)" in err
    assert peak < 10 * 2**20


@pytest.mark.parametrize("rank", ["2", "4"])
def test_transfer_commute_huge_theta_fails_without_warnings(capsys, rank):
    # the transfer products overflow at theta = 1e300; the non-finite
    # residual fails the check, with nothing on stderr
    argv = ["check", "transfer-commute", "--rank", rank, "--theta", "1e300", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = json.loads(captured.out, parse_constant=pytest.fail)["checks"]
    assert [r["residual"] for r in reports] == [None, None]


@pytest.mark.parametrize("rank", ["2", "4"])
def test_rll_huge_shift_fails_without_warnings(capsys, rank):
    # the exchange-relation products overflow at shift = 1e300; each pair's
    # non-finite residual fails the check, with nothing on stderr
    argv = ["check", "rll", "--rank", rank, "--fock-cutoff", "2", "--shift", "1e300", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = json.loads(captured.out, parse_constant=pytest.fail)["checks"]
    assert [r["residual"] for r in reports] == [None] * 6
    assert not any(r["passed"] for r in reports)


def test_check_tolerance_override_can_fail(tmp_path):
    code, text = run(
        tmp_path, "check", "oscillator", "--fock-cutoff", "3", "--tol", "oscillator=1e-300"
    )
    assert code == 1
    assert not json.loads(text)["all_passed"]


@pytest.mark.parametrize("source", ["flag", "config", "environment"])
def test_negative_seed_is_refused(tmp_path, capsys, monkeypatch, source):
    argv = ["check", "ybe"]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(config)]
    else:
        monkeypatch.setenv("DEFECTLAB_SEED", "-1")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be >= 0, got -1" in captured.err


def test_check_rll_alternative_convention_passes(tmp_path):
    # reordering/shifting only translates the spectral parameter, so the
    # exchange relation holds and the run must exit 0
    code, text = run(
        tmp_path,
        "check",
        "rll",
        "--rank",
        "2",
        "--fock-cutoff",
        "3",
        "--ordering",
        "antinormal",
        "--shift",
        "0",
        "--seed",
        "3",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["all_passed"]
    assert payload["config"]["ordering"] == "antinormal"
    assert payload["config"]["shift"] == 0.0


def test_bad_tol_flag(capsys):
    assert main(["check", "oscillator", "--tol", "oscillator"]) == 2
    assert "NAME=VALUE" in capsys.readouterr().err


def test_one_parser_serves_every_call_of_a_process(capsys):
    # the parser is built once per process, and neither a refused call nor a
    # --tol leaves anything in it for the next call
    assert build_parser() is build_parser()
    assert main(["check", "nonesuch", "--seed", "1"]) == 2
    assert main(["check", "ybe", "--seed", "1", "--tol", "ybe=1e-3"]) == 0
    loose = json.loads(capsys.readouterr().out)
    assert {c["tolerance"] for c in loose["checks"]} == {1e-3}
    assert main(["check", "ybe", "--seed", "1"]) == 0
    default = json.loads(capsys.readouterr().out)
    assert {c["tolerance"] for c in default["checks"]} == {DEFAULT_TOLERANCES["ybe"]}


@pytest.mark.parametrize(
    "argv, config, named",
    [
        ([], {"fock_cutof": 3}, "'fock_cutof'"),
        ([], {"tolerances": {"ybee": 1e-9}}, "'ybee'"),
        (["--tol", "oscilator=1e-30"], None, "'oscilator'"),
        ([], [3], "JSON object"),
    ],
    ids=["config-key", "config-tolerance", "tol-flag", "not-an-object"],
)
def test_unknown_config_key_or_tolerance_is_refused(tmp_path, capsys, argv, config, named):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(["check", "oscillator", "--fock-cutoff", "2", *argv]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("route", ["tol-flag", "config"])
def test_removed_calibration_tolerance_is_refused(tmp_path, capsys, route):
    # no check reads this key: each ordering's exchange relation is an rll
    # report under the rll key
    if route == "tol-flag":
        argv = ["--tol", "calibrate-ordering=1e-8"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tolerances": {"calibrate-ordering": 1e-8}}))
        argv = ["--config", str(path)]
    assert main(["check", "rll", "--seed", "1", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: bad configuration: unknown tolerance 'calibrate-ordering'; known: "
        f"{', '.join(sorted(DEFAULT_TOLERANCES))}\n"
    )


def test_unknown_suite_is_usage_error(capsys):
    assert main(["check", "nonsense"]) == 2


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["check", "oscillator", "--config", str(cfg)]) == 2
    assert "configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, named",
    [
        ({"theta": 0.3}, "'theta' cannot take 0.3"),
        ({"rank": None}, "'rank' cannot take null"),
        ({"lambda_grid": [1, 2, 3]}, "'lambda_grid' cannot take [1, 2, 3]"),
        ({"tolerances": [1]}, "'tolerances' cannot take [1]"),
        ({"seed": "x"}, "'seed' cannot take \"x\""),
        ({"output": 5}, "'output' cannot take 5"),
        ({"output": None}, "'output' cannot take null"),
        ({"format": 5}, "'format' cannot take 5"),
        ({"format": "JSON"}, "'format' cannot take \"JSON\""),
        ({"ordering": 5}, "'ordering' cannot take 5"),
        ({"fock_cutoff": 2.5}, "'fock_cutoff' cannot take 2.5"),
        ({"seed": 1.5}, "'seed' cannot take 1.5"),
        ({"rank": "3"}, "'rank' cannot take \"3\""),
        ({"shift": 10 ** 400}, f"'shift' cannot take {10 ** 400}"),
        ({"lambda_grid": {"min": -1, "max": 1, "count": 3.9}},
         "'lambda_grid' cannot take {\"min\": -1, \"max\": 1, \"count\": 3.9}"),
        ({"lambda_grid": {"min": -1, "max": 1, "count": 3, "step": 1}},
         "'lambda_grid' cannot take {\"min\": -1, \"max\": 1, \"count\": 3, \"step\": 1}"),
        ({"tolerances": {"ybe": True}}, "'tolerances' cannot take {\"ybe\": true}"),
    ],
    ids=["theta-number", "rank-null", "grid-list", "tolerances-list", "seed-string",
         "output-number", "output-null", "format-number", "format-upper-case", "ordering-number",
         "cutoff-float", "seed-float", "rank-string", "shift-overflow", "grid-count-float",
         "grid-extra-key", "tolerance-bool"],
)
def test_mistyped_config_value_is_refused_with_its_key(
    tmp_path, capsys, monkeypatch, config, named
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    opened, real_open = [], open

    def config_only_open(file, *args, **kwargs):
        opened.append(file)
        if file != str(path):  # {"output": 5} must not reach descriptor 5
            raise OSError(f"opened {file!r}")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", config_only_open)
    assert main(["amplitudes", "--config", str(path)]) == 2
    assert opened == [str(path)]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad configuration: config key {named}\n"


@pytest.mark.parametrize(
    "argv, seed, named",
    [
        (["check", "ybe"], "1.5", "error: bad configuration: DEFECTLAB_SEED cannot take '1.5'"),
        (["check", "ybe", "--seed", "1", "--tol", "ybe=abc"], None,
         "error: bad configuration: --tol ybe cannot take 'abc'"),
        (["amplitudes", "--grid", "0", "1", "3.5"], None,
         "error: bad configuration: --grid COUNT cannot take '3.5'"),
        (["density", "--theta", "x"], None, "argument --theta: invalid complex value: 'x'"),
    ],
    ids=["seed-variable", "tol-flag", "grid-flag", "theta-flag"],
)
def test_value_that_does_not_convert_is_refused_with_its_source(
    capsys, monkeypatch, argv, seed, named
):
    monkeypatch.delenv("DEFECTLAB_SEED", raising=False)
    if seed is not None:
        monkeypatch.setenv("DEFECTLAB_SEED", seed)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"{named}\n") and captured.err.count("error") == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rank": 3, "fock_cutoff": 3, "seed": 11}))
    code, text = run(tmp_path, "check", "ybe", "--config", str(cfg), "--rank", "2")
    assert code == 0
    echo = json.loads(text)["config"]
    assert echo["rank"] == 2  # flag wins
    assert echo["fock_cutoff"] == 3
    assert echo["seed"] == 11


def test_every_config_key_and_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "rank": 3, "fock_cutoff": 4, "chain_sites": 1, "theta": [0.5, -0.25],
        "lambda_grid": {"min": -1, "max": 2, "count": 7}, "tolerances": {"ybe": 1e-9},
        "seed": 12, "output": "x.json", "format": "csv", "ordering": "antinormal", "shift": 2,
    }))
    parser = build_parser()
    # config files are shared: every subcommand accepts every known key
    for command in (["check", "ybe"], ["amplitudes"], ["bae", "st.json"], ["density"]):
        got = _load_config(parser.parse_args([*command, "--config", str(cfg)]))
        assert (got.rank, got.fock_cutoff, got.chain_sites, got.theta) == (3, 4, 1, 0.5 - 0.25j)
        assert got.lambda_grid == (-1.0, 2.0, 7) and got.tolerances == {"ybe": 1e-9}
        assert (got.seed, got.output, got.fmt, got.ordering, got.shift) == (
            12, "x.json", "csv", "antinormal", 2.0)
    # each subcommand's flags override the file
    got = _load_config(parser.parse_args([
        "check", "ybe", "--config", str(cfg), "--rank", "2", "--fock-cutoff", "3",
        "--sites", "0", "--theta", "0.1+0.2j", "--tol", "rll=1e-7", "--seed", "5",
        "-o", "y.json", "--ordering", "normal", "--shift", "0.5",
    ]))
    assert (got.rank, got.fock_cutoff, got.chain_sites, got.theta) == (2, 3, 0, 0.1 + 0.2j)
    assert got.tolerances == {"ybe": 1e-9, "rll": 1e-7}
    assert (got.seed, got.output, got.ordering, got.shift) == (5, "y.json", "normal", 0.5)
    assert (got.lambda_grid, got.fmt) == ((-1.0, 2.0, 7), "csv")
    got = _load_config(parser.parse_args([
        "amplitudes", "--config", str(cfg), "--rank", "2", "--grid", "0", "1", "3",
        "--tol", "amplitudes=1e-7", "--format", "json", "-o", "y.csv",
    ]))
    assert (got.rank, got.lambda_grid, got.fmt, got.output) == (2, (0.0, 1.0, 3), "json", "y.csv")
    assert got.tolerances == {"ybe": 1e-9, "amplitudes": 1e-7}
    got = _load_config(parser.parse_args(
        ["bae", "st.json", "--config", str(cfg), "--tol", "bae=1e-8", "-o", "y.json"]
    ))
    assert (got.tolerances, got.output) == ({"ybe": 1e-9, "bae": 1e-8}, "y.json")
    got = _load_config(parser.parse_args([
        "density", "--config", str(cfg), "--rank", "2", "--theta", "0.7",
        "--grid", "0", "1", "3", "--format", "json", "-o", "y.json",
    ]))
    assert (got.rank, got.theta, got.lambda_grid) == (2, 0.7 + 0j, (0.0, 1.0, 3))
    assert (got.fmt, got.output) == ("json", "y.json")


# every (subcommand, flag) pair that the subcommand does not read
REFUSED_FLAGS = [
    ("check", "--grid"), ("check", "--format"),
    ("amplitudes", "--fock-cutoff"), ("amplitudes", "--sites"), ("amplitudes", "--theta"),
    ("amplitudes", "--seed"),
    ("bae", "--rank"), ("bae", "--fock-cutoff"), ("bae", "--sites"), ("bae", "--theta"),
    ("bae", "--grid"), ("bae", "--seed"), ("bae", "--format"),
    ("density", "--fock-cutoff"), ("density", "--sites"), ("density", "--seed"),
    ("density", "--tol"),
]
FLAG_VALUES = {"--grid": ["0", "1", "3"], "--format": ["json"], "--tol": ["amplitudes=1"]}


@pytest.mark.parametrize("command, flag", REFUSED_FLAGS, ids=[f"{c}{f}" for c, f in REFUSED_FLAGS])
def test_flag_a_subcommand_does_not_read_is_refused(tmp_path, capsys, command, flag):
    # each of these runs exits 0 when the flag is ignored
    if command == "bae":
        st = BetheState(rank=2, sites=4, roots=(ground_state_seed(4),), theta=0.3, defect_sign="+")
        head = ["bae", str(_write_state(tmp_path, st))]
    else:
        head = [command, "oscillator"] if command == "check" else [command]
    assert main([*head, flag, *FLAG_VALUES.get(flag, ["2"])]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


def test_library_tolerance_defaults_match_the_cli_table():
    defaults = {
        checks.check_ybe: "ybe",
        checks.check_rll: "rll",
        checks.check_oscillator_algebra: "oscillator",
        checks.check_lax_crossing: "crossing",
        checks.check_transmission_algebra: "transmission-algebra",
        checks.check_transmission_crossing: "transmission-crossing",
        checks.check_transfer_commute: "transfer-commute",
        checks.check_highest_weight: "highest-weight",
        thermo.check_gamma_identity: "gamma-identity",
        bethe.solve_bae: "bae",
    }
    for fn, name in defaults.items():
        tol = inspect.signature(fn).parameters["tol"].default
        assert tol == DEFAULT_TOLERANCES[name], (fn.__name__, tol)


# ---------------------------------------------------------------------------
# amplitudes command


def test_amplitudes_csv(tmp_path):
    code, text = run(
        tmp_path, "amplitudes", "--rank", "2", "--sign", "minus", "--grid", "-2", "2", "5"
    )
    assert code == 0
    header, *rows = text.strip().split("\n")
    assert header == AMP_HEADER
    assert len(rows) == 5
    for row in rows:
        fields = row.split(",")
        assert fields[6] == "-" and fields[7] == "ok"
        closed = complex(float(fields[1]), float(fields[2]))
        integral = complex(float(fields[3]), float(fields[4]))
        assert abs(closed - integral) / abs(closed) < 1e-6


def test_amplitudes_json_both_signs(tmp_path):
    code, text = run(
        tmp_path,
        "amplitudes",
        "--rank",
        "3",
        "--grid",
        "-1",
        "1",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert payload["max_residual"] <= payload["tolerance"]
    assert len(payload["rows"]) == 6  # both signs over three points
    signs = {r["sign"] for r in payload["rows"]}
    assert signs == {"+", "-"}


def test_amplitudes_bad_grid(capsys):
    assert main(["amplitudes", "--grid", "0", "1", "1"]) == 2


@pytest.mark.parametrize("command", ["amplitudes", "density"])
@pytest.mark.parametrize("lo, hi", [("-1e308", "1e308"), ("1e308", "-1e308")])
def test_grid_whose_span_overflows_is_refused(capsys, command, lo, hi):
    # MIN and MAX are finite but MAX - MIN is not, so every step of the grid
    # would be infinite and its points NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--rank", "3", "--grid", lo, hi, "3"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: bad configuration: lambda grid span MAX - MIN must be finite, "
        f"got {float(hi)!r} - {float(lo)!r}\n")


@pytest.mark.parametrize("command, entries, gigabytes", [("amplitudes", 512, "8.19e+06"),
                                                          ("density", 256, "4.1e+06")])
def test_grid_count_over_the_budget_is_refused_unallocated(capsys, command, entries, gigabytes):
    # 10**12 points: the report's rows, 4 KiB (256 complex entries) each, one
    # per sign and point, outnumber the budget's 65,536 rows, and are refused
    # before np.linspace builds the grid
    rows = 10**12 * entries // 256
    tracemalloc.start()
    try:
        code = main([command, "--grid", "-1", "1", str(10**12)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: a lambda grid of 1000000000000 points needs {rows} report rows, over the 65536 "
        f"rows of 4 KiB that the byte budget holds ({gigabytes} GB against 0.268 GB); "
        f"reduce the grid's COUNT\n")
    assert peak < 10 * 2**20


def test_amplitude_grid_one_point_over_the_row_budget_is_refused_unallocated(capsys):
    # 32,769 points of both signs are 65,538 rows of 4 KiB: two over the
    # 256 MiB budget, refused before any amplitude is evaluated
    argv = ["amplitudes", "--sign", "both", "--grid", "-1", "1", "32769"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: a lambda grid of 32769 points needs 65538 report rows, over the 65536 rows")
    assert err.endswith("reduce the grid's COUNT\n")
    assert peak < 10 * 2**20


def test_amplitudes_nan_rows_fail(tmp_path, capsys):
    # every row overflows to NaN; the worst residual is NaN, not 0.0, and the
    # report writes each NaN as null, since NaN is no JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(
            tmp_path, "amplitudes", "--rank", "2", "--sign", "+",
            "--grid", "1e308", "1.7e308", "3", "--format", "json",
        )
    assert code == 1
    payload = json.loads(text, parse_constant=pytest.fail)
    assert payload["max_residual"] is None
    assert all(r["logderiv_residual"] is None for r in payload["rows"])
    assert all(r["status"] == "nonfinite" for r in payload["rows"])
    # one line that names the rows, no numpy RuntimeWarning
    assert capsys.readouterr().err == (
        "warning: amplitude rows not finite: lambda 1e+308 sign +, "
        "lambda 1.35e+308 sign +, lambda 1.7e+308 sign +\n"
    )


def test_amplitude_row_with_a_nan_integral_alone_is_nonfinite():
    lams = np.linspace(-2.0, 2.0, 5)
    log_t, dlog_t = thermo.amplitude_quadrature(thermo.KernelTable(2), ("+",), lams)["+"]
    (_, _, _, status), worst = _amplitude_rows(2, "+", lams, log_t, dlog_t)
    assert status.tolist() == ["ok"] * 5 and worst < 1e-6
    log_t[3] = complex("nan")
    (closed, integral, residual, status), worst = _amplitude_rows(2, "+", lams, log_t, dlog_t)
    assert status.tolist() == ["ok", "ok", "ok", "nonfinite", "ok"]
    assert worst != worst
    assert np.isfinite(closed).all() and np.isfinite(residual).all()
    assert np.isfinite(integral).tolist() == [True, True, True, False, True]


def test_amplitude_pole_row_is_all_nan(tmp_path):
    # at rank 5e7 the '+' numerator at lambda = 0 is 1/(2n) = 1e-8, on the guard
    code, text = run(tmp_path, "amplitudes", "--rank", "50000000", "--sign", "+",
                     "--grid", "-1", "1", "3")
    assert code == 1
    rows = text.strip().split("\n")[1:]
    assert rows[1] == "0.0,nan,nan,nan,nan,nan,+,pole"
    assert [row.split(",")[-1] for row in rows] == ["ok", "pole", "ok"]


def test_csv_columns_are_written_by_repr(tmp_path):
    values = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1.7e308, 1.0, 0.1 + 0.2]
    words = ["a", "", "+", "-", "ok", "pole", "x y", "nonfinite"]
    zs = [complex(re, im) for re, im in zip(values, values[::-1])]
    cfg = RunConfig(output=str(tmp_path / "out.csv"))
    _write_csv(cfg, {"value": np.array(values), "z": np.array(zs), "word": words})
    expected = "".join(
        f"{repr(float(v))},{repr(z.real)},{repr(z.imag)},{w}\n" for v, z, w in zip(values, zs, words)
    )
    assert (tmp_path / "out.csv").read_bytes() == ("value,z_re,z_im,word\n" + expected).encode()
    with pytest.raises(ValueError):
        _write_csv(cfg, {"value": np.array(values), "word": words[:-1]})


def test_json_columns_write_a_complex_value_as_a_pair_and_a_nonfinite_float_as_null(tmp_path):
    values = [-0.0, float("nan"), float("inf"), 5e-324, 0.1 + 0.2]
    zs = [complex(-0.0, 1.5), complex("nan+1j"), complex(2.0, float("-inf")), 1e-300j, 0j]
    words = ["a", "", "ok", "pole", "x y"]
    listed = _json_columns({"value": np.array(values), "z": np.array(zs), "word": words})
    assert list(listed) == ["value", "z", "word"]
    # by repr, which tells -0.0 from 0.0 and matches a NaN
    assert repr(listed["z"]) == repr([[z.real, z.imag] for z in zs])
    assert all(type(x) is float for pair in listed["z"] for x in pair)
    assert repr(listed["value"]) == repr(values)
    assert listed["word"] == words
    out = tmp_path / "out.json"
    _write_json(RunConfig(output=str(out)), listed)
    assert json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(token)) == {
        "value": [-0.0, None, None, 5e-324, 0.1 + 0.2],
        "z": [[-0.0, 1.5], [None, 1.0], [2.0, None], [0.0, 1e-300], [0.0, 0.0]],
        "word": words,
    }
    assert '"z": [\n    [\n      -0.0,\n      1.5\n    ],' in out.read_text()


def test_amplitudes_keep_the_negative_zero_at_the_origin(tmp_path):
    code, text = run(tmp_path, "amplitudes", "--rank", "2", "--grid", "-1", "1", "3")
    assert code == 0
    rows = [row.split(",") for row in text.strip().split("\n")[1:]]
    assert {r[6]: r[4] for r in rows if r[0] == "0.0"} == {"-": "-0.0", "+": "0.0"}


@pytest.mark.parametrize("lo", ["-1e-3", "-1E-3", "-.5e1", "-1.", "-2"])
def test_amplitudes_take_a_negative_grid_bound_in_any_float_notation(tmp_path, lo):
    code, text = run(tmp_path, "amplitudes", "--rank", "2", "--grid", lo, "1", "3")
    assert code == 0
    assert float(text.split("\n")[1].split(",")[0]) == float(lo)


CROSSING = ["check", "crossing", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, named",
    [
        ([*CROSSING, "--theta", "nan"], "theta"),
        ([*CROSSING, "--theta", "1+infj"], "theta"),
        ([*CROSSING, "--shift", "nan"], "shift"),
        ([*CROSSING, "--shift=-inf"], "shift"),
        (["amplitudes", "--grid", "nan", "1", "3"], "lambda grid min"),
        (["amplitudes", "--grid", "0", "inf", "3"], "lambda grid max"),
        ([*CROSSING, "--tol", "crossing=inf"], "tolerance crossing"),
        ([*CROSSING, "--tol", "crossing=nan"], "tolerance crossing"),
    ],
)
def test_non_finite_config_value_is_refused(capsys, argv, named):
    assert main(argv) == 2
    assert f"{named} must be finite" in capsys.readouterr().err


def test_non_finite_config_file_value_is_refused(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"theta": [0.0, float("inf")], "tolerances": {"ybe": 1e-9}}))
    assert main(["check", "ybe", "--seed", "1", "--config", str(path)]) == 2
    assert "theta must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bae command


STATE = {"schema": 1, "rank": 2, "sites": 4, "theta": 0.3, "defect_sign": "+", "roots": [[]]}


def _write_state(tmp_path, state, name="state.json"):
    path = tmp_path / name
    path.write_text(state.to_json())
    return path


def test_bae_round_trip(tmp_path):
    st = BetheState(
        rank=2, sites=4, roots=(ground_state_seed(4),), theta=0.3, defect_sign="+"
    )
    path = _write_state(tmp_path, st)
    code, text = run(tmp_path, "bae", str(path))
    assert code == 0
    payload = json.loads(text)
    assert payload["converged"] and payload["residual"] <= payload["tolerance"]
    solved = BetheState.from_dict(payload["state"])
    assert solved.magnon_counts() == (2,)
    assert solved.defect_sign == "+"


def test_bae_missing_file(capsys):
    assert main(["bae", "/nonexistent/state.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bae_malformed_state(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "rank": 2}))
    assert main(["bae", str(path)]) == 2
    assert capsys.readouterr().err == "error: cannot read state file: missing key 'sites'\n"


@pytest.mark.parametrize(
    "text, named",
    [
        ("[1, 2]", "a state must be a JSON object, got list"),
        ('"state"', "a state must be a JSON object, got str"),
        (json.dumps({**STATE, "theta": None}), "theta must be a real number"),
        (json.dumps({**STATE, "sites": [4]}), "sites must be an integer"),
        (json.dumps({**STATE, "defect_level": "one"}), "defect_level must be an integer"),
        (json.dumps({**STATE, "roots": 0.3}), "roots must be a list of levels"),
        (json.dumps({**STATE, "rank": 2.7}), "rank must be an integer"),
        (json.dumps({**STATE, "sites": 4.9}), "sites must be an integer"),
        (json.dumps({**STATE, "rank": True}), "rank must be an integer"),
        (json.dumps({**STATE, "theta": "0.3"}), "theta must be a real number"),
        (json.dumps({**STATE, "theta": 10 ** 400}), "theta must be a real number"),
        (json.dumps({**STATE, "defect_levle": 2}), "unknown key 'defect_levle'"),
        (json.dumps({**STATE, "schema": True}), "unsupported schema True"),
        (json.dumps({**STATE, "schema": 1.0}), "unsupported schema 1.0"),
        (json.dumps({**STATE, "rank": 3, "roots": [[], []], "defect_level": 2}),
         "defect_level must be 1 for defect_sign '+' at rank 3, got 2"),
        (json.dumps({**STATE, "rank": 3, "roots": [[], []], "defect_sign": "-", "defect_level": 1}),
         "defect_level must be 2 for defect_sign '-' at rank 3, got 1"),
        (json.dumps({**STATE, "theta": float("nan")}), "theta must be finite"),
        (json.dumps({**STATE, "theta": float("inf")}), "theta must be finite"),
        (json.dumps({**STATE, "roots": [[[float("nan"), 0.0]]]}), "roots must be finite"),
    ],
    ids=["list", "string", "theta-null", "sites-list", "defect-level-string", "roots-number",
         "rank-float", "sites-float", "rank-bool", "theta-string", "theta-overflow",
         "misspelt-key", "bool-schema", "float-schema", "plus-on-level-2", "minus-on-level-1",
         "theta-nan", "theta-infinity", "root-nan"],
)
def test_bae_mistyped_state_file_is_refused(tmp_path, capsys, text, named):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["bae", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read state file: {named}")
    assert captured.err.count("\n") == 1


def test_bae_bad_defect_sign_is_named(tmp_path, capsys):
    state = json.loads(
        BetheState(rank=2, sites=4, roots=(ground_state_seed(4),), defect_sign="+").to_json()
    )
    state["defect_sign"] = "plus"
    path = tmp_path / "bad_sign.json"
    path.write_text(json.dumps(state))
    assert main(["bae", str(path)]) == 2
    assert "'plus'" in capsys.readouterr().err


def test_bae_nonconvergent_reports_trace(tmp_path):
    # a tolerance below round-off: the solve converges as far as it can, then
    # its line search stalls
    st = BetheState(rank=2, sites=4, roots=([-0.28, 0.28],), theta=0.3, defect_sign="+")
    path = _write_state(tmp_path, st)
    code, text = run(tmp_path, "bae", str(path), "--tol", "bae=1e-300")
    assert code == 1
    payload = json.loads(text)
    assert payload["converged"] is False
    assert payload["error"].startswith("line search stalled at residual")
    assert len(payload["trace"]) >= 2


def test_bae_overflowing_solve_reports_strict_json(tmp_path):
    # e_1 ** sites overflows for a root off the real axis: the trace is NaN,
    # written as null
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**STATE, "sites": 100000, "roots": [[[0.1, 0.3], [0.28, 0.0]]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "bae", str(path))
    assert code == 1
    payload = json.loads(text, parse_constant=pytest.fail)
    assert payload["converged"] is False
    assert payload["trace"] == [None]


@pytest.mark.parametrize("sign", ["+", "-"])
def test_bae_huge_theta_fails_without_warnings(tmp_path, capsys, sign):
    # trial steps overflow the impurity factor at theta = 1e300; the solve
    # rejects them and reports its failure, with nothing on stderr
    st = BetheState(rank=2, sites=50, roots=(ground_state_seed(50),), theta=1e300, defect_sign=sign)
    path = _write_state(tmp_path, st)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bae", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out, parse_constant=pytest.fail)["converged"] is False


def test_bae_collision_exits_with_error(tmp_path, capsys):
    st = BetheState(rank=2, sites=2, roots=(np.array([0.2, 0.2 + 1e-12]),))
    path = _write_state(tmp_path, st)
    out = tmp_path / "out.txt"
    assert main(["bae", str(path), "-o", str(out)]) == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# density command


def test_density_csv(tmp_path):
    code, text = run(
        tmp_path, "density", "--rank", "2", "--sign", "minus", "--grid", "-2", "2", "9"
    )
    assert code == 0
    header, *rows = text.strip().split("\n")
    assert header == DEN_HEADER
    assert len(rows) == 9


def test_density_json(tmp_path):
    code, text = run(
        tmp_path,
        "density",
        "--rank",
        "3",
        "--level",
        "2",
        "--sign",
        "plus",
        "--grid",
        "-1",
        "1",
        "5",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == 1 and payload["level"] == 2 and payload["sign"] == "+"


def test_density_csv_and_json_carry_the_library_profile(tmp_path):
    argv = (
        "density", "--sign", "minus", "--hole", "0.4", "--theta", "0.2",
        "--density-sites", "50", "--grid", "-2", "2", "9",
    )
    code, csv_text = run(tmp_path, *argv)
    assert code == 0
    code, json_text = run(tmp_path, *argv, "--format", "json")
    assert code == 0
    prof = thermo.density(
        thermo.KernelTable(2), 1, "-", np.linspace(-2, 2, 9), hole=0.4, theta=0.2, sites=50
    )
    payload = json.loads(json_text)
    # as JSON text, floats by repr, so that a -0.0 read as 0.0 would show
    assert json.dumps(payload, sort_keys=True) == json.dumps({
        "schema": 1, "rank": prof.rank, "level": prof.level, "sign": prof.sign, "hole": prof.hole,
        "theta": prof.theta, "sites": prof.sites, "tail_bound": prof.tail_bound,
        "lambda": prof.lams.tolist(),
        "sigma": [[z.real, z.imag] for z in prof.total.tolist()],
        "bulk": prof.bulk.tolist(),
        "hole_backflow": prof.hole_backflow.tolist(),
        "defect": [[z.real, z.imag] for z in prof.defect.tolist()],
    }, sort_keys=True)
    header, *rows = csv_text.strip().split("\n")
    assert header == DEN_HEADER
    # repr round-trips, so every CSV field reads back as the JSON float
    assert [[float(x) for x in row.split(",")] for row in rows] == [
        [lam, *sigma, bulk, back, *defect]
        for lam, sigma, bulk, back, defect in zip(
            payload["lambda"], payload["sigma"], payload["bulk"],
            payload["hole_backflow"], payload["defect"],
        )
    ]


def test_density_bad_level(capsys):
    assert main(["density", "--rank", "2", "--level", "5"]) == 2


@pytest.mark.parametrize("hole", ["nan", "inf"])
def test_density_rejects_non_finite_hole(tmp_path, capsys, hole):
    code, text = run(tmp_path, "density", "--hole", hole, "--grid", "-1", "1", "3")
    assert code == 2 and text == ""
    assert f"hole must be finite, got {float(hole)}" in capsys.readouterr().err


def test_density_rejects_complex_theta(tmp_path, capsys):
    code, text = run(tmp_path, "density", "--rank", "2", "--theta", "0.3+0.2j")
    assert code == 2 and text == ""
    assert "real theta" in capsys.readouterr().err



def test_density_takes_negative_values_in_scientific_notation(tmp_path):
    code, text = run(
        tmp_path, "density", "--grid", "-1e-3", "1", "3",
        "--theta", "-2.5e-1", "--hole", "-1E-1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(text)
    assert (payload["lambda"][0], payload["theta"], payload["hole"]) == (-1e-3, -0.25, -0.1)


def test_negative_infinity_reaches_the_finiteness_check(tmp_path, capsys):
    # '-inf' is a value, not an unknown flag
    code, text = run(tmp_path, "density", "--hole", "-inf", "--grid", "-1", "1", "3")
    assert code == 2 and text == ""
    assert "hole must be finite, got -inf" in capsys.readouterr().err


def test_density_nonfinite_rows_fail(tmp_path, capsys):
    # lam * omega overflows on two of the three rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "density", "--rank", "2", "--grid", "0", "1.7e308", "3")
    assert code == 1
    header, *rows = text.strip().split("\n")
    assert header == DEN_HEADER and len(rows) == 3
    assert all(np.isfinite(float(v)) for v in rows[0].split(","))
    assert all(np.isnan(float(v)) for row in rows[1:] for v in row.split(",")[1:])
    # one line that names the rows, no numpy RuntimeWarning
    assert capsys.readouterr().err == (
        "warning: density rows not finite: lambda 8.5e+307, lambda 1.7e+308\n"
    )


# ---------------------------------------------------------------------------
# environment round trips (subprocess)


def _cli_env(**extra):
    return {**os.environ, **extra}


def test_seed_env_subprocess(tmp_path):
    argv = [sys.executable, "-m", "defectlab.cli", "check", "ybe", "--rank", "2"]
    done = subprocess.run(
        argv, capture_output=True, text=True, env=_cli_env(DEFECTLAB_SEED="13")
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["config"]["seed"] == 13
