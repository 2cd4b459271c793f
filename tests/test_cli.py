import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from defectlab import bethe, checks, thermo
from defectlab.bethe import BetheState, ground_state_seed
from defectlab.cli import DEFAULT_TOLERANCES, _load_config, build_parser, main
from defectlab.tensor import FockSpace

AMP_HEADER = (
    "lambda,closed_form_re,closed_form_im,integral_re,integral_im,"
    "logderiv_residual,sign,status"
)
DEN_HEADER = "lambda,sigma_re,sigma_im,bulk,hole_backflow,defect_re,defect_im"


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
        "calibrate-ordering",
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


@pytest.mark.parametrize("suite", ["rll", "transmission-algebra"])
def test_exchange_relation_over_the_byte_budget_is_refused_unallocated(capsys, suite):
    # rank 5, cutoff 7: Fock dimension 330, 210 of its states below the
    # cutoff; the two operators (1650 x 1650 each) fit, the column block not
    argv = ["check", suite, "--rank", "5", "--fock-cutoff", "7", "--seed", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "exchange-relation column block needs a 8250 x 5250 complex array (0.693 GB)" in err
    assert "budget" in err
    assert peak < 200 * 2**20


def test_check_tolerance_override_can_fail(tmp_path):
    code, text = run(
        tmp_path, "check", "oscillator", "--fock-cutoff", "3", "--tol", "oscillator=1e-300"
    )
    assert code == 1
    assert not json.loads(text)["all_passed"]


@pytest.mark.parametrize("suite, cutoff", [("rll", "5"), ("all", "3")])
def test_failing_calibration_prints_its_report(capsys, suite, cutoff):
    code = main([
        "check", suite, "--fock-cutoff", cutoff, "--seed", "1",
        "--tol", "calibrate-ordering=1e-300",
    ])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["calibrate-ordering"]
    params = dict(failed[0]["parameters"])
    assert params["winner"] == "normal/1"
    assert params["note"] == "no candidate passed; the canonical normal/1 spec is returned"


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
        checks.calibrate_ordering: "calibrate-ordering",
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
    st = BetheState(rank=2, sites=4, roots=(ground_state_seed(4),))
    path = _write_state(tmp_path, st)
    code, text = run(tmp_path, "bae", str(path))
    assert code == 1
    payload = json.loads(text)
    assert payload["converged"] is False
    assert len(payload["trace"]) >= 2


def test_bae_overflowing_solve_reports_strict_json(tmp_path):
    # e_1 ** sites overflows for a root off the real axis: the trace is NaN,
    # written as null
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**STATE, "sites": 100000, "roots": [[[0.1, 0.3], [0.28, 0.0]]]}))
    with np.errstate(all="ignore"):
        code, text = run(tmp_path, "bae", str(path))
    assert code == 1
    payload = json.loads(text, parse_constant=pytest.fail)
    assert payload["converged"] is False
    assert payload["trace"] == [None]


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
    assert payload == prof.to_dict()
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
