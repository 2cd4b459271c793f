import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from defectlab.bethe import BetheState, ground_state_seed
from defectlab.cli import _load_config, build_parser, main

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


def test_check_over_the_byte_budget_is_refused_unallocated(capsys):
    # dimension 4 * 84 * 4**4 = 86,016: one auxiliary block of the monodromy
    # would take 29.6 GB
    argv = ["check", "transfer-commute", "--rank", "4", "--fock-cutoff", "6", "--sites", "4", "--seed", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "monodromy block needs a 86016 x 21504 complex array (29.6 GB)" in err
    assert "budget" in err
    assert peak < 10 * 2**20


def test_check_tolerance_override_can_fail(tmp_path):
    code, text = run(
        tmp_path, "check", "oscillator", "--fock-cutoff", "3", "--tol", "oscillator=1e-300"
    )
    assert code == 1
    assert not json.loads(text)["all_passed"]


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
    got = _load_config(parser.parse_args(["check", "ybe", "--config", str(cfg)]))
    assert (got.rank, got.fock_cutoff, got.chain_sites, got.theta) == (3, 4, 1, 0.5 - 0.25j)
    assert got.lambda_grid == (-1.0, 2.0, 7) and got.tolerances == {"ybe": 1e-9}
    assert (got.seed, got.output, got.fmt, got.ordering, got.shift) == (
        12, "x.json", "csv", "antinormal", 2.0)
    flags = [
        "check", "ybe", "--config", str(cfg), "--rank", "2", "--fock-cutoff", "3",
        "--sites", "0", "--theta", "0.1+0.2j", "--grid", "0", "1", "3", "--tol", "rll=1e-7",
        "--seed", "5", "-o", "y.json", "--format", "json", "--ordering", "normal", "--shift", "0.5",
    ]
    got = _load_config(parser.parse_args(flags))
    assert (got.rank, got.fock_cutoff, got.chain_sites, got.theta) == (2, 3, 0, 0.1 + 0.2j)
    assert got.lambda_grid == (0.0, 1.0, 3)
    assert got.tolerances == {"ybe": 1e-9, "rll": 1e-7}
    assert (got.seed, got.output, got.fmt, got.ordering, got.shift) == (
        5, "y.json", "json", "normal", 0.5)


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_amplitudes_nan_rows_fail(tmp_path):
    # every row overflows to NaN; the worst residual is NaN, not 0.0
    code, text = run(
        tmp_path, "amplitudes", "--rank", "2", "--sign", "+",
        "--grid", "1e308", "1.7e308", "3", "--format", "json",
    )
    assert code == 1
    payload = json.loads(text)
    assert np.isnan(payload["max_residual"])
    assert all(np.isnan(r["logderiv_residual"]) for r in payload["rows"])


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--theta", "nan"], "theta"),
        (["--theta", "1+infj"], "theta"),
        (["--shift", "nan"], "shift"),
        (["--shift=-inf"], "shift"),
        (["--grid", "nan", "1", "3"], "lambda grid min"),
        (["--grid", "0", "inf", "3"], "lambda grid max"),
        (["--tol", "crossing=inf"], "tolerance crossing"),
        (["--tol", "crossing=nan"], "tolerance crossing"),
    ],
)
def test_non_finite_config_value_is_refused(capsys, argv, named):
    assert main(["check", "crossing", "--seed", "1", *argv]) == 2
    assert f"{named} must be finite" in capsys.readouterr().err


def test_non_finite_config_file_value_is_refused(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"theta": [0.0, float("inf")], "tolerances": {"ybe": 1e-9}}))
    assert main(["check", "ybe", "--seed", "1", "--config", str(path)]) == 2
    assert "theta must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bae command


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


def test_density_bad_level(capsys):
    assert main(["density", "--rank", "2", "--level", "5"]) == 2


def test_density_rejects_complex_theta(tmp_path, capsys):
    code, text = run(tmp_path, "density", "--rank", "2", "--theta", "0.3+0.2j")
    assert code == 2 and text == ""
    assert "real theta" in capsys.readouterr().err


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
