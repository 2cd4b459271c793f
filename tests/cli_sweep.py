"""Byte-identity sweep of the defectlab CLI, and the one record of its contract.

INVOCATIONS lists 203 CLI invocations: every check suite, ``check
all`` at ranks 2-4, amplitude scans and density profiles in CSV and JSON,
Bethe solves from state files, the refusals, and sequences run in one
interpreter whose later reports must not depend on the earlier ones.  The
runner calls ``defectlab.cli.main`` in-process for each one, in order,
inside a scratch directory that holds the case's input files, and records
argv, the exit code, and the sha256 of stdout, of stderr and of every file
the invocation wrote.  An exception that escapes ``main`` is recorded by its
type name in place of the exit code; a Python warning is appended to stderr
by category and message, without its source location.  The sweep runs in a
child process whose BLAS uses one thread: the 400-site solve factors a
400 x 400 Jacobian, and a threaded BLAS rounds it differently with each
thread count.

``cli_sweep.json`` holds the recorded digests together with the numpy
version, the Python version and the platform that produced them, since a
different numpy or BLAS build may round differently.  So argv, env and the
exit code (CONTRACT) are pinned to the record everywhere, and the output
digests only where that environment matches; elsewhere they must match a
second run (:func:`expected`).  To add an invocation, append a ``_case`` to
INVOCATIONS, after the others so that the recorded ones keep their
positions, and re-record.

``--compare REV`` runs the sweep twice, on the ``src/`` of the git revision
REV and on the working tree's, and prints each invocation whose outputs
differ: the largest absolute and relative change of each field of a JSON or
CSV report (JSON fields by key path, ``[]`` standing for any list index;
CSV fields by column), and any change of exit code or of stderr.

    python tests/cli_sweep.py                # compare with cli_sweep.json
    python tests/cli_sweep.py --write        # regenerate cli_sweep.json
    python tests/cli_sweep.py --compare REV  # field by field against revision REV
    python tests/cli_sweep.py --environment  # the recorded and the running environment
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings
import zipfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "cli_sweep.json"

SUITES = (
    "ybe",
    "rll",
    "oscillator",
    "crossing",
    "transmission-algebra",
    "transmission-crossing",
    "transfer-commute",
    "highest-weight",
    "gamma-identity",
)


def _case(*argv, env=None, files=None):
    return {"argv": list(argv), "env": env or {}, "files": files or {}}


def _state(rank, sites, roots, theta=0.0, sign=None, level=1):
    """A BetheState file; roots holds one list of rapidities per level, and a
    level of None leaves out the optional defect_level key."""
    return json.dumps({
        "schema": 1,
        "rank": rank,
        "sites": sites,
        "theta": theta,
        "defect_sign": sign,
        **({} if level is None else {"defect_level": level}),
        "roots": [[[complex(x).real, complex(x).imag] for x in lv] for lv in roots],
    })


def _ground_state(sites):
    """Quantiles of the half-filled rank-2 root density 1/(2 cosh pi lambda),
    the seed roots of the benchmark's bae states."""
    return [
        math.asinh(math.tan(2.0 * math.pi * ((j - 0.5) / sites - 0.25))) / math.pi
        for j in range(1, sites // 2 + 1)
    ]


RLL_FAILS = ("--tol", "rll=1e-300")
PAIR = [-0.28, 0.28]
QUARTET = [-0.65, -0.16, 0.16, 0.65]
NESTED = [[-0.5, 0.0, 0.5], [0.1]]

INVOCATIONS = [
    # every suite alone, at the defaults and at rank 3
    *(_case("check", s, "--seed", "7") for s in SUITES),
    *(_case("check", s, "--rank", "3", "--fock-cutoff", "3", "--seed", "3") for s in SUITES),
    # check all
    _case("check", "all", "--rank", "2", "--fock-cutoff", "4", "--seed", "7"),
    _case("check", "all", "--seed", "0"),
    _case("check", "all", "--seed", "11", "--sites", "1"),
    _case("check", "all", "--rank", "2", "--fock-cutoff", "3", "--sites", "3", "--seed", "2"),
    _case("check", "all", "--rank", "3", "--fock-cutoff", "3", "--seed", "1"),
    _case("check", "all", "--rank", "3", "--fock-cutoff", "2", "--seed", "5", "--theta", "0.3+0.1j"),
    _case("check", "all", "--rank", "4", "--fock-cutoff", "2", "--seed", "1"),
    _case("check", "all", "--rank", "4", "--fock-cutoff", "2", "--sites", "1", "--seed", "9"),
    _case("check", "all", "--seed", "4", "--ordering", "antinormal", "--shift", "0"),
    _case("check", "all", "--seed", "6", "--tol", "ybe=1e-300"),
    # seeds: from the environment and a config file, at the edges of 32 bits
    _case("check", "ybe", env={"DEFECTLAB_SEED": "9"}),
    _case("check", "crossing", "--config", "seed.json", files={"seed.json": '{"seed": 12}'}),
    _case("check", "ybe", "--seed", "0"),
    _case("check", "ybe", "--seed", "4294967295"),
    _case("check", "ybe", "--seed", "4294967296"),
    _case("check", "ybe", "--seed", "-4294967296"),
    _case("check", "ybe", "--seed", "-1"),
    _case("check", "ybe", env={"DEFECTLAB_SEED": "-1"}),
    _case("check", "ybe", "--config", "seed.json", files={"seed.json": '{"seed": -3}'}),
    # an exchange relation that no report passes, and the removed key of the
    # ordering-calibration scan
    _case("check", "rll", "--seed", "1", *RLL_FAILS),
    _case("check", "all", "--fock-cutoff", "3", "--seed", "1", *RLL_FAILS),
    _case("check", "rll", "--seed", "1", "--tol", "calibrate-ordering=1e-8"),
    # amplitude scans
    *(_case("amplitudes", "--rank", r, "--format", f) for r in ("2", "3", "4") for f in ("csv", "json")),
    _case("amplitudes", "--sign", "+", "--grid", "-3", "3", "13"),
    _case("amplitudes", "--sign", "minus", "--rank", "3", "--grid", "-1", "2", "7", "--format", "json"),
    _case("amplitudes", "--grid", "-1e-3", "1", "3"),
    _case("amplitudes", "--rank", "2", "--grid", "1e308", "1.7e308", "3"),
    _case("amplitudes", "--rank", "3", "--grid", "1e308", "1.7e308", "3", "--format", "json"),
    _case("amplitudes", "--grid", "-2", "2", "5", "--tol", "amplitudes=1e-300"),
    _case("amplitudes", "--config", "grid.json",
          files={"grid.json": '{"lambda_grid": {"min": -1, "max": 1, "count": 5}, "format": "json"}'}),
    # at rank 5e7 the '+' numerator at lambda = 0 is 1/(2n) = 1e-8, on the pole guard
    *(_case("amplitudes", "--rank", "50000000", "--sign", "+", "--grid", "-1", "1", "3", "--format", f)
      for f in ("csv", "json")),
    # density profiles
    *(_case("density", "--rank", r, "--format", f) for r in ("2", "3", "4") for f in ("csv", "json")),
    _case("density", "--rank", "3", "--level", "2", "--sign", "-", "--grid", "-2", "2", "9"),
    _case("density", "--sign", "minus", "--hole", "0.4", "--theta", "0.2", "--density-sites", "50",
          "--grid", "-2", "2", "9", "--format", "json"),
    _case("density", "--rank", "4", "--level", "3", "--theta", "-0.7", "--grid", "-3", "3", "7"),
    _case("density", "--rank", "2", "--grid", "0", "1.7e308", "3"),
    _case("density", "--theta", "0.3+0.1j", "--grid", "-1", "1", "3"),
    _case("density", "--hole", "nan", "--grid", "-1", "1", "3"),
    _case("density", "--level", "2", "--grid", "-1", "1", "3"),
    _case("density", "--density-sites", "0", "--grid", "-1", "1", "3"),
    # Bethe solves
    _case("bae", "state.json", files={"state.json": _state(2, 4, [PAIR], 0.3, "+")}),
    _case("bae", "state.json", files={"state.json": _state(2, 4, [PAIR], -0.5, "-")}),
    _case("bae", "state.json", files={"state.json": _state(2, 8, [QUARTET], 0.2, "+")}),
    _case("bae", "state.json", "--tol", "bae=1e-12",
          files={"state.json": _state(2, 8, [QUARTET], 1.1, "-")}),
    _case("bae", "state.json", files={"state.json": _state(2, 4, [PAIR])}),
    _case("bae", "state.json", files={"state.json": _state(2, 2, [[0.2, 0.2 + 1e-12]])}),
    _case("bae", "state.json", files={"state.json": '{"schema": 1, "rank": 2}'}),
    _case("bae", "state.json",
          files={"state.json": _state(2, 4, [PAIR], 0.3, "+").replace('"+"', '"plus"')}),
    _case("bae", "missing.json"),
    _case("bae", "state.json", "--theta", "0.5", files={"state.json": _state(2, 4, [PAIR], 0.3, "+")}),
    _case("bae", "state.json", files={"state.json": _state(3, 6, NESTED, 0.2, "+")}),
    _case("bae", "state.json", files={"state.json": _state(3, 6, NESTED, -0.4, "-", level=2)}),
    _case("bae", "state.json", files={"state.json": _state(2, 400, [_ground_state(400)], 0.7, "-")}),
    _case("bae", "state.json", files={"state.json": _state(2, 20, [_ground_state(20)])}),
    # roots on a pole of their own equation: own level, '-' impurity, level 1 from level 2
    _case("bae", "state.json", files={"state.json": _state(2, 2, [[0.2, 0.2 + 1j]])}),
    _case("bae", "state.json", files={"state.json": _state(2, 4, [[0.3 + 0.5j, -0.4]], 0.3, "-")}),
    _case("bae", "state.json", files={"state.json": _state(3, 4, [[0.1, -0.4], [0.1 + 0.5j]])}),
    # mistyped state files
    _case("bae", "state.json", files={"state.json": "[1, 2]"}),
    _case("bae", "state.json", files={"state.json": _state(2, 4, [PAIR], None, "+")}),
    *(_case("bae", "state.json", files={"state.json": _state(*args, [PAIR], theta, "+")})
      for args, theta in (((2.7, 4.9), 0.3), ((True, 4), 0.3), ((2, 4), "0.3"), ((2, 4), 10 ** 400))),
    # a misspelt key and a schema of another JSON type
    _case("bae", "state.json", files={"state.json": _state(3, 6, NESTED, -0.4, "-", level=2)
                                      .replace('"defect_level"', '"defect_levle"')}),
    *(_case("bae", "state.json",
            files={"state.json": _state(2, 4, [PAIR], 0.3, "+").replace('"schema": 1', schema)})
      for schema in ('"schema": true', '"schema": 1.0')),
    # an impurity level its sign does not select, and numbers that are not finite
    _case("bae", "state.json", files={"state.json": _state(3, 6, NESTED, 0.2, "+", level=2)}),
    _case("bae", "state.json", files={"state.json": _state(3, 6, NESTED, -0.4, "-", level=1)}),
    *(_case("bae", "state.json", files={"state.json": _state(2, 4, [PAIR], theta, "+")})
      for theta in (math.nan, math.inf)),
    _case("bae", "state.json", files={"state.json": _state(2, 4, [[math.nan, 0.28]], 0.3, "+")}),
    # a solve from finite input that overflows: its report is still strict JSON
    _case("bae", "state.json", files={"state.json": _state(2, 100000, [[0.1 + 0.3j, 0.28]], 0.3, "+")}),
    # output files
    _case("check", "oscillator", "--fock-cutoff", "2", "-o", "report.json"),
    _case("amplitudes", "--grid", "-1", "1", "5", "--output", "scan.csv"),
    _case("check", "oscillator", "--fock-cutoff", "2", "-o", "/nonexistent/x.json"),
    # refusals and usage errors
    _case("check", "ybe"),
    _case("check", "all"),
    _case("check", "nonesuch", "--seed", "1"),
    _case("check", "oscillator", "--config", "bad.json", files={"bad.json": '{"fock_cutof": 3}'}),
    _case("check", "oscillator", "--config", "bad.json", files={"bad.json": "[1, 2]"}),
    _case("check", "oscillator", "--config", "bad.json", files={"bad.json": "{"}),
    _case("check", "oscillator", "--config", "missing.json"),
    *(_case("amplitudes", "--config", "bad.json", files={"bad.json": text}) for text in (
        '{"theta": 0.3}', '{"rank": null}', '{"lambda_grid": [1, 2, 3]}', '{"tolerances": [1]}',
    )),
    # config values of another JSON type than their key's
    *(_case("check", "oscillator", "--config", "bad.json", files={"bad.json": json.dumps(value)})
      for value in ({"output": 5}, {"ordering": 5}, {"fock_cutoff": 2.5}, {"seed": 1.5},
                    {"rank": "3"}, {"shift": "1"}, {"shift": 10 ** 400}, {"output": None},
                    {"tolerances": {"ybe": True}})),
    *(_case("amplitudes", *grid, "--config", "bad.json", files={"bad.json": json.dumps(value)})
      for grid, value in (
          (("--grid", "-1", "1", "3"), {"format": 5}),
          (("--grid", "-1", "1", "3"), {"format": "JSON"}),
          (("--grid", "-1", "1", "3"), {"format": None}),
          ((), {"lambda_grid": {"min": -1, "max": 1, "count": 3.9}}),
          ((), {"lambda_grid": {"min": -1, "max": 1, "count": 3, "step": 1}}),
      )),
    # flag and environment values that do not convert
    _case("check", "ybe", env={"DEFECTLAB_SEED": "1.5"}),
    _case("check", "ybe", "--seed", "1", "--tol", "ybe=abc"),
    _case("amplitudes", "--grid", "0", "1", "3.5"),
    _case("density", "--theta", "x", "--grid", "-1", "1", "3"),
    _case("check", "ybe", "--seed", "1", "--tol", "ybee=1e-3"),
    _case("check", "ybe", "--seed", "1", "--tol", "ybe"),
    _case("check", "ybe", "--seed", "1", "--tol", "ybe=-1"),
    _case("check", "ybe", "--seed", "1", "--tol", "ybe=nan"),
    _case("check", "ybe", "--rank", "1", "--seed", "1"),
    _case("check", "oscillator", "--fock-cutoff", "0"),
    _case("check", "highest-weight", "--sites", "-1"),
    _case("check", "highest-weight", "--theta", "nan"),
    _case("check", "crossing", "--shift", "nan", "--seed", "1"),
    _case("check", "crossing", "--ordering", "sideways", "--seed", "1"),
    _case("check", "rll", "--rank", "5", "--fock-cutoff", "7", "--seed", "1"),
    _case("check", "transfer-commute", "--rank", "4", "--fock-cutoff", "6", "--sites", "4", "--seed", "1"),
    _case("check", "oscillator", "--grid", "-1", "1", "3"),
    _case("amplitudes", "--grid", "-1", "1", "1"),
    _case("amplitudes", "--grid", "-inf", "1", "3"),
    _case("amplitudes", "--seed", "1"),
    _case("density", "--sites", "50", "--grid", "-1", "1", "3"),
    _case("density", "--sign", "both"),
    _case(),
    _case("--help"),
    *(_case(command, "--help") for command in ("check", "amplitudes", "bae", "density")),
    # check all at rank 4 alone, then at ranks 4, 2 and 4 in turn, each written
    # to a file that must hold what the same invocation prints: the work
    # arrays that one run keeps change no later report
    _case("check", "all", "--rank", "4", "--fock-cutoff", "2", "--seed", "7"),
    *(_case("check", "all", "--rank", r, "--fock-cutoff", c, "--seed", "7", "-o", f"in-process-{i}.json")
      for i, (r, c) in enumerate((("4", "2"), ("2", "4"), ("4", "2")))),
    _case("amplitudes", "--rank", "3", "--sign", "both", "--grid", "-6", "6", "101"),
    _case("density", "--rank", "4", "--level", "2", "--grid", "-6", "6", "201"),
    _case("check", "oscillator", "--config", "unknown-key.json",
          files={"unknown-key.json": '{"fock_cutof": 3}'}),
    # refused before their arrays are built
    _case("check", "transfer-commute", "--sites", "40", "--seed", "1"),
    _case("check", "oscillator", "--rank", "1000", "--fock-cutoff", "1"),
    _case("check", "highest-weight", "--rank", "20", "--fock-cutoff", "3", "--sites", "0"),
    # transfer products that overflow: the check fails, with nothing on stderr
    *(_case("check", "transfer-commute", "--rank", r, "--theta", "1e300", "--seed", "1") for r in ("2", "4")),
    # state and config files under their own names, most without defect_level
    *(_case("bae", "state.json", *flags, files={"state.json": _state(2, 4, [PAIR], 0.3, "+", level=None)})
      for flags in (("--theta", "0.5"), ())),
    _case("amplitudes", "--config", "mistyped.json", files={"mistyped.json": '{"theta": 0.3}'}),
    _case("bae", "not-a-state.json", files={"not-a-state.json": "[1, 2]"}),
    _case("bae", "rank3.json", files={"rank3.json": _state(3, 6, NESTED, -0.4, "-", level=2)}),
    *(_case("check", "oscillator", "--config", name, files={name: text}) for name, text in (
        ("output-number.json", '{"output": 5}'), ("cutoff-float.json", '{"fock_cutoff": 2.5}'))),
    _case("bae", "sites-float.json",
          files={"sites-float.json": _state(2, 4.9, [PAIR], 0.3, "+", level=None)}),
    _case("bae", "misspelt-key.json", files={"misspelt-key.json": _state(3, 6, NESTED, -0.4, "-", level=2)
                                             .replace('"defect_level"', '"defect_levle"')}),
    _case("bae", "plus-on-level-2.json",
          files={"plus-on-level-2.json": _state(3, 6, NESTED, 0.2, "+", level=2)}),
    _case("bae", "theta-nan.json", files={"theta-nan.json": _state(2, 4, [PAIR], math.nan, "+", level=None)}),
    _case("bae", "overflow.json",
          files={"overflow.json": _state(2, 100000, [[0.1 + 0.3j, 0.28]], 0.3, "+", level=None)}),
    *(_case("bae", "huge-theta.json",
            files={"huge-theta.json": _state(2, 50, [_ground_state(50)], 1e300, sign, level=None)})
      for sign in ("+", "-")),
    # a 400-site solve, then twice more in the same interpreter, each written
    # to a file that must hold what the first printed
    *(_case("bae", "bae-400.json", *output,
            files={"bae-400.json": _state(2, 400, [_ground_state(400)], 0.3, "+", level=None)})
      for output in ((), ("-o", "bae-400-in-process-0.json"), ("-o", "bae-400-in-process-1.json"))),
    _case("amplitudes", "--rank", "2", "--grid", "1e308", "1.7e308", "3", "--format", "json"),
    _case("amplitudes", "--rank", "50000000", "--sign", "+", "--grid", "-1", "1", "3"),
    # a grid whose span MAX - MIN overflows, though MIN and MAX are finite
    _case("amplitudes", "--rank", "3", "--grid", "-1e308", "1e308", "3"),
    _case("density", "--grid", "-1e308", "1e308", "3"),
    # the crossing checks' operators, refused by their builders before any array is taken
    _case("check", "crossing", "--seed", "1", "--rank", "20", "--fock-cutoff", "3"),
    _case("check", "transmission-crossing", "--rank", "20", "--fock-cutoff", "3"),
    # the edges of the Fock cut: a kept block of one Fock state (the vacuum),
    # the transfer check's margin refusal, and a margin block of one shell
    *(_case("check", suite, "--rank", r, "--fock-cutoff", "1", *seed)
      for suite, seed in (("rll", ("--seed", "5")), ("transmission-algebra", ("--seed", "5")), ("oscillator", ()))
      for r in ("2", "4")),
    _case("check", "transfer-commute", "--fock-cutoff", "1", "--seed", "5"),
    _case("check", "transfer-commute", "--rank", "4", "--fock-cutoff", "3", "--sites", "2", "--seed", "8"),
    # transmission-crossing at rank 5, and with a tolerance that no residual meets
    _case("check", "transmission-crossing", "--rank", "5", "--fock-cutoff", "2"),
    _case("check", "transmission-crossing", "--tol", "transmission-crossing=1e-300"),
    # density JSON with non-finite rows: nulls in its real and its complex columns
    _case("density", "--rank", "2", "--grid", "0", "1.7e308", "3", "--format", "json"),
]


def environment() -> dict:
    """What a float digest depends on besides the program."""
    import numpy

    return {
        "numpy": numpy.__version__,
        "python": ".".join(platform.python_version_tuple()[:2]),
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def digest(record: dict) -> dict:
    """A record as cli_sweep.json keeps it, each output by its sha256."""
    return {
        **record,
        "stdout": _sha(record["stdout"]),
        "stderr": _sha(record["stderr"]),
        "written": {name: _sha(text) for name, text in record["written"].items()},
    }


@contextlib.contextmanager
def _environ(env: dict):
    saved = dict(os.environ)
    os.environ.pop("DEFECTLAB_SEED", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal
    os.environ.update(env)
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def run_case(main, case: dict) -> dict:
    """Run one invocation in a fresh scratch directory and record it, with
    stdout, stderr and each file written as text."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case["files"].items():
            Path(tmp, name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with _environ(case["env"]), warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                try:
                    code = main(case["argv"])
                except Exception as exc:  # recorded, so that a crash is a digest too
                    code = f"raised {type(exc).__name__}"
        finally:
            os.chdir(cwd)
        stderr = err.getvalue() + "".join(
            f"{w.category.__name__}: {w.message}\n" for w in caught
        )
        written = {
            p.name: p.read_bytes().decode("utf-8", "surrogateescape")
            for p in sorted(Path(tmp).iterdir())
            if p.name not in case["files"]
        }
    return {
        "argv": case["argv"],
        "env": case["env"],
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": stderr,
        "written": written,
    }


ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _run_here(src: Path) -> list[dict]:
    sys.path.insert(0, str(src))
    import defectlab
    from defectlab.cli import main

    if src.resolve() not in Path(defectlab.__file__).resolve().parents:
        raise RuntimeError(f"defectlab imported from {defectlab.__file__}, not from {src}")
    return [run_case(main, case) for case in INVOCATIONS]


def run_outputs(src: Path = ROOT / "src") -> list[dict]:
    """Every invocation's record with its outputs as text, from a child
    process with one-thread BLAS that imports defectlab from ``src``."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(src)],
        env={**os.environ, **ONE_THREAD}, capture_output=True, text=True,
    )
    if child.returncode != 0:
        raise RuntimeError(f"the sweep's child process failed:\n{child.stderr}")
    return json.loads(child.stdout)


def run_sweep() -> list[dict]:
    """Every invocation's digest record, for the working tree."""
    return [digest(record) for record in run_outputs()]


def load() -> dict:
    return json.loads(DIGESTS.read_text())


CONTRACT = ("argv", "env", "exit")  # pinned to the record on every environment


def expected(recorded: dict, rerun) -> list[dict]:
    """The records that a run of the sweep must reproduce: the recorded ones
    where the environment matches the record's, else those of ``rerun()``,
    a second run, with the CONTRACT fields taken from the record."""
    if recorded["environment"] == environment():
        return recorded["invocations"]
    return [{**again, **{key: r[key] for key in CONTRACT}}
            for r, again in zip(recorded["invocations"], rerun(), strict=True)]


def differences(recorded: list[dict], got: list[dict]) -> list[str]:
    """One line per invocation whose record differs, naming the fields."""
    if [r["argv"] for r in recorded] != [g["argv"] for g in got]:
        return ["the invocation list differs from the recorded one"]
    lines = []
    for r, g in zip(recorded, got):
        fields = [k for k in r if r[k] != g.get(k)]
        if fields:
            lines.append(f"{' '.join(g['argv'])} {g['env'] or ''}: {', '.join(fields)}")
    return lines


def _leaves(value, path: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for item in value:
            _leaves(item, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(value)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def report_fields(text: str) -> dict | None:
    """The values of a JSON or CSV report by field, or None for other text."""
    try:
        data = json.loads(text)
    except ValueError:
        pass
    else:
        out = {}
        _leaves(data, "", out)
        return out
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    rows = [line.split(",") for line in lines[1:]]
    if len(header) < 2 or any(len(row) != len(header) for row in rows):
        return None
    return {name: [_cell(row[i]) for row in rows] for i, name in enumerate(header)}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(a, b) -> bool:
    return a == b or (_number(a) and _number(b) and math.isnan(a) and math.isnan(b))


def field_changes(old: dict, new: dict) -> list[tuple]:
    """(line, largest absolute change) per field whose values differ.  The
    line says how many values changed, the largest absolute and relative
    change between finite numbers, and a first example of any other change
    (to or from a non-finite number, a string or null)."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, []), new.get(name, [])
        if len(a) != len(b):
            lines.append((f"{name}: {len(a)} -> {len(b)} values", 0.0))
            continue
        diffs = [(x, y) for x, y in zip(a, b) if not _same(x, y)]
        if not diffs:
            continue
        finite, other = [], []
        for x, y in diffs:
            both = _number(x) and _number(y) and math.isfinite(x) and math.isfinite(y)
            (finite if both else other).append((x, y))
        line = f"{name}: {len(diffs)} of {len(a)} values"
        largest = max((abs(x - y) for x, y in finite), default=0.0)
        if finite:
            rel = max(abs(x - y) / max(abs(x), abs(y)) for x, y in finite)
            line += f", max abs {largest:.3g}, max rel {rel:.3g}"
        if other:
            x, y = other[0]
            line += f", {len(other)} not between finite numbers, e.g. {x!r} -> {y!r}"
        lines.append((line, largest))
    return lines


def _text_diff(old: str, new: str) -> list[str]:
    return [line for line in difflib.unified_diff(old.splitlines(), new.splitlines(),
                                                  lineterm="", n=0)
            if not line.startswith(("---", "+++", "@@"))]


def compare(old: list[dict], new: list[dict]) -> list[str]:
    """Lines naming each invocation whose outputs differ and how, then a summary."""
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        return ["the invocation lists differ"]
    lines, differing, exits, stderrs, largest = [], 0, 0, 0, (0.0, "")
    for i, (r, g) in enumerate(zip(old, new)):
        outputs = [("stdout", r["stdout"], g["stdout"])] + [
            (name, r["written"].get(name, ""), g["written"].get(name, ""))
            for name in sorted(r["written"].keys() | g["written"].keys())
        ]
        report, changed = [], 0.0
        if r["exit"] != g["exit"]:
            exits += 1
            report.append(f"exit: {r['exit']} -> {g['exit']}")
        if r["stderr"] != g["stderr"]:
            stderrs += 1
            report += [f"stderr: {line}" for line in _text_diff(r["stderr"], g["stderr"])]
        for where, a, b in outputs:
            if a == b:
                continue
            fa, fb = report_fields(a), report_fields(b)
            if fa is None or fb is None:
                report += [f"{where}: {line}" for line in _text_diff(a, b)]
            else:
                for line, size in field_changes(fa, fb):
                    report.append(f"{where} {line}")
                    changed = max(changed, size)
        if report:
            differing += 1
            name = f"#{i} {' '.join(g['argv'])} {g['env'] or ''}".rstrip()
            lines += [name] + [f"  {line}" for line in report]
            largest = max(largest, (changed, name))
    summary = (f"{differing} of {len(new)} invocations differ; {exits} exit codes and "
               f"{stderrs} stderr texts changed; largest absolute change {largest[0]:.3g}")
    return lines + [summary + (f" ({largest[1]})" if largest[0] else "")]


def _revision_src(rev: str, dest: Path) -> Path:
    """Extract the src/ of git revision rev under dest."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=zip", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    zipfile.ZipFile(io.BytesIO(archive)).extractall(dest)
    return dest / "src"


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["--emit"]:
        print(json.dumps(_run_here(Path(args[1]))))
        return 0
    if args[:1] == ["--compare"]:
        with tempfile.TemporaryDirectory() as tmp:
            old = run_outputs(_revision_src(args[1], Path(tmp)))
        print("\n".join(compare(old, run_outputs())))
        return 0
    if args[:1] == ["--environment"]:
        recorded, running = load()["environment"], environment()
        pinned = ("every field" if recorded == running
                  else f"{', '.join(CONTRACT)}, and a second run the output digests")
        print(f"cli_sweep.json recorded with {recorded}; running {running}; the record pins {pinned}")
        return 0
    got = run_sweep()
    if "--write" in args:
        payload = {"environment": environment(), "invocations": got}
        DIGESTS.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {len(got)} invocations to {DIGESTS}")
        return 0
    recorded = load()
    if recorded["environment"] != environment():
        print(f"note: digests recorded with {recorded['environment']}, running {environment()}")
    diff = differences(recorded["invocations"], got)
    print("\n".join(diff) or f"all {len(got)} invocations match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
