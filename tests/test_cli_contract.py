"""The CLI's contract on generated input.

A seeded stdlib generator draws 400 invocations across the four subcommands
(``check``, whose ten suites take the most flags, twice as often as each other):
well-formed flags whose values range over ordinary, edge and extreme
numbers (zero and negative sizes, theta = 1e300, NaN, grids near the float
limit, state files with bad keys or non-finite numbers).  Each invocation
runs twice through ``defectlab.cli.main`` in this interpreter, and both runs
must keep the contract:

- the exit code is 0, 1 or 2, and no exception escapes ``main``;
- no Python or numpy warning is raised, so none would reach stderr;
- a JSON report parses as strict JSON (no NaN or Infinity);
- exit 2 prints exactly one line on stderr;
- the second run prints the same bytes, with the same exit code.
"""

import contextlib
import io
import json
import math
import random
import warnings

from defectlab.cli import SUITES, main

SEED = 12345
INVOCATIONS = 400

def _pick(rng: random.Random, usual: list, rare: list, p: float = 0.08):
    """Mostly one of ``usual``; with probability ``p`` one of ``rare``."""
    return rng.choice(rare if rng.random() < p else usual)


def _theta(rng: random.Random) -> str:
    return _pick(rng, ["0", "0.3", "-1.7", "0.3+0.2j", "-0.5-1.5j", "1e300", "-1e300", "1e-300"], ["nan", "inf"])


def _real(rng: random.Random) -> str:
    return _pick(rng, ["0", "0.5", "-2.25", "3", "1e-3", "-1e-3", "1e300", "1.7e308", "-6"], ["nan", "-inf"])


def _tol(rng: random.Random, names: list) -> list:
    name = _pick(rng, names, ["nope"])
    return ["--tol", f"{name}={_pick(rng, ['1e-300', '1e-12', '1e-6', '1'], ['0', '-1', 'nan', 'inf'])}"]


def _check(rng: random.Random) -> list:
    rank = _pick(rng, [2, 2, 3, 3, 4, 5], [1, 0, -1])
    cutoff = _pick(rng, [1, 2, 2, 3] if rank <= 3 else [1, 2], [0, -2])
    argv = ["check", rng.choice([*SUITES, "all"]), "--rank", str(rank),
            "--fock-cutoff", str(cutoff), "--sites", str(_pick(rng, [0, 1, 2, 2, 3], [-1]))]
    if rng.random() < 0.95:
        argv += ["--seed", str(_pick(rng, [0, 1, 7, 12345, 2**31], [-1]))]
    if rng.random() < 0.5:
        argv += ["--theta", _theta(rng)]
    if rng.random() < 0.2:
        argv += ["--ordering", rng.choice(["normal", "antinormal"])]
    if rng.random() < 0.2:
        argv += ["--shift", _real(rng)]
    if rng.random() < 0.2:
        argv += _tol(rng, ["ybe", "rll", "crossing", "transfer-commute", "bae"])
    return argv


def _grid(rng: random.Random) -> list:
    return ["--grid", _real(rng), _real(rng), str(_pick(rng, [2, 3, 11, 41], [1, 0, -3]))]


def _amplitudes(rng: random.Random) -> list:
    argv = ["amplitudes", "--rank", str(_pick(rng, [2, 3, 4, 8, 64, 1000, 50000000], [1, 0]))]
    argv += ["--sign", rng.choice(["+", "-", "plus", "minus", "both"])]
    if rng.random() < 0.8:
        argv += _grid(rng)
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(["json", "csv"])]
    if rng.random() < 0.2:
        argv += _tol(rng, ["amplitudes"])
    return argv


def _density(rng: random.Random) -> list:
    rank = _pick(rng, [2, 3, 4, 8], [1, 0])
    argv = ["density", "--rank", str(rank), "--level", str(_pick(rng, [1, 1, 2, rank - 1], [rank, 0, -1]))]
    argv += ["--sign", rng.choice(["+", "-", "plus", "minus"])]
    if rng.random() < 0.8:
        argv += _grid(rng)
    if rng.random() < 0.4:
        argv += ["--theta", _pick(rng, ["0", "0.3", "-1.7", "1e300", "-1e300", "1e-300"], ["0.3+0.2j", "nan"])]
    if rng.random() < 0.4:
        argv += ["--hole", _real(rng)]
    if rng.random() < 0.3:
        argv += ["--density-sites", str(_pick(rng, [100, 4, 1, 10**6], [0, -5]))]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(["json", "csv"])]
    return argv


def _state(rng: random.Random) -> dict:
    rank = rng.choice([2, 2, 2, 3])
    sites = rng.choice([0, 4, 6, 12, 50, 100000])
    state = {"schema": _pick(rng, [1], [2]), "rank": rank, "sites": sites}
    if rng.random() < 0.95:
        state["theta"] = _pick(rng, [0.0, 0.3, -0.4, 2.0, 1e300, -1e300], [math.nan, math.inf])
    sign = _pick(rng, ["+", "-", None], ["x"])
    if sign is not None:
        state["defect_sign"] = sign
    if rank == 3 and sign is not None and rng.random() < 0.7:
        # the level the sign selects, or rarely another
        state["defect_level"] = _pick(rng, [1 if sign == "+" else 2], [1, 2, 3])
    counts = [max(0, min(sites // 2, 25) - rng.choice([0, 0, 1]))]
    if rank == 3:
        counts.append(rng.choice([0, 1, 2]))
    roots = []
    for count in counts:
        # the ground state's quantiles, jittered, some with an imaginary part
        level = [[math.asinh(math.tan(2 * math.pi * ((j - 0.5) / max(sites, 1) - 0.25))) / math.pi
                  + rng.choice([0.0, 0.0, 0.01, -0.2]), rng.choice([0.0, 0.0, 0.0, 0.5, -1.0])]
                 for j in range(1, count + 1)]
        roots.append(level)
    state["roots"] = roots
    if rng.random() < 0.05:
        state[rng.choice(["defect_levle", "extra"])] = 1
    return state


def _bae(rng: random.Random, tmp_path, index: int) -> list:
    path = tmp_path / f"state-{index}.json"
    path.write_text(_pick(rng, [json.dumps(_state(rng))], ["[1, 2]", "{", ""], 0.05))
    argv = ["bae", str(path)]
    if rng.random() < 0.2:
        argv += _tol(rng, ["bae"])
    return argv


def invocations(tmp_path) -> list:
    rng = random.Random(SEED)
    out = []
    for index in range(INVOCATIONS):
        # check has ten suites, so it gets two draws in five
        command = rng.choice(["check", "check", "amplitudes", "density", "bae"])
        if command == "check":
            out.append(_check(rng))
        elif command == "amplitudes":
            out.append(_amplitudes(rng))
        elif command == "density":
            out.append(_density(rng))
        else:
            out.append(_bae(rng, tmp_path, index))
    return out


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except Exception as exc:  # an escaped exception breaks the contract; record it
                code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]


def _strict(token):
    raise ValueError(f"not strict JSON: {token}")


def _breaks(argv, run) -> list:
    code, out, err, caught = run
    found = []
    if code not in (0, 1, 2):
        found.append(f"exit {code!r}")
    if caught:
        found.append(f"warnings {caught}")
    if out and (argv[0] in ("check", "bae") or "json" in argv):
        try:
            json.loads(out, parse_constant=_strict)
        except ValueError as exc:
            found.append(str(exc))
    if code == 2 and len(err.splitlines()) != 1:
        found.append(f"exit 2 with {len(err.splitlines())} stderr lines")
    return found


def test_generated_invocations_keep_the_contract(tmp_path, monkeypatch):
    monkeypatch.delenv("DEFECTLAB_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    cases = invocations(tmp_path)
    assert len(cases) == INVOCATIONS
    assert {argv[0] for argv in cases} == {"check", "amplitudes", "density", "bae"}
    broken, codes = [], set()
    for argv in cases:
        first, second = _run(argv), _run(argv)
        codes.add(first[0])
        found = _breaks(argv, first)
        if first != second:
            found.append("a second run printed different bytes")
        if found:
            broken.append(f"{' '.join(argv)}: {'; '.join(found)}")
    assert not broken, "\n".join(broken)
    assert codes == {0, 1, 2}  # the draw reaches every exit code
