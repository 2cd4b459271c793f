"""Seeded workloads of defectlab CLI invocations, and the checks on their output.

A workload is an endless, deterministic sequence of ops: op ``i`` depends only
on the workload, the seed and ``i``.  An op is one or more CLI calls; the
program sees only the generated argv and state files.  The benchmark computes
its inputs itself (for example the Bethe seed roots) so that a change to the
program cannot change what it is fed.

Why each workload exists:

* ``cert-large``: ``check all`` at rank 4, cutoff 2, two sites (dimension
  640).  Dense O(dim^3) products; ``lax.monodromy`` dominates.  At cutoff 3
  (dimension 1280) an op takes about 8 s, longer than the speed of a shared
  machine holds still, so the speed probes around it (speed.py) cannot
  correct its time and three ops per run spread by 10-16%.
* ``cert-small``: ``check all`` at rank 2, cutoff 5, two sites (dimension 72
  at most).  Same operator layer, but the time goes to Python and numpy call
  overhead (``kron``, builders) rather than flops.
* ``scan``: amplitude scans (101 points, both signs) and density profiles
  (201 points) over ranks 2, 3, 4.  Kernel grids, integrands and Fourier sums;
  no dense operator is built.
* ``bethe``: ``bae`` on rank-2 states with 400 sites, seeded from the
  half-filled ground state, impurity rapidity in [-2, 2] and alternating sign.
  The damped Newton solver; no other workload reaches it.  The chain without
  the impurity stalls at this size (a known defect), and every op of a
  workload must succeed, so it is not among the ops: the traced run solves
  it once, apart, and reports whether it still fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

STATE = "{state}"  # argv placeholder for the path of the op's state file

AMP_HEADER = (
    "lambda,closed_form_re,closed_form_im,integral_re,integral_im,"
    "logderiv_residual,sign,status"
)
DEN_HEADER = "lambda,sigma_re,sigma_im,bulk,hole_backflow,defect_re,defect_im"

AMP_POINTS = 101
DEN_POINTS = 201
DEN_SITES = 100  # the CLI's default --density-sites
AMP_TOL = 1e-6
BULK_TOL = 1e-10
BAE_TOL = 1e-10
BAE_SITES = 400


class VerificationError(AssertionError):
    """A CLI call exited badly or produced output that fails its check."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv (``STATE`` marks the state-file path), the
    state file's text if the call reads one, and the check on its output."""

    argv: tuple
    verify: Callable[[int, str], None]
    state: str | None = None

    def input_digest(self) -> str:
        return digest(json.dumps({"argv": list(self.argv), "state": self.state}))


@dataclass(frozen=True)
class Op:
    index: int
    calls: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable[[int, int], Op]  # (seed, index) -> Op
    trace_ops: int  # length of the fixed op list the traced run repeats


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(workload: str, seed: int, *key) -> random.Random:
    # str seeding hashes with sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(k) for k in (workload, seed, *key)))


def _number(field: str, what: str) -> float:
    try:
        value = float(field)
    except ValueError:
        raise VerificationError(f"{what}: {field!r} is not a number") from None
    if not math.isfinite(value):
        raise VerificationError(f"{what}: {field!r} is not finite")
    return value


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise VerificationError(message)


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise VerificationError(f"stdout is not JSON: {exc}") from None


def _grid(lo: float, hi: float, count: int) -> list:
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count - 1)] + [hi]


def _csv_rows(out: str, header: str, count: int, width: int) -> list:
    lines = out.splitlines()
    _require(bool(lines) and lines[0] == header, "CSV header mismatch")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) == count, f"expected {count} CSV rows, got {len(rows)}")
    for row in rows:
        _require(len(row) == width, f"CSV row has {len(row)} fields, expected {width}")
    return rows


def _same_lambda(got: float, want: float, what: str) -> None:
    _require(abs(got - want) <= 1e-12 * max(1.0, abs(want)), f"{what}: lambda {got!r} != {want!r}")


# ---------------------------------------------------------------------------
# verifiers


def verify_check(code: int, out: str, rank: int, cutoff: int, sites: int, seed: int) -> None:
    _require(code == 0, f"check exited {code}")
    payload = _json(out)
    _require(payload.get("all_passed") is True, "all_passed is not true")
    checks = payload.get("checks") or []
    _require(len(checks) > 0, "no checks reported")
    for c in checks:
        _require(c.get("passed") is True, f"check {c.get('name')} did not pass")
        residual, tol = c.get("residual"), c.get("tolerance")
        _require(
            isinstance(residual, (int, float)) and isinstance(tol, (int, float)) and residual <= tol,
            f"check {c.get('name')}: residual {residual!r} above tolerance {tol!r}",
        )
    cfg = payload.get("config", {})
    echo = (cfg.get("rank"), cfg.get("fock_cutoff"), cfg.get("chain_sites"), cfg.get("seed"))
    _require(echo == (rank, cutoff, sites, seed), f"config echo {echo} != request")


def verify_amplitudes(code: int, out: str, rank: int, lo: float, hi: float) -> None:
    _require(code == 0, f"amplitudes exited {code}")
    rows = _csv_rows(out, AMP_HEADER, 2 * AMP_POINTS, 8)
    grid = _grid(lo, hi, AMP_POINTS)
    for sign in ("-", "+"):
        signed = [r for r in rows if r[6] == sign]
        _require(len(signed) == AMP_POINTS, f"{len(signed)} rows with sign {sign}")
        for row, lam in zip(signed, grid):
            _same_lambda(_number(row[0], "lambda"), lam, "amplitudes")
            _require(row[7] == "ok", f"row status {row[7]!r}")
            closed = complex(_number(row[1], "closed_re"), _number(row[2], "closed_im"))
            integral = complex(_number(row[3], "integral_re"), _number(row[4], "integral_im"))
            rel = abs(integral - closed) / max(abs(closed), 1e-300)
            _require(rel <= AMP_TOL, f"rank {rank} sign {sign} lambda {lam}: rel err {rel:.3e}")


def bulk_density(rank: int, level: int, lam: float) -> float:
    """Closed form of the level-k bulk density, independent of the program."""
    a = math.pi * level / rank
    return (1.0 / rank) * math.sin(a) / (math.cosh(2.0 * math.pi * lam / rank) - math.cos(a))


def verify_density(code: int, out: str, rank: int, level: int, lo: float, hi: float) -> None:
    _require(code == 0, f"density exited {code}")
    rows = _csv_rows(out, DEN_HEADER, DEN_POINTS, 7)
    for row, lam in zip(rows, _grid(lo, hi, DEN_POINTS)):
        got_lam, s_re, s_im, bulk, back, d_re, d_im = (_number(f, "density") for f in row)
        _same_lambda(got_lam, lam, "density")
        want = bulk_density(rank, level, got_lam)
        _require(abs(bulk - want) <= BULK_TOL, f"bulk at {lam}: {bulk!r} vs closed form {want!r}")
        total = complex(bulk, 0.0) + complex(back + d_re, d_im) / DEN_SITES
        _require(abs(complex(s_re, s_im) - total) <= 1e-12, f"sigma at {lam} != bulk + (backflow + defect)/sites")


def verify_bae(code: int, out: str, theta: float, sign: str | None) -> None:
    payload = _json(out)
    _require(payload.get("converged") is True, f"bae did not converge: {payload.get('error')}")
    _require(code == 0, f"bae exited {code}")
    residual = payload.get("residual")
    _require(isinstance(residual, (int, float)) and residual <= BAE_TOL, f"residual {residual!r} above {BAE_TOL}")
    state = payload.get("state", {})
    _require(state.get("sites") == BAE_SITES and state.get("rank") == 2, "state size echo mismatch")
    _require(state.get("theta") == theta and state.get("defect_sign") == sign, "impurity echo mismatch")
    roots = state.get("roots") or [[]]
    _require(len(roots) == 1 and len(roots[0]) == BAE_SITES // 2, "wrong root count")
    for pair in roots[0]:
        _require(all(isinstance(x, float) and math.isfinite(x) for x in pair), "non-finite root")


# ---------------------------------------------------------------------------
# op generators


def _check_op(name: str, rank: int, cutoff: int):
    def make(seed: int, index: int) -> Op:
        check_seed = _rng(name, seed, index).randrange(2**31)
        argv = ("check", "all", "--rank", str(rank), "--fock-cutoff", str(cutoff),
                "--sites", "2", "--seed", str(check_seed))
        verify = lambda code, out: verify_check(code, out, rank, cutoff, 2, check_seed)
        return Op(index, (Call(argv, verify),))

    return make


def _scan_op(seed: int, index: int) -> Op:
    """One rank of the scan cycle: an amplitude scan, then a density profile.

    The pair is one op so that every op costs about the same; a median over
    alternating amplitude and density calls would jump between two modes."""
    rank = 2 + index % 3
    rng = _rng("scan", seed, index)
    a_lo, a_hi = rng.uniform(-6.0, -2.0), rng.uniform(2.0, 6.0)
    d_lo, d_hi = rng.uniform(-6.0, -2.0), rng.uniform(2.0, 6.0)
    level = rng.randint(1, rank - 1)
    sign = rng.choice("+-")
    amp = ("amplitudes", "--rank", str(rank), "--sign", "both",
           "--grid", repr(a_lo), repr(a_hi), str(AMP_POINTS))
    den = ("density", "--rank", str(rank), "--level", str(level), "--sign", sign,
           "--grid", repr(d_lo), repr(d_hi), str(DEN_POINTS))
    return Op(index, (
        Call(amp, lambda code, out: verify_amplitudes(code, out, rank, a_lo, a_hi)),
        Call(den, lambda code, out: verify_density(code, out, rank, level, d_lo, d_hi)),
    ))


def ground_state_roots(sites: int) -> list:
    """Quantiles of the half-filled rank-2 root density 1/(2 cosh pi lambda)."""
    magnons = sites // 2
    return [
        math.asinh(math.tan(2.0 * math.pi * ((j - 0.5) / sites - 0.25))) / math.pi
        for j in range(1, magnons + 1)
    ]


def bethe_state(theta: float, sign: str | None, sites: int = BAE_SITES) -> str:
    state = {
        "schema": 1,
        "rank": 2,
        "sites": sites,
        "theta": theta,
        "defect_sign": sign,
        "defect_level": 1,
        "roots": [[[x, 0.0] for x in ground_state_roots(sites)]],
    }
    return json.dumps(state, sort_keys=True)


BETHE_BLOCK = 8


def _bethe_theta(seed: int, index: int) -> float:
    """Uniform on [-2, 2], stratified: each block of eight ops draws one theta
    from each eighth of the interval, so every run sees the same spread of
    solve costs whatever the seed."""
    block, slot = divmod(index, BETHE_BLOCK)
    strata = list(range(BETHE_BLOCK))
    _rng("bethe", seed, "block", block).shuffle(strata)
    u = _rng("bethe", seed, index).random()
    return -2.0 + 4.0 * (strata[slot] + u) / BETHE_BLOCK


def _bae_call(theta: float, sign: str | None) -> Call:
    return Call(("bae", STATE), lambda code, out: verify_bae(code, out, theta, sign), bethe_state(theta, sign))


def _bethe_op(seed: int, index: int) -> Op:
    sign = "+" if index % 2 == 0 else "-"
    return Op(index, (_bae_call(_bethe_theta(seed, index), sign),))


def stall_probe() -> Op:
    """The no-impurity chain from the same seed roots.  It stalls in the
    line search at this size (a known defect of the solver); the traced run
    of ``bethe`` reports its outcome, outside the workload's own ops."""
    return Op(-1, (_bae_call(0.0, None),))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cert-large", _check_op("cert-large", 4, 2), trace_ops=2),
        Workload("cert-small", _check_op("cert-small", 2, 5), trace_ops=20),
        Workload("scan", _scan_op, trace_ops=3),
        Workload("bethe", _bethe_op, trace_ops=BETHE_BLOCK),
    )
}
