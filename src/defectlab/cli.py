"""Command-line frontend: named check suites, Bethe solving from JSON files,
amplitude scans, and density profiles, all with machine-readable output.

Exit codes are stable across commands: 0 all passed, 1 a check or a solve
failed, 2 usage or configuration error.  Identical config and seed produce
byte-identical reports: output contains no timestamps, floats are emitted
via repr, and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import bethe, checks, lax, thermo
from .special import PoleProximityError
from .tensor import FockSpace

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

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
RANDOMIZED_SUITES = {
    "ybe",
    "rll",
    "crossing",
    "transmission-algebra",
    "transfer-commute",
}

DEFAULT_TOLERANCES = {
    "ybe": 1e-12,
    "rll": 1e-10,
    "calibrate-ordering": 1e-8,
    "oscillator": 1e-13,
    "crossing": 1e-13,
    "transmission-algebra": 1e-10,
    "transmission-crossing": 1e-8,
    "transfer-commute": 1e-10,
    "highest-weight": 1e-12,
    "gamma-identity": 1e-8,
    "amplitudes": 1e-6,
    "bae": 1e-10,
}

GAMMA_MU_VALUES = (0.5, 1.0, 2.0, 5.0, 20.0)


@dataclass(frozen=True)
class RunConfig:
    rank: int = 2
    fock_cutoff: int = 5
    chain_sites: int = 2
    theta: complex = 0j
    lambda_grid: tuple = (-5.0, 5.0, 101)
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None
    output: str | None = None
    fmt: str | None = None
    ordering: str = lax.NORMAL
    shift: float = 1.0

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"rank must be >= 2, got {self.rank}")
        if self.fock_cutoff < 1:
            raise ValueError(f"fock-cutoff must be >= 1, got {self.fock_cutoff}")
        if self.chain_sites < 0:
            raise ValueError(f"sites must be >= 0, got {self.chain_sites}")
        lo, hi, count = self.lambda_grid
        # a NaN or an infinity here would only show later as NaN residuals
        for name, value in (("theta", self.theta), ("shift", self.shift),
                            ("lambda grid min", lo), ("lambda grid max", hi)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if int(count) < 2:
            raise ValueError("lambda grid needs at least 2 points")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(
                    f"unknown tolerance {name!r}; known: {', '.join(sorted(DEFAULT_TOLERANCES))}"
                )
            if not cmath.isfinite(value):
                raise ValueError(f"tolerance {name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"tolerance {name} must be positive, got {value}")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def grid(self) -> np.ndarray:
        lo, hi, count = self.lambda_grid
        return np.linspace(float(lo), float(hi), int(count))

    def lax_spec(self) -> lax.LaxSpec:
        return lax.LaxSpec(self.rank, lax.VARIANT_L, self.ordering, self.shift)

    def chain(self) -> lax.ChainSpec:
        return lax.ChainSpec(
            self.rank,
            self.chain_sites,
            self.fock_cutoff,
            theta=self.theta,
            lax=self.lax_spec(),
        )

    def fock(self) -> FockSpace:
        return FockSpace(self.rank - 1, self.fock_cutoff)


def _complex_pair(value) -> complex:
    re, im = value
    return complex(re, im)


# RunConfig field -> (config-file key, converter, flag attribute, converter);
# a converter of None takes the value as it is, and --tol merges separately
_SOURCES = {
    "rank": ("rank", int, "rank", None),
    "fock_cutoff": ("fock_cutoff", int, "fock_cutoff", None),
    "chain_sites": ("chain_sites", int, "sites", None),
    "theta": ("theta", _complex_pair, "theta", complex),
    "lambda_grid": (
        "lambda_grid", lambda g: (float(g["min"]), float(g["max"]), int(g["count"])),
        "grid", lambda g: (float(g[0]), float(g[1]), int(g[2])),
    ),
    "tolerances": ("tolerances", lambda t: {k: float(v) for k, v in t.items()}, None, None),
    "seed": ("seed", int, "seed", None),
    "output": ("output", None, "output", None),
    "fmt": ("format", None, "format", None),
    "ordering": ("ordering", None, "ordering", None),
    "shift": ("shift", float, "shift", None),
}


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("the config file must hold a JSON object")
        unknown = sorted(set(data) - {key for key, _, _, _ in _SOURCES.values()})
        if unknown:
            raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
        cfg = replace(cfg, **{
            target: convert(data[key]) if convert else data[key]
            for target, (key, convert, _, _) in _SOURCES.items()
            if key in data
        })
    updates = {}
    for target, (_, _, attr, convert) in _SOURCES.items():
        given = getattr(args, attr, None) if attr else None
        if given is not None:
            updates[target] = convert(given) if convert else given
    if getattr(args, "tol", None):
        tols = dict(cfg.tolerances)
        for item in args.tol:
            name, _, value = item.partition("=")
            if not value:
                raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
            tols[name] = float(value)
        updates["tolerances"] = tols
    cfg = replace(cfg, **updates)
    if cfg.seed is None and os.environ.get("DEFECTLAB_SEED"):
        cfg = replace(cfg, seed=int(os.environ["DEFECTLAB_SEED"]))
    return cfg


def _write_text(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(cfg: RunConfig) -> dict:
    return {
        "rank": cfg.rank,
        "fock_cutoff": cfg.fock_cutoff,
        "chain_sites": cfg.chain_sites,
        "theta": [cfg.theta.real, cfg.theta.imag],
        "lambda_grid": list(cfg.lambda_grid),
        "seed": cfg.seed,
        "ordering": cfg.ordering,
        "shift": cfg.shift,
    }


# ---------------------------------------------------------------------------
# check suites


def _sample_pairs(rng, count, separation=0.02, avoid_diff=()):
    """Argument pairs for exchange-relation checks, redrawn while the
    difference sits near a listed special point."""
    pairs = []
    while len(pairs) < count:
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        d = a - b
        if abs(d) < separation:
            continue
        if any(abs(d - s) < separation for s in avoid_diff):
            continue
        pairs.append((a, b))
    return pairs


def _suite_reports(suite: str, cfg: RunConfig) -> list[checks.CheckReport]:
    reports: list[checks.CheckReport] = []
    seed = cfg.seed if cfg.seed is not None else 0
    if suite == "ybe":
        rng = checks.rng_for(seed, "cli-ybe")
        for a, b in _sample_pairs(rng, 4):
            reports.append(checks.check_ybe(cfg.rank, a, b, cfg.tol("ybe")))
        for a, b in _sample_pairs(rng, 2, avoid_diff=(1j, -1j)):
            reports.append(checks.check_ybe(cfg.rank, a, b, cfg.tol("ybe"), matrix="S"))
    elif suite == "rll":
        fock = cfg.fock()
        spec = cfg.lax_spec()
        rng = checks.rng_for(seed, "cli-rll")
        for a, b in _sample_pairs(rng, 2):
            reports.append(checks.check_rll(spec, fock, a, b, cfg.tol("rll")))
            reports.append(
                checks.check_rll(replace(spec, variant=lax.VARIANT_LHAT), fock, a, b, cfg.tol("rll"))
            )
        _, calib = checks.calibrate_ordering(
            cfg.rank, fock, seed, tol=cfg.tol("calibrate-ordering")
        )
        reports.append(calib)
    elif suite == "oscillator":
        reports.append(checks.check_oscillator_algebra(cfg.fock(), cfg.tol("oscillator")))
    elif suite == "crossing":
        rng = checks.rng_for(seed, "cli-crossing")
        lams = checks.sample_points(rng, 10)
        reports.append(
            checks.check_lax_crossing(cfg.lax_spec(), cfg.fock(), lams, cfg.tol("crossing"))
        )
    elif suite == "transmission-algebra":
        fock = cfg.fock()
        rng = checks.rng_for(seed, "cli-transmission-algebra")
        for conjugate in (False, True):
            for a, b in _sample_pairs(rng, 2, avoid_diff=(1j, -1j)):
                reports.append(
                    checks.check_transmission_algebra(
                        cfg.rank, fock, a, b, conjugate, tol=cfg.tol("transmission-algebra")
                    )
                )
    elif suite == "transmission-crossing":
        reports.append(
            checks.check_transmission_crossing(
                cfg.rank, cfg.fock(), tol=cfg.tol("transmission-crossing")
            )
        )
    elif suite == "transfer-commute":
        chain = cfg.chain()
        rng = checks.rng_for(seed, "cli-transfer-commute")
        for a, b in _sample_pairs(rng, 2):
            reports.append(
                checks.check_transfer_commute(chain, a, b, cfg.tol("transfer-commute"))
            )
    elif suite == "highest-weight":
        reports.append(checks.check_highest_weight(cfg.chain(), tol=cfg.tol("highest-weight")))
    elif suite == "gamma-identity":
        for mu in GAMMA_MU_VALUES:
            reports.append(thermo.check_gamma_identity(mu, cfg.tol("gamma-identity")))
        reports.append(thermo.check_gamma_identity(3.0 + 0.7j, cfg.tol("gamma-identity")))
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return reports


def cmd_check(suite: str, cfg: RunConfig) -> int:
    suites = SUITES if suite == "all" else (suite,)
    needs_seed = any(s in RANDOMIZED_SUITES for s in suites)
    if needs_seed and cfg.seed is None:
        print(
            "error: randomized checks need a seed (--seed, config file, or DEFECTLAB_SEED)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    reports = []
    for s in suites:
        reports.extend(_suite_reports(s, cfg))
    reports.sort(key=lambda r: (r.name, repr(r.parameters)))
    payload = {
        "schema": 1,
        "suite": suite,
        "config": _config_echo(cfg),
        "checks": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _write_text(cfg, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if payload["all_passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# amplitude scan


def _amplitude_rows(cfg: RunConfig, sign: str):
    table = thermo.KernelTable(cfg.rank)
    rows = []
    worst = 0.0
    for lam in cfg.grid():
        lam = float(lam)
        try:
            closed = lax.transmission_amplitude(cfg.rank, sign, lam)
            integral = complex(np.exp(thermo.amplitude_regularized(table, sign, lam)))
            deriv_quad = thermo.amplitude_log_derivative(table, sign, lam)
            deriv_closed = thermo.amplitude_log_derivative_closed(table, sign, lam)
        except PoleProximityError:
            rows.append((lam, complex("nan+nanj"), complex("nan+nanj"), float("nan"), sign, "pole"))
            continue
        logderiv_residual = abs(deriv_quad - deriv_closed)
        rel = abs(integral - closed) / max(abs(closed), 1e-300)
        worst = checks.worst_of(worst, rel, logderiv_residual)
        rows.append((lam, closed, integral, logderiv_residual, sign, "ok"))
    return rows, worst


def cmd_amplitudes(cfg: RunConfig, sign: str) -> int:
    signs = ("-", "+") if sign == "both" else (sign,)
    rows = []
    worst = 0.0
    for s in signs:
        new_rows, w = _amplitude_rows(cfg, s)
        rows.extend(new_rows)
        worst = checks.worst_of(worst, w)
    tol = cfg.tol("amplitudes")
    if (cfg.fmt or "csv") == "json":
        payload = {
            "schema": 1,
            "rank": cfg.rank,
            "sign": sign,
            "tolerance": tol,
            "max_residual": worst,
            "rows": [
                {
                    "lambda": lam,
                    "closed_form": [closed.real, closed.imag],
                    "integral": [integral.real, integral.imag],
                    "logderiv_residual": deriv,
                    "sign": s,
                    "status": status,
                }
                for lam, closed, integral, deriv, s, status in rows
            ],
        }
        _write_text(cfg, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        lines = [
            "lambda,closed_form_re,closed_form_im,integral_re,integral_im,"
            "logderiv_residual,sign,status"
        ]
        for lam, closed, integral, deriv, s, status in rows:
            lines.append(
                ",".join(
                    [
                        repr(float(lam)),
                        repr(float(closed.real)),
                        repr(float(closed.imag)),
                        repr(float(integral.real)),
                        repr(float(integral.imag)),
                        repr(float(deriv)),
                        s,
                        status,
                    ]
                )
            )
        _write_text(cfg, "\n".join(lines) + "\n")
    return EXIT_OK if worst <= tol else EXIT_FAIL


# ---------------------------------------------------------------------------
# Bethe solve


def cmd_bae(input_path: str, cfg: RunConfig) -> int:
    try:
        with open(input_path) as fh:
            state = bethe.BetheState.from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read state file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tol = cfg.tol("bae")
    try:
        solved = bethe.solve_bae(state, tol=tol)
    except bethe.RootCollisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except bethe.ConvergenceError as exc:
        payload = {
            "schema": 1,
            "converged": False,
            "error": str(exc),
            "trace": [float(x) for x in exc.trace],
        }
        _write_text(cfg, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return EXIT_FAIL
    residual = bethe.bae_residual(solved).max_abs
    payload = {
        "schema": 1,
        "converged": True,
        "residual": residual,
        "tolerance": tol,
        "state": solved.to_dict(),
    }
    _write_text(cfg, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if residual <= tol else EXIT_FAIL


# ---------------------------------------------------------------------------
# density profile


def cmd_density(cfg: RunConfig, level: int, sign: str, sites: int, hole: float) -> int:
    if cfg.theta.imag != 0.0:
        print(f"error: density needs a real theta, got {cfg.theta}", file=sys.stderr)
        return EXIT_USAGE
    table = thermo.KernelTable(cfg.rank)
    try:
        profile = thermo.density(
            table,
            level,
            sign,
            cfg.grid(),
            hole=hole,
            theta=cfg.theta.real,
            sites=sites,
        )
    except thermo.TailBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if (cfg.fmt or "csv") == "json":
        _write_text(cfg, profile.to_json())
    else:
        _write_text(cfg, profile.to_csv())
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--rank", type=int)
    sub.add_argument("--fock-cutoff", type=int, dest="fock_cutoff")
    sub.add_argument("--sites", type=int)
    sub.add_argument("--theta", help="impurity rapidity, e.g. 0.3 or 0.3+0.2j")
    sub.add_argument("--grid", nargs=3, metavar=("MIN", "MAX", "COUNT"))
    sub.add_argument("--tol", action="append", metavar="NAME=VALUE")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--output", "-o")
    sub.add_argument("--format", choices=("json", "csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectlab",
        description="certify the impurity chain operator identities and scan its amplitudes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a named check suite")
    p_check.add_argument("suite", choices=SUITES + ("all",))
    _add_common(p_check)
    p_check.add_argument("--ordering", choices=(lax.NORMAL, lax.ANTINORMAL))
    p_check.add_argument("--shift", type=float)

    p_amp = sub.add_parser("amplitudes", help="scan transmission amplitudes on a grid")
    _add_common(p_amp)
    p_amp.add_argument("--sign", default="both", choices=("+", "-", "plus", "minus", "both"))

    p_bae = sub.add_parser("bae", help="solve the nested equations from a JSON state file")
    p_bae.add_argument("input", help="BetheState JSON file")
    _add_common(p_bae)

    p_den = sub.add_parser("density", help="single-hole density profile with the impurity")
    _add_common(p_den)
    p_den.add_argument("--level", type=int, default=1)
    p_den.add_argument("--sign", default="+", choices=("+", "-", "plus", "minus"))
    p_den.add_argument("--density-sites", type=int, default=100, dest="density_sites")
    p_den.add_argument("--hole", type=float, default=0.0)

    return parser


_SIGN_ALIASES = {"plus": "+", "minus": "-", "+": "+", "-": "-", "both": "both"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        cfg = _load_config(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "check":
            return cmd_check(args.suite, cfg)
        if args.command == "amplitudes":
            return cmd_amplitudes(cfg, _SIGN_ALIASES[args.sign])
        if args.command == "bae":
            return cmd_bae(args.input, cfg)
        if args.command == "density":
            return cmd_density(
                cfg, args.level, _SIGN_ALIASES[args.sign], args.density_sites, args.hole
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command!r}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
