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

GAMMA_MU_VALUES = (0.5, 1.0, 2.0, 5.0, 20.0, 3.0 + 0.7j)


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
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
# a converter of None takes the value as it is, and --tol merges separately.
# A subcommand that does not take a flag has no attribute for it.
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
        values = {}
        for target, (key, convert, _, _) in _SOURCES.items():
            if key in data:
                try:
                    values[target] = convert(data[key]) if convert else data[key]
                except (TypeError, ValueError, KeyError, AttributeError):
                    shown = json.dumps(data[key])
                    raise ValueError(f"config key {key!r} cannot take {shown}") from None
        cfg = replace(cfg, **values)
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


def _write_json(cfg: RunConfig, payload: dict) -> None:
    _write_text(cfg, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(cfg: RunConfig, header: str, rows) -> None:
    """One line per row: numbers by repr(float(v)), strings as they are."""
    lines = [header]
    lines += [",".join([v if isinstance(v, str) else repr(float(v)) for v in row]) for row in rows]
    _write_text(cfg, "\n".join(lines) + "\n")


def _config_echo(cfg: RunConfig) -> dict:
    return {
        "rank": cfg.rank,
        "fock_cutoff": cfg.fock_cutoff,
        "chain_sites": cfg.chain_sites,
        "theta": [cfg.theta.real, cfg.theta.imag],
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
        if all(abs(a - b - s) >= separation for s in (0.0, *avoid_diff)):
            pairs.append((a, b))
    return pairs


def _ybe(cfg, rng):
    tol = cfg.tol("ybe")
    return [checks.check_ybe(cfg.rank, a, b, tol) for a, b in _sample_pairs(rng, 4)] + [
        checks.check_ybe(cfg.rank, a, b, tol, matrix="S")
        for a, b in _sample_pairs(rng, 2, avoid_diff=(1j, -1j))
    ]


def _rll(cfg, rng):
    fock, spec, tol = cfg.fock(), cfg.lax_spec(), cfg.tol("rll")
    reports = [
        checks.check_rll(variant, fock, a, b, tol)
        for a, b in _sample_pairs(rng, 2)
        for variant in (spec, replace(spec, variant=lax.VARIANT_LHAT))
    ]
    _, calib = checks.calibrate_ordering(
        cfg.rank, fock, cfg.seed, tol=cfg.tol("calibrate-ordering")
    )
    return reports + [calib]


def _transmission_algebra(cfg, rng):
    fock, tol = cfg.fock(), cfg.tol("transmission-algebra")
    return [
        checks.check_transmission_algebra(cfg.rank, fock, a, b, conjugate, tol=tol)
        for conjugate in (False, True)
        for a, b in _sample_pairs(rng, 2, avoid_diff=(1j, -1j))
    ]


def _transfer_commute(cfg, rng):
    chain, tol = cfg.chain(), cfg.tol("transfer-commute")
    return [checks.check_transfer_commute(chain, a, b, tol) for a, b in _sample_pairs(rng, 2)]


# suite -> (draws random points, runner(cfg, rng) returning its reports); a
# randomized suite draws from rng_for(seed, "cli-<suite>"), the others get None
SUITES = {
    "ybe": (True, _ybe),
    "rll": (True, _rll),
    "oscillator": (False, lambda cfg, rng: [
        checks.check_oscillator_algebra(cfg.fock(), cfg.tol("oscillator"))
    ]),
    "crossing": (True, lambda cfg, rng: [
        checks.check_lax_crossing(
            cfg.lax_spec(), cfg.fock(), checks.sample_points(rng, 10), cfg.tol("crossing")
        )
    ]),
    "transmission-algebra": (True, _transmission_algebra),
    "transmission-crossing": (False, lambda cfg, rng: [
        checks.check_transmission_crossing(
            cfg.rank, cfg.fock(), tol=cfg.tol("transmission-crossing")
        )
    ]),
    "transfer-commute": (True, _transfer_commute),
    "highest-weight": (False, lambda cfg, rng: [
        checks.check_highest_weight(cfg.chain(), tol=cfg.tol("highest-weight"))
    ]),
    "gamma-identity": (False, lambda cfg, rng: [
        thermo.check_gamma_identity(mu, cfg.tol("gamma-identity")) for mu in GAMMA_MU_VALUES
    ]),
}


def cmd_check(suite: str, cfg: RunConfig) -> int:
    suites = list(SUITES) if suite == "all" else [suite]
    if cfg.seed is None and any(SUITES[s][0] for s in suites):
        print(
            "error: randomized checks need a seed (--seed, config file, or DEFECTLAB_SEED)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    reports = []
    for s in suites:
        randomized, runner = SUITES[s]
        reports += runner(cfg, checks.rng_for(cfg.seed, f"cli-{s}") if randomized else None)
    reports.sort(key=lambda r: (r.name, repr(r.parameters)))
    payload = {
        "schema": 1,
        "suite": suite,
        "config": _config_echo(cfg),
        "checks": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _write_json(cfg, payload)
    return EXIT_OK if payload["all_passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# amplitude scan


def _amplitude_rows(table, sign: str, lams, log_t, dlog_t):
    rows = []
    worst = 0.0
    for lam, log_i, dlog_i in zip(lams, log_t, dlog_t):
        lam = float(lam)
        try:
            closed = lax.transmission_amplitude(table.rank, sign, lam)
            deriv_closed = thermo.amplitude_log_derivative_closed(table, sign, lam)
        except PoleProximityError:
            rows.append((lam, complex("nan+nanj"), complex("nan+nanj"), float("nan"), sign, "pole"))
            continue
        integral = complex(np.exp(log_i))
        logderiv_residual = abs(complex(dlog_i) - deriv_closed)
        rel = abs(integral - closed) / max(abs(closed), 1e-300)
        worst = checks.worst_of(worst, rel, logderiv_residual)
        finite = all(map(cmath.isfinite, (closed, integral, logderiv_residual)))
        status = "ok" if finite else "nonfinite"
        rows.append((lam, closed, integral, logderiv_residual, sign, status))
    return rows, worst


def cmd_amplitudes(cfg: RunConfig, sign: str) -> int:
    signs = ("-", "+") if sign == "both" else (sign,)
    table = thermo.KernelTable(cfg.rank)
    lams = cfg.grid()
    rows = []
    worst = 0.0
    # an overflow shows as a nonfinite row, named on stderr below
    with np.errstate(over="ignore", invalid="ignore"):
        logs = thermo.amplitude_quadrature(table, signs, lams)
        for s in signs:
            new_rows, w = _amplitude_rows(table, s, lams, *logs[s])
            rows.extend(new_rows)
            worst = checks.worst_of(worst, w)
    nonfinite = [
        f"lambda {lam!r} sign {s}" for lam, _, _, _, s, status in rows if status == "nonfinite"
    ]
    if nonfinite:
        print(f"warning: amplitude rows not finite: {', '.join(nonfinite)}", file=sys.stderr)
    tol = cfg.tol("amplitudes")
    if (cfg.fmt or "csv") == "json":
        _write_json(cfg, {
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
        })
    else:
        _write_csv(
            cfg,
            "lambda,closed_form_re,closed_form_im,integral_re,integral_im,"
            "logderiv_residual,sign,status",
            [
                (lam, closed.real, closed.imag, integral.real, integral.imag, deriv, s, status)
                for lam, closed, integral, deriv, s, status in rows
            ],
        )
    return EXIT_OK if worst <= tol else EXIT_FAIL


# ---------------------------------------------------------------------------
# Bethe solve


def cmd_bae(input_path: str, cfg: RunConfig) -> int:
    try:
        with open(input_path) as fh:
            state = bethe.BetheState.from_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read state file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tol = cfg.tol("bae")
    try:
        solved = bethe.solve_bae(state, tol=tol)
    except bethe.RootCollisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except bethe.ConvergenceError as exc:
        _write_json(cfg, {
            "schema": 1,
            "converged": False,
            "error": str(exc),
            "trace": [float(x) for x in exc.trace],
        })
        return EXIT_FAIL
    residual = float(np.max(np.abs(bethe.bae_residual(solved)), initial=0.0))
    _write_json(cfg, {
        "schema": 1,
        "converged": True,
        "residual": residual,
        "tolerance": tol,
        "state": solved.to_dict(),
    })
    return EXIT_OK if residual <= tol else EXIT_FAIL


# ---------------------------------------------------------------------------
# density profile


def cmd_density(cfg: RunConfig, level: int, sign: str, sites: int, hole: float) -> int:
    if cfg.theta.imag != 0.0:
        print(f"error: density needs a real theta, got {cfg.theta}", file=sys.stderr)
        return EXIT_USAGE
    table = thermo.KernelTable(cfg.rank)
    try:
        # an overflow shows as a nonfinite row, named on stderr below
        with np.errstate(over="ignore", invalid="ignore"):
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
    # total is finite exactly where every component is
    nonfinite = [f"lambda {float(lam)!r}" for lam in profile.lams[~np.isfinite(profile.total)]]
    if nonfinite:
        print(f"warning: density rows not finite: {', '.join(nonfinite)}", file=sys.stderr)
    if (cfg.fmt or "csv") == "json":
        _write_json(cfg, profile.to_dict())
    else:
        _write_csv(
            cfg,
            "lambda,sigma_re,sigma_im,bulk,hole_backflow,defect_re,defect_im",
            zip(profile.lams, profile.total.real, profile.total.imag, profile.bulk,
                profile.hole_backflow, profile.defect.real, profile.defect.imag),
        )
    return EXIT_FAIL if nonfinite else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


# every flag a subcommand may take, in the order they are registered; each
# subcommand takes --config, --output and the ones it reads, so argparse
# refuses the rest
_FLAGS = (
    (("--config",), dict(help="JSON config file; flags override it")),
    (("--rank",), dict(type=int)),
    (("--fock-cutoff",), dict(type=int, dest="fock_cutoff")),
    (("--sites",), dict(type=int)),
    (("--theta",), dict(help="impurity rapidity, e.g. 0.3 or 0.3+0.2j")),
    (("--grid",), dict(nargs=3, metavar=("MIN", "MAX", "COUNT"))),
    (("--tol",), dict(action="append", metavar="NAME=VALUE")),
    (("--seed",), dict(type=int)),
    (("--output", "-o"), {}),
    (("--format",), dict(choices=("json", "csv"))),
)


def _add_flags(sub, *names):
    for flags, kwargs in _FLAGS:
        if flags[0] in ("--config", "--output", *names):
            sub.add_argument(*flags, **kwargs)


class _NumberLiteral:
    """Stands in for argparse's negative-number pattern, which takes '-1e-3'
    or '-inf' for a flag: an argument that Python reads as a number is a
    value.  argparse only calls its match method."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            complex(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    # add_parser builds the subcommand parsers with this class too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NumberLiteral


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="defectlab",
        description="certify the impurity chain operator identities and scan its amplitudes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a named check suite")
    p_check.add_argument("suite", choices=[*SUITES, "all"])
    _add_flags(p_check, "--rank", "--fock-cutoff", "--sites", "--theta", "--tol", "--seed")
    p_check.add_argument("--ordering", choices=(lax.NORMAL, lax.ANTINORMAL))
    p_check.add_argument("--shift", type=float)

    p_amp = sub.add_parser("amplitudes", help="scan transmission amplitudes on a grid")
    _add_flags(p_amp, "--rank", "--grid", "--tol", "--format")
    p_amp.add_argument("--sign", default="both", choices=("+", "-", "plus", "minus", "both"))

    p_bae = sub.add_parser("bae", help="solve the nested equations from a JSON state file")
    p_bae.add_argument("input", help="BetheState JSON file")
    _add_flags(p_bae, "--tol")

    p_den = sub.add_parser("density", help="single-hole density profile with the impurity")
    _add_flags(p_den, "--rank", "--theta", "--grid", "--format")
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
    if cfg.output:
        existed = os.path.exists(cfg.output)
        try:
            open(cfg.output, "a").close()  # fail before the computation, not after
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not existed:
            os.remove(cfg.output)
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
