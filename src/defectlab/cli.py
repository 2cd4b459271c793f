"""Command-line frontend: named check suites, Bethe solving from JSON files,
amplitude scans, and density profiles, all with machine-readable output.

Exit codes are stable across commands: 0 all passed, 1 a check or a solve
failed, 2 usage or configuration error.  Identical config and seed produce
byte-identical reports: output contains no timestamps, floats are emitted
via repr, and JSON keys are sorted.  JSON reports are strict: a float that
is not finite is written as null.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from . import bethe, checks, lax, thermo
from .special import DEFAULT_POLE_GUARD, modulus, pole_distance

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
        if count < 2:
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
        return np.linspace(*self.lambda_grid)

    @cached_property
    def chain(self) -> lax.ChainSpec:
        """The run's one chain, built on first use: every suite reads its fock and lax."""
        return lax.ChainSpec(self.rank, self.chain_sites, self.fock_cutoff, theta=self.theta,
                             lax=lax.LaxSpec(self.rank, lax.VARIANT_L, self.ordering, self.shift))


def _grid(value) -> tuple:
    if sorted(bethe._json(value, dict)) != ["count", "max", "min"]:
        raise ValueError(value)
    return bethe._real(value["min"]), bethe._real(value["max"]), bethe._integer(value["count"])


def _choice(*options) -> tuple:
    return (lambda value: options[options.index(value)]), dict(choices=options), None


def _grid_flag(texts) -> tuple:
    parts = zip((float, float, int), texts, ("MIN", "MAX", "COUNT"))
    return tuple(bethe._read(read, t, f"--grid {p} cannot take {t!r}") for read, t, p in parts)


def _tolerance_flag(item: str) -> tuple:
    name, _, value = item.partition("=")
    if not value:
        raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
    return name, bethe._read(float, value, f"--tol {name} cannot take {value!r}")


# a value kind: (strict reader of a config-file value, the flag's argparse
# options, reader of what argparse parsed or None to take it as parsed)
_INTEGER = bethe._integer, dict(type=int), None
_REAL = bethe._real, dict(type=float), None
_TEXT = (lambda value: bethe._json(value, str)), {}, None
_THETA = bethe._pair, dict(type=complex, help="impurity rapidity, e.g. 0.3 or 0.3+0.2j"), None
_GRID = _grid, dict(nargs=3, metavar=("MIN", "MAX", "COUNT")), _grid_flag
_TOLERANCES = (lambda t: {k: bethe._real(v) for k, v in bethe._json(t, dict).items()},
               dict(action="append", metavar="NAME=VALUE"),
               lambda items: dict(map(_tolerance_flag, items)))

# RunConfig field -> (config-file key, flag spellings, the subcommands that take
# the flag, value kind, echoed in the check report), in flag registration order
_SETTINGS = {
    "rank": ("rank", ("--rank",), "check amplitudes density", _INTEGER, True),
    "fock_cutoff": ("fock_cutoff", ("--fock-cutoff",), "check", _INTEGER, True),
    "chain_sites": ("chain_sites", ("--sites",), "check", _INTEGER, True),
    "theta": ("theta", ("--theta",), "check density", _THETA, True),
    "lambda_grid": ("lambda_grid", ("--grid",), "amplitudes density", _GRID, False),
    "tolerances": ("tolerances", ("--tol",), "check amplitudes bae", _TOLERANCES, False),
    "seed": ("seed", ("--seed",), "check", _INTEGER, True),
    "output": ("output", ("--output", "-o"), "check amplitudes bae density", _TEXT, False),
    "fmt": ("format", ("--format",), "amplitudes density", _choice("json", "csv"), False),
    "ordering": ("ordering", ("--ordering",), "check", _choice(lax.NORMAL, lax.ANTINORMAL), True),
    "shift": ("shift", ("--shift",), "check", _REAL, True),
}


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("the config file must hold a JSON object")
        unknown = sorted(set(data) - {key for key, *_ in _SETTINGS.values()})
        if unknown:
            raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
        values = {}
        for name, (key, _, _, (read, _, _), _) in _SETTINGS.items():
            if key in data:
                message = f"config key {key!r} cannot take {json.dumps(data[key])}"
                values[name] = bethe._read(read, data[key], message)
        cfg = replace(cfg, **values)
    updates = {}
    for name, (_, flags, _, (_, _, from_flag), _) in _SETTINGS.items():
        given = getattr(args, flags[0][2:].replace("-", "_"), None)  # argparse's dest
        if given is not None:
            updates[name] = from_flag(given) if from_flag else given
    if "tolerances" in updates:  # --tol adds to the file's tolerances
        updates["tolerances"] = {**cfg.tolerances, **updates["tolerances"]}
    cfg = replace(cfg, **updates)
    seed = os.environ.get("DEFECTLAB_SEED")
    if cfg.seed is None and seed:
        cfg = replace(cfg, seed=bethe._read(int, seed, f"DEFECTLAB_SEED cannot take {seed!r}"))
    return cfg


def _write_text(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(cfg: RunConfig, payload: dict) -> None:
    """Strict JSON: a float that is not finite is written as null."""

    def finite(value):
        if isinstance(value, float):
            return value if cmath.isfinite(value) else None
        if isinstance(value, dict):
            return {key: finite(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(item) for item in value]
        return value

    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # a NaN or an infinity: only then walk the payload
        text = json.dumps(finite(payload), sort_keys=True, indent=2, allow_nan=False)
    _write_text(cfg, text + "\n")


def _write_csv(cfg: RunConfig, header: str, columns) -> None:
    """One line per row of equal-length columns: a float array's values by
    repr, a list of strings as it is."""
    cells = [col if isinstance(col, list) else map(repr, col.tolist()) for col in columns]
    _write_text(cfg, "\n".join([header, *map(",".join, zip(*cells, strict=True))]) + "\n")


def _config_echo(cfg: RunConfig) -> dict:
    echo = {key: getattr(cfg, name) for name, (key, *_, echo) in _SETTINGS.items() if echo}
    return {**echo, "theta": [cfg.theta.real, cfg.theta.imag]}


# ---------------------------------------------------------------------------
# check suites


def _sample_pairs(rng, count, separation=0.02, avoid_diff=()):
    """Argument pairs for exchange-relation checks, redrawn while the
    difference sits near a listed special point."""
    pairs = []
    while len(pairs) < count:
        a, b = checks.sample_points(rng, 2)
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
    fock, spec, tol = cfg.chain.fock, cfg.chain.lax, cfg.tol("rll")
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
    fock, tol = cfg.chain.fock, cfg.tol("transmission-algebra")
    return [
        checks.check_transmission_algebra(cfg.rank, fock, a, b, conjugate, tol=tol)
        for conjugate in (False, True)
        for a, b in _sample_pairs(rng, 2, avoid_diff=(1j, -1j))
    ]


def _transfer_commute(cfg, rng):
    chain, tol = cfg.chain, cfg.tol("transfer-commute")
    return [checks.check_transfer_commute(chain, a, b, tol) for a, b in _sample_pairs(rng, 2)]


# suite -> (draws random points, runner(cfg, rng) returning its reports); a
# randomized suite draws from rng_for(seed, "cli-<suite>"), the others get None
SUITES = {
    "ybe": (True, _ybe),
    "rll": (True, _rll),
    "oscillator": (False, lambda cfg, rng: [
        checks.check_oscillator_algebra(cfg.chain.fock, cfg.tol("oscillator"))
    ]),
    "crossing": (True, lambda cfg, rng: [
        checks.check_lax_crossing(
            cfg.chain.lax, cfg.chain.fock, checks.sample_points(rng, 10), cfg.tol("crossing")
        )
    ]),
    "transmission-algebra": (True, _transmission_algebra),
    "transmission-crossing": (False, lambda cfg, rng: [
        checks.check_transmission_crossing(
            cfg.rank, cfg.chain.fock, tol=cfg.tol("transmission-crossing")
        )
    ]),
    "transfer-commute": (True, _transfer_commute),
    "highest-weight": (False, lambda cfg, rng: [
        checks.check_highest_weight(cfg.chain, tol=cfg.tol("highest-weight"))
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


def _amplitude_rows(rank: int, sign: str, lams, log_t, dlog_t):
    """One sign's rows on the lambda grid as columns (closed form, integral,
    log-derivative residual, status), and the worst residual, a NaN if any
    row without a pole has one.  A row whose Gamma arguments lie on the pole
    guard is all NaN, with status 'pole'."""
    num, den = lax.amplitude_gamma_args(rank, sign, lams)
    pole = np.minimum(pole_distance(num), pole_distance(den)) <= DEFAULT_POLE_GUARD
    nan = complex("nan+nanj")
    closed, deriv_closed = np.full(lams.shape, nan), np.full(lams.shape, nan)
    closed[~pole], deriv_closed[~pole] = lax.transmission_amplitude(rank, sign, lams[~pole])
    integral = np.where(pole, nan, np.exp(log_t))
    residual = modulus(dlog_t - deriv_closed)
    rel = modulus(integral - closed) / np.maximum(modulus(closed), 1e-300)
    worst = float(np.max([rel[~pole], residual[~pole]], initial=0.0))
    finite = np.isfinite(closed) & np.isfinite(integral) & np.isfinite(residual)
    status = np.where(pole, "pole", np.where(finite, "ok", "nonfinite"))
    return (closed, integral, residual, status), worst


def cmd_amplitudes(cfg: RunConfig, sign: str) -> int:
    signs = ("-", "+") if sign == "both" else (sign,)
    table = thermo.KernelTable(cfg.rank)
    lams = cfg.grid()
    # an overflow shows as a nonfinite row, named on stderr below
    with np.errstate(over="ignore", invalid="ignore"):
        logs = thermo.amplitude_quadrature(table, signs, lams)
        parts = [_amplitude_rows(cfg.rank, s, lams, *logs[s]) for s in signs]
    worst = checks.worst_of(*(w for _, w in parts))
    closed, integral, deriv, status = map(np.concatenate, zip(*(cols for cols, _ in parts)))
    status = status.tolist()
    lam_col = np.tile(lams, len(signs))
    sign_col = [s for s in signs for _ in lams]
    nonfinite = [
        f"lambda {lam!r} sign {s}"
        for lam, s, st in zip(lam_col.tolist(), sign_col, status) if st == "nonfinite"
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
                    "closed_form": [c.real, c.imag],
                    "integral": [i.real, i.imag],
                    "logderiv_residual": d,
                    "sign": s,
                    "status": st,
                }
                for lam, c, i, d, s, st in zip(lam_col.tolist(), closed.tolist(),
                                               integral.tolist(), deriv.tolist(), sign_col, status)
            ],
        })
    else:
        _write_csv(
            cfg,
            "lambda,closed_form_re,closed_form_im,integral_re,integral_im,"
            "logderiv_residual,sign,status",
            [lam_col, closed.real, closed.imag, integral.real, integral.imag, deriv, sign_col,
             status],
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
            [profile.lams, profile.total.real, profile.total.imag, profile.bulk,
             profile.hole_backflow, profile.defect.real, profile.defect.imag],
        )
    return EXIT_FAIL if nonfinite else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


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


@cache  # built on the first main call, not at import, and kept for the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectlab",
        description="certify the impurity chain operator identities and scan its amplitudes",
    )
    parser._negative_number_matcher = _NumberLiteral
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (
        ("check", "run a named check suite"),
        ("amplitudes", "scan transmission amplitudes on a grid"),
        ("bae", "solve the nested equations from a JSON state file"),
        ("density", "single-hole density profile with the impurity"),
    ):
        p = sub.add_parser(command, help=text)
        p._negative_number_matcher = _NumberLiteral
        p.add_argument("--config", help="JSON config file; flags override it")
        for _, flags, commands, (_, options, _), _ in _SETTINGS.values():
            if command in commands.split():
                p.add_argument(*flags, **options)
    p_check, p_amp, p_bae, p_den = sub.choices.values()
    p_check.add_argument("suite", choices=[*SUITES, "all"])
    p_amp.add_argument("--sign", default="both", choices=("+", "-", "plus", "minus", "both"))
    p_bae.add_argument("input", help="BetheState JSON file")
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
