"""The certificate against one-function mutants of the library.

Each row of MUTANTS replaces one function of defectlab with a plausible bug
(a monkeypatch, undone after the row) and runs ``check all`` through
``defectlab.cli.main``.  The certificate kills the mutant when the call
exits 1 and the check that the row names reports a failure.  A row that the
certificate misses today is a strict xfail whose reason says why: once a
stronger check kills it, the row fails until its mark goes.  Record here
which check kills which mutant; a check that kills none of its own is a
candidate for removal.  Reference: DeMillo, Lipton and Sayward, IEEE
Computer 11(4), 1978.
"""

import dataclasses
import json
import operator

import numpy as np
import pytest

from defectlab import cli, kernels, lax, tensor

ARGV = ["check", "all", "--seed", "1"]  # rank 2, Fock cutoff 5, two bulk sites, theta 0


def _lax_without_number_operator(spec, fock, lam, role=None):
    head = np.asarray(lam, dtype=complex)[..., None] + 1j * spec.shift + np.zeros(fock.dim)
    return lax._oscillator_operator(spec.rank, fock, head, 1j, False, role)


def _monodromy_in_reverse_slot_order(chain, lam, x):
    factors = lax._local_factors(chain, lam)
    for p in range(len(factors), 0, -1):  # slot sites+1 first, slot 1 last
        factor = factors[p - 1]
        x = tensor.apply_local(factor, x, (factor.shape[-2],) + chain.dims[1:], p)
    return x


# (name, module or class, attribute, mutate(original) -> replacement, the
# check that must fail, why the certificate misses it today or None)
MUTANTS = [
    ("r-matrix-in-braid-form", lax, "r_matrix",
     lambda f: lambda rank, lam, role=None: np.matmul(tensor.permutation_op(rank), f(rank, lam),
                                                      out=tensor.kept(np.shape(lam) + (rank**2,) * 2, role)),
     "ybe", None),
    ("r-matrix-lambda-minus-iP", lax, "r_matrix",
     lambda f: lambda rank, lam, role=None: operator.isub(f(rank, lam, role), 2j * tensor.permutation_op(rank)),
     "transfer-commute", None),
    ("lax-head-without-number-operator", lax, "l_matrix", lambda f: _lax_without_number_operator,
     "rll", None),
    ("ladders-transposed", tensor.FockSpace, "_ladder", lambda f: lambda fock, j: f(fock, j).T.copy(),
     "oscillator-algebra", None),
    ("fock-cut-one-shell-too-high", tensor.FockSpace, "shells", lambda f: lambda fock, top: f(fock, top + 1),
     "rll", None),
    ("lax-crossing-shifted-by-i", lax, "crossed_l_matrix",
     lambda f: lambda spec, fock, lam, role=None: f(spec, fock, np.add(lam, 1j), role),
     "lax-crossing", None),
    ("lhat-translated", lax, "l_hat_matrix",
     lambda f: lambda spec, fock, lam, role=None: f(spec, fock, np.add(lam, 0.25j), role),
     "lax-crossing", None),
    ("r-matrix-scaled", lax, "r_matrix",
     lambda f: lambda rank, lam, role=None: operator.imul(f(rank, lam, role), 2),
     "highest-weight", None),
    ("s-matrix-at-minus-lambda", lax, "s_matrix",
     lambda f: lambda rank, lam, role=None: f(rank, np.negative(lam), role),
     "transmission-algebra", None),
    ("s-amplitude-dropped", lax, "s_amplitude", lambda f: lambda rank, lam: 1.0,
     "ybe",
     "ybe and transmission-algebra are both homogeneous in S (each side of either identity holds "
     "as many S factors as the other), so no suite sees the scalar prefactor S(lambda)"),
    ("conjugate-transmission-shifted", lax, "conjugate_transmission_matrix",
     lambda f: lambda rank, fock, lam, role=None: f(rank, fock, np.add(lam, 0.5), role),
     "transmission-crossing", None),
    ("reference-state-off-the-vacuum", lax, "chain_vacuum", lambda f: lambda chain: np.roll(f(chain), 1),
     "highest-weight", None),
    ("gamma-integrand-doubled", kernels, "gamma_identity_integrand", lambda f: lambda x, mu: 2 * f(x, mu),
     "gamma-identity", None),
    ("antinormal-offset-rank", lax.LaxSpec, "offset",
     lambda f: property(lambda spec: spec.rank if spec.ordering == lax.ANTINORMAL else 0),
     "highest-weight",
     "an offset only translates lambda, so every exchange relation holds for any offset, and "
     "highest-weight takes its expected vacuum weight from the same offset (rank - 1 is right)"),
    ("amplitude-prefactors-dropped", lax, "_scale", lambda f: lambda out, scalar, lam: out,
     "transmission-crossing", None),
    ("defect-at-lambda-plus-theta", lax, "_local_factors",
     lambda f: lambda chain, lam: f(dataclasses.replace(chain, theta=-chain.theta), lam),
     "highest-weight",
     "check all runs at theta = 0 unless --theta is given, where lambda + theta is lambda - theta"),
    ("monodromy-in-reverse-slot-order", lax, "monodromy", lambda f: _monodromy_in_reverse_slot_order,
     "highest-weight",
     "only highest-weight reads lax.monodromy, and its vacuum expectations factorize in any slot "
     "order; transfer-commute builds its products without it"),
]


def test_check_all_passes_on_the_library(capsys):
    assert cli.main(ARGV) == 0


@pytest.mark.parametrize("target, attribute, mutate, check", [
    pytest.param(target, attribute, mutate, check, id=name, marks=[
        pytest.mark.xfail(strict=True, raises=AssertionError, reason=missed)] if missed else [])
    for name, target, attribute, mutate, check, missed in MUTANTS
])
def test_check_all_kills_the_mutant(monkeypatch, capsys, target, attribute, mutate, check):
    monkeypatch.setattr(target, attribute, mutate(getattr(target, attribute)))
    code = cli.main(ARGV)
    failed = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]}
    assert code == 1 and check in failed, failed
