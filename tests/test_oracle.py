"""The T-Q oracle: the operator layer's transfer matrix against the Bethe
layer's equations, by exact diagonalization on a small chain (Hao,
Nepomechie and Sommese, arXiv:1308.4645).

At rank 2 every eigenvalue of t(lambda) on L bulk sites satisfies

    Lambda(lambda) Q(lambda) = a(lambda) Q(lambda + i) + d(lambda) Q(lambda - i),

with Q(lambda) = prod_j (lambda - u_j + i/2) over the Bethe roots u_j and

    L:    a = (lambda - theta + i) lambda^L,  d = i (lambda + i)^L,
    Lhat: a = i lambda^L,                     d = -(lambda - theta) (lambda + i)^L.

t(lambda) is built densely, from ``lax.transfer`` on identity columns, at
Fock cutoff 5, where the spectrum tested here is exact.
"""

import numpy as np
import pytest

from defectlab.bethe import BetheState, solve_bae
from defectlab.lax import ChainSpec, LaxSpec, transfer

SITES = 3
LAMBDAS = (0.37 + 0.11j, -1.1 + 0.6j)


def _transfer_matrix(variant, slot, theta, lam):
    chain = ChainSpec(rank=2, sites=SITES, fock_cutoff=5, defect_site=slot, theta=theta,
                      lax=LaxSpec(2, variant=variant))
    q = int(np.prod(chain.dims[1:]))
    return transfer(chain, lam, np.eye(q, dtype=complex))


def _vacuum_terms(variant, theta, lam):
    """(a, d) of the T-Q relation."""
    if variant == "L":
        return (lam - theta + 1j) * lam**SITES, 1j * (lam + 1j) ** SITES
    return 1j * lam**SITES, -(lam - theta) * (lam + 1j) ** SITES


def _misfit(variant, slot, theta, lam, roots):
    """Relative distance of the T-Q eigenvalue to the nearest eigenvalue of t(lambda)."""
    q = lambda x: np.prod(x - np.asarray(roots) + 0.5j)
    a, d = _vacuum_terms(variant, theta, lam)
    value = (a * q(lam + 1j) + d * q(lam - 1j)) / q(lam)
    eigenvalues = np.linalg.eigvals(_transfer_matrix(variant, slot, theta, lam))
    return np.min(np.abs(eigenvalues - value)) / abs(value)


@pytest.mark.parametrize("variant", ["L", "Lhat"])
def test_reference_eigenvalue_is_in_the_spectrum(variant):
    # M = 0: Lambda = a + d, at every defect slot
    for slot in range(1, SITES + 2):
        for theta in (0.3, -1.1):
            for lam in LAMBDAS:
                assert _misfit(variant, slot, theta, lam, []) < 1e-13, (slot, theta, lam)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b")
def test_one_root_bethe_state_reproduces_an_eigenvalue():
    # M = 1: the root solve_bae returns for the impurity sign that goes with
    # the variant, '+' with L and '-' with Lhat
    for variant, sign in (("L", "+"), ("Lhat", "-")):
        for theta in (0.3, -1.1):
            for seed in (0.1, -0.4, 0.7):
                state = BetheState(rank=2, sites=SITES, roots=([seed],), theta=theta, defect_sign=sign)
                state = solve_bae(state)
                for slot in (1, 2):
                    for lam in LAMBDAS:
                        misfit = _misfit(variant, slot, theta, lam, state.roots[0])
                        assert misfit <= 1e-8, (variant, theta, seed, slot, lam)
