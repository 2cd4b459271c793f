"""The T-Q oracle: the operator layer's transfer matrix against the Bethe
layer's equations, by exact diagonalization on a small chain (Hao,
Nepomechie and Sommese, arXiv:1308.4645).

At rank 2 every eigenvalue of t(lambda) on L bulk sites satisfies

    Lambda(lambda) Q(lambda) = a(lambda) Q(lambda + i) + d(lambda) Q(lambda - i),

with Q(lambda) = prod_j (lambda - u_j + i/2) over the Bethe roots u_j and

    L:    a = (lambda - theta + i) lambda^L,  d = i (lambda + i)^L,
    Lhat: a = i lambda^L,                     d = -(lambda - theta) (lambda + i)^L.

t(lambda) is built densely, from ``lax.transfer`` on identity columns, at
Fock cutoff 5 (3 at ranks 3 and 4), where the eigenvalues tested here are
exact.

At every rank the reference state (Fock vacuum at the defect, e_rank at every
bulk site) gives the eigenvalue Lambda_0 = sum_k prod_slots w_k of the
diagonal vacuum weights w_k: at a bulk site lambda + i for k = rank and
lambda otherwise; at the defect, for L, lambda - theta + i for k = 1 and i
otherwise, and for Lhat, -(lambda - theta) - i rank/2 + i for k = rank and i
otherwise.  At rank 2 that is a + d above.

One root x on nesting level a (between the weights W_a and W_a+1) dresses
those two: with Q(lambda) = lambda - x + i/2,

    Lambda = sum_{k != a, a+1} W_k + (W_a Q(lambda + i) + W_a+1 Q(lambda - i)) / Q(lambda),

which has no pole where W_a = W_a+1, so x - i/2 is a zero of W_a - W_a+1.
"""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from defectlab import checks
from defectlab.bethe import BetheState, solve_bae
from defectlab.lax import ChainSpec, LaxSpec, transfer

SITES = 3
LAMBDAS = (0.37 + 0.11j, -1.1 + 0.6j)


def _chain(variant, slot, theta, rank=2, sites=SITES, cutoff=5):
    return ChainSpec(rank=rank, sites=sites, fock_cutoff=cutoff, defect_site=slot, theta=theta,
                     lax=LaxSpec(rank, variant=variant))


def _transfer_matrix(chain, lam):
    q = int(np.prod(chain.dims[1:]))
    return transfer(chain, lam, np.eye(q, dtype=complex))


def _miss(chain, lam, value):
    """Relative distance of ``value`` to the nearest eigenvalue of t(lambda)."""
    eigenvalues = np.linalg.eigvals(_transfer_matrix(chain, lam))
    return np.min(np.abs(eigenvalues - value)) / abs(value)


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
    return _miss(_chain(variant, slot, theta), lam, value)


def _vacuum_weight(chain, k, lam):
    """prod_slots w_k, with the weights of the module docstring."""
    n, weight = chain.rank, 1.0
    for p in range(1, chain.sites + 2):
        if p != chain.defect_site:
            weight *= lam + 1j if k == n else lam
        elif chain.lax.variant == "L":
            weight *= lam - chain.theta + 1j if k == 1 else 1j
        else:
            weight *= -(lam - chain.theta) - 1j * n / 2 + 1j if k == n else 1j
    return weight


# (rank, bulk sites, Fock cutoff) of the chains whose reference eigenvalue is tested
NESTED = [(3, 2, 3), (4, 1, 3)]


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


@pytest.mark.parametrize("variant", ["L", "Lhat"])
@pytest.mark.parametrize("rank, sites, cutoff", NESTED, ids=["rank3", "rank4"])
def test_nested_reference_eigenvalue_is_in_the_spectrum(variant, rank, sites, cutoff):
    # M = 0 at ranks 3 and 4: Lambda_0 from the weights written in this file
    for slot in range(1, sites + 2):
        for theta in (0.3, -1.1):
            chain = _chain(variant, slot, theta, rank, sites, cutoff)
            for lam in LAMBDAS:
                value = sum(_vacuum_weight(chain, k, lam) for k in range(1, rank + 1))
                assert _miss(chain, lam, value) < 1e-13, (slot, theta, lam)


# the levels a whose pair W_a, W_a+1 yields a root, and how many roots each
# yields over every defect slot, theta and the chain of NESTED: the bulk
# couples only a = rank - 1, L's impurity only a = 1 and Lhat's only rank - 1
ONE_ROOT_LEVELS = {
    (3, "L"): {1: 6, 2: 6},
    (3, "Lhat"): {2: 18},
    (4, "L"): {1: 4},
    (4, "Lhat"): {3: 8},
}


@pytest.mark.parametrize("variant", ["L", "Lhat"])
@pytest.mark.parametrize("rank, sites, cutoff", NESTED, ids=["rank3", "rank4"])
def test_one_root_nested_eigenvalue_is_in_the_spectrum(variant, rank, sites, cutoff):
    # M = 1 at ranks 3 and 4: every root that the weights of this file give
    # on any level, from the zeros of W_a - W_a+1 as polynomials in lambda
    found = {}
    for slot in range(1, sites + 2):
        for theta in (0.3, -1.1):
            chain = _chain(variant, slot, theta, rank, sites, cutoff)
            w = [None] + [_vacuum_weight(chain, k, Polynomial([0, 1])) for k in range(1, rank + 1)]
            for a in range(1, rank):
                gap = w[a] - w[a + 1]
                if not np.any(gap.coef):
                    continue
                for r in gap.roots():
                    # a zero of W_a itself is a zero of the factor
                    # lambda^sites that W_a and W_a+1 share, not of the Bethe
                    # equation W_a / W_a+1 = 1; the Lambda it dresses misses
                    # every eigenvalue (by 3.8e-2 to 1.6e-1 relative)
                    if abs(w[a](r)) < 1e-9:
                        continue
                    found[a] = found.get(a, 0) + 1
                    q = lambda z: z - r  # Q with x = r + i/2
                    for lam in LAMBDAS:
                        rest = sum(w[k](lam) for k in range(1, rank + 1) if k not in (a, a + 1))
                        value = rest + (w[a](lam) * q(lam + 1j) + w[a + 1](lam) * q(lam - 1j)) / q(lam)
                        assert _miss(chain, lam, value) < 1e-13, (slot, theta, a, r, lam)
    assert found == ONE_ROOT_LEVELS[rank, variant]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1a")
def test_vacuum_weights_of_the_checks_sum_to_an_eigenvalue():
    # the same sum from checks._local_vacuum_weight, whose bulk weight follows
    # lax.bulk_reference: e_1 today, which misses; e_rank is item 1a
    for rank, sites, cutoff in [(2, SITES, 5)] + NESTED:
        for variant in ("L", "Lhat"):
            for slot in range(1, sites + 2):
                for theta in (0.3, -1.1):
                    chain = _chain(variant, slot, theta, rank, sites, cutoff)
                    for lam in LAMBDAS:
                        value = sum(checks._local_vacuum_weight(chain, k, lam) for k in range(1, rank + 1))
                        assert _miss(chain, lam, value) < 1e-13, (rank, variant, slot, theta, lam)
