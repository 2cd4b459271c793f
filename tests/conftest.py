from functools import reduce

import numpy as np
import pytest

from defectlab.lax import defect_lax, r_matrix


def _kron_embed(op, dims, slots):
    """Full matrix of ``op`` acting on factors ``slots = (a, b)`` of a space
    with factor dimensions ``dims`` (leftmost slowest), its own left factor
    being ``a``.  Built independently of the library: a sum over the entries
    of ``op`` of Kronecker products of matrix units and identities."""
    a, b = slots
    da, db = dims[a], dims[b]
    t = np.asarray(op, dtype=complex).reshape(da, db, da, db)
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=complex)
    for i, k, j, l in zip(*np.nonzero(t)):
        factors = [np.eye(d) for d in dims]
        factors[a] = np.zeros((da, da))
        factors[a][i, j] = 1.0
        factors[b] = np.zeros((db, db))
        factors[b][k, l] = 1.0
        out += t[i, k, j, l] * reduce(np.kron, factors)
    return out


def _dense_monodromy(chain, lam):
    """Monodromy as the dense product of kron-embedded local factors, the
    slot-1 factor rightmost."""
    fock = chain.fock
    dims = [chain.rank] + [
        fock.dim if p == chain.defect_site else chain.rank for p in range(1, chain.sites + 2)
    ]
    out = np.eye(int(np.prod(dims)), dtype=complex)
    for p in range(1, chain.sites + 2):
        if p == chain.defect_site:
            factor = defect_lax(chain.lax, fock, lam - chain.theta)
        else:
            factor = r_matrix(chain.rank, lam)
        out = _kron_embed(factor, dims, (0, p)) @ out
    return out


@pytest.fixture
def kron_embed():
    return _kron_embed


@pytest.fixture
def dense_monodromy():
    return _dense_monodromy
