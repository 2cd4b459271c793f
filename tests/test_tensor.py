import math

import numpy as np
import pytest

from defectlab.tensor import (
    MATRIX_BYTE_BUDGET,
    FockSpace,
    apply_local,
    embed_pair,
    permutation_op,
    require_budget,
)


def test_permutation_swaps_simple_tensors():
    n = 3
    p = permutation_op(n)
    rng = np.random.default_rng(1)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=n)
    assert np.allclose(p @ np.kron(v, w), np.kron(w, v))
    assert np.allclose(p @ p, np.eye(n * n))


# ---------------------------------------------------------------------------
# embedding


def _embed_reference(op, aux_dim, site_dims, slot):
    """Independent construction: einsum over explicit tensor legs."""
    dims = [aux_dim] + list(site_dims)
    k = len(site_dims)
    d = site_dims[slot - 1]
    op_t = op.reshape(aux_dim, d, aux_dim, d)
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=complex)
    # loop over all basis pairs; slow but unambiguous
    idx = np.array(np.meshgrid(*[np.arange(x) for x in dims], indexing="ij"))
    idx = idx.reshape(len(dims), -1).T
    strides = np.cumprod([1] + dims[::-1][:-1])[::-1]
    for row in idx:
        r = int(row @ strides)
        for a2 in range(aux_dim):
            for s2 in range(d):
                col_vec = row.copy()
                col_vec[0] = a2
                col_vec[slot] = s2
                c = int(col_vec @ strides)
                out[r, c] = op_t[row[0], row[slot], a2, s2]
    return out


def test_embed_pair_against_reference():
    rng = np.random.default_rng(4)
    aux, dims = 2, [3, 2]
    for slot in (1, 2):
        d = dims[slot - 1]
        op = rng.normal(size=(aux * d, aux * d)) + 1j * rng.normal(size=(aux * d, aux * d))
        got = embed_pair(op, aux, dims, slot)
        ref = _embed_reference(op, aux, dims, slot)
        assert np.allclose(got, ref)


def test_embed_pair_identity_passthrough():
    aux, dims = 3, [2, 4, 2]
    eye = np.eye(aux * dims[1])
    assert np.allclose(embed_pair(eye, aux, dims, 2), np.eye(aux * 16))


def test_embed_pair_slot_range():
    with pytest.raises(ValueError):
        embed_pair(np.eye(4), 2, [2], 2)
    with pytest.raises(ValueError):
        embed_pair(np.eye(5), 2, [2], 1)


# ---------------------------------------------------------------------------
# local application


@pytest.mark.parametrize(
    "dims,slots",
    [
        ((2, 3, 2), (0, 1)),  # adjacent
        ((2, 3, 2), (1, 2)),
        ((2, 3, 2), (0, 2)),  # not adjacent
        ((3, 2, 2, 2), (1, 3)),
        ((2, 3, 2), (1, 0)),  # reversed
        ((3, 2, 2, 2), (3, 0)),
    ],
)
@pytest.mark.parametrize("columns", ["square", 5, 1, "vector"])
def test_apply_local_against_kron_reference(kron_embed, dims, slots, columns):
    rng = np.random.default_rng(len(dims) * 10 + slots[0] * 3 + slots[1])
    pair = dims[slots[0]] * dims[slots[1]]
    total = int(np.prod(dims))
    op = rng.normal(size=(pair, pair)) + 1j * rng.normal(size=(pair, pair))
    shape = {"square": (total, total), "vector": (total,)}.get(columns, (total, columns))
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = apply_local(op, x, dims, slots)
    ref = kron_embed(op, dims, slots) @ x
    assert got.shape == x.shape
    assert np.max(np.abs(got - ref)) <= 1e-15 * pair * np.max(np.abs(op)) * np.max(np.abs(x))


def test_apply_local_empty_block():
    assert apply_local(np.eye(6), np.zeros((12, 0)), (2, 3, 2), (0, 1)).shape == (12, 0)


def test_apply_local_rejects_bad_arguments():
    x = np.eye(12)
    with pytest.raises(ValueError):
        apply_local(np.eye(4), x, (2, 3, 2), (0, 0))
    with pytest.raises(ValueError):
        apply_local(np.eye(4), x, (2, 3, 2), (0, 3))
    with pytest.raises(ValueError):
        apply_local(np.eye(6), x, (2, 3, 2), (0, 2))
    with pytest.raises(ValueError):
        apply_local(np.eye(4), np.eye(10), (2, 3, 2), (0, 2))


def test_byte_budget_is_checked_before_allocation():
    limit = MATRIX_BYTE_BUDGET // np.dtype(complex).itemsize
    require_budget((limit,), "at the budget")
    with pytest.raises(ValueError, match="budget"):
        require_budget((limit + 1,), "over the budget")
    with pytest.raises(ValueError, match="budget"):
        FockSpace(3, 200)  # refused before enumerating 1.4 million states


# ---------------------------------------------------------------------------
# Fock space


def test_fock_dimension_is_binomial():
    for species in (1, 2, 3):
        for cutoff in (1, 2, 4):
            f = FockSpace(species, cutoff)
            assert f.dim == math.comb(cutoff + species, species)


def test_fock_basis_graded_and_vacuum_first():
    f = FockSpace(2, 3)
    occs = f.basis
    assert occs[0] == (0, 0)
    totals = [sum(o) for o in occs]
    assert totals == sorted(totals)
    assert len(set(occs)) == f.dim
    v = f.vacuum()
    assert v[0] == 1.0 and np.sum(np.abs(v)) == 1.0


def test_ladder_matrix_elements_single_species():
    f = FockSpace(1, 4)
    a = f.annihilator(1)
    # a |n> = sqrt(n) |n-1>
    for n in range(1, 5):
        col = np.zeros(f.dim)
        col[f.index[(n,)]] = 1.0
        out = a @ col
        expected = np.zeros(f.dim)
        expected[f.index[(n - 1,)]] = math.sqrt(n)
        assert np.allclose(out, expected)
    assert np.allclose(f.creator(1), a.conj().T)


def test_ladder_commutators_on_subblock():
    f = FockSpace(2, 4)
    sub = f.sub_cutoff_indices(1)
    for i in (1, 2):
        for j in (1, 2):
            ai, adj = f.annihilator(i), f.creator(j)
            comm = ai @ adj - adj @ ai
            target = np.eye(f.dim) if i == j else np.zeros((f.dim, f.dim))
            assert np.max(np.abs((comm - target)[np.ix_(sub, sub)])) < 1e-13


def test_number_operator_both_orderings():
    f = FockSpace(2, 3)
    n_norm = f.number_op("normal")
    diag = np.array([sum(o) for o in f.basis], dtype=float)
    assert np.allclose(np.diag(n_norm), diag)
    n_anti = f.number_op("antinormal")
    assert np.allclose(n_anti, n_norm + f.species * np.eye(f.dim))
    # [N, a_j] = -a_j exactly on the full truncated space
    for j in (1, 2):
        a = f.annihilator(j)
        assert np.max(np.abs(n_norm @ a - a @ n_norm + a)) < 1e-13
        ad = f.creator(j)
        assert np.max(np.abs(n_norm @ ad - ad @ n_norm - ad)) < 1e-13


def test_sub_cutoff_indices():
    f = FockSpace(2, 3)
    sub = f.sub_cutoff_indices(1)
    assert all(sum(f.basis[i]) <= 2 for i in sub)
    assert len(sub) == math.comb(2 + 2, 2)
