import math
import threading

import numpy as np
import pytest

from defectlab.tensor import (
    MATRIX_BYTE_BUDGET,
    STACK_BYTES,
    FockSpace,
    WorkArrays,
    apply_local,
    embed_pair,
    permutation_op,
    require_budget,
    work_arrays,
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


def _einsum_reference(op, x, dims, slot):
    """``op``'s four legs contracted with the auxiliary leg and leg ``slot``
    of the block ``x`` by one einsum, rows in the result's factor order."""
    legs = "ijkl"[: len(dims)]
    new = "A" + legs[1:slot] + "B" + legs[slot + 1 :]
    ref = np.einsum(f"AB{legs[0]}{legs[slot]},{legs}z->{new}z", op, x.reshape(tuple(dims) + (-1,)))
    return ref.reshape(-1, x.shape[1])


# each case's slots are (0, p): the auxiliary factor and slot p, which
# apply_local takes as its slot; a vector is applied as a one-column block
ONE_FORM_CASES = [
    ((2, 3, 2), (0, 1)),  # the first slot
    ((2, 3, 2), (0, 2)),  # the last slot: post = 1
    ((3, 2, 2, 2), (0, 2)),  # a middle slot
    ((3, 2, 2, 2), (0, 3)),
    ((2, 3), (0, 1)),  # the only slot: pre = 1 and post = 1
    ((1, 3, 2), (0, 2)),  # a one-dimensional auxiliary factor
]


@pytest.mark.parametrize("dims,slots", ONE_FORM_CASES)
@pytest.mark.parametrize("columns", ["square", 5, 1, "vector"])
def test_apply_local_against_kron_reference(kron_embed, dims, slots, columns):
    rng = np.random.default_rng(len(dims) * 10 + slots[0] * 3 + slots[1])
    da, db = dims[0], dims[slots[1]]
    total = int(np.prod(dims))
    op = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    shape = {"square": (total, total), "vector": (total,)}.get(columns, (total, columns))
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    op4, block = op.reshape(da, db, da, db), x.reshape(total, -1)
    got = apply_local(op4, block, dims, slots[1])
    bound = 1e-15 * da * db * np.max(np.abs(op)) * np.max(np.abs(x))
    assert np.max(np.abs(got - _einsum_reference(op4, block, dims, slots[1]))) <= bound
    assert np.max(np.abs(got.reshape(x.shape) - kron_embed(op, dims, slots) @ x)) <= bound


@pytest.mark.parametrize(
    "dims,slots",
    [((2, 3, 2), (0, 1)), ((2, 3, 2), (0, 2)), ((3, 2, 2, 2), (0, 2)), ((1, 3, 2), (0, 1))],
)
@pytest.mark.parametrize("out", [(1, 3), (3, 1), (4, 2)])
@pytest.mark.parametrize("columns", [4, "vector"])
def test_rectangular_apply_local_against_einsum(dims, slots, out, columns):
    # a four-leg operator (out_aux, out_slot, in_aux, in_slot) replaces the
    # auxiliary factor and the slot by out_aux and out_slot in the result;
    # out (1, 3) on a two-dimensional auxiliary factor is transfer's last cut
    # (rank -> 1), on a one-dimensional one both cuts of sites = 0 (1 -> 1),
    # and (3, 1) or (4, 2) on it slot 1's cut (1 -> rank)
    rng = np.random.default_rng(sum(dims) * 7 + sum(out))
    a, b = slots
    op = rng.normal(size=out + (dims[a], dims[b])) + 1j * rng.normal(size=out + (dims[a], dims[b]))
    shape = (int(np.prod(dims)),) + (() if columns == "vector" else (columns,))
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    block = x.reshape(len(x), -1)
    ref = _einsum_reference(op, block, dims, b)
    got = apply_local(op, block, dims, b)
    assert got.shape == ref.shape == (len(x) // (dims[a] * dims[b]) * out[0] * out[1], block.shape[1])
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_apply_local_empty_block():
    x = np.zeros((12, 0))
    assert apply_local(np.eye(6).reshape(2, 3, 2, 3), x, (2, 3, 2), 1).shape == (12, 0)
    assert apply_local(np.ones((1, 2, 2, 2)), x, (2, 3, 2), 2).shape == (6, 0)


def test_apply_local_rejects_bad_arguments():
    x, op = np.eye(12), np.ones((2, 3, 2, 3))
    with pytest.raises(ValueError, match="slot 0 invalid"):
        apply_local(op, x, (2, 3, 2), 0)
    with pytest.raises(ValueError, match="slot 3 invalid"):
        apply_local(op, x, (2, 3, 2), 3)
    with pytest.raises(ValueError, match="does not act on 2 x 2"):
        apply_local(op, x, (2, 3, 2), 2)
    with pytest.raises(ValueError, match="does not act on 2 x 3"):
        apply_local(np.zeros((2, 3, 3, 3)), x, (2, 3, 2), 1)  # in legs (3, 3), not (2, 3)
    with pytest.raises(ValueError, match="does not act on 2 x 3"):
        apply_local(np.eye(6), x, (2, 3, 2), 1)  # a square matrix, not four legs
    with pytest.raises(ValueError, match="does not have 12 rows"):
        apply_local(op, np.eye(10), (2, 3, 2), 1)
    with pytest.raises(ValueError, match="does not have 12 rows"):
        apply_local(op, np.ones(12), (2, 3, 2), 1)  # a vector, not a block


# (dims, slot, out legs or None for square): every slot of three layouts,
# and the rectangular cuts that transfer makes
STACK_CASES = [
    ((2, 3, 2), 1, None), ((2, 3, 2), 2, None), ((3, 2, 2, 2), 1, None), ((3, 2, 2, 2), 2, None),
    ((3, 2, 2, 2), 3, None), ((2, 3), 1, None), ((2, 3, 2), 1, (2, 1)), ((1, 3, 2), 2, (3, 2)),
    ((2, 3, 2), 2, (1, 2)),
]
# leading axes of the operator and of the block, which broadcast
STACKS = {"operator": ((2, 3), ()), "block": ((), (2, 3)), "both": ((2, 3), (2, 3)), "broadcast": ((2, 1), (3,))}


@pytest.mark.parametrize("dims,slot,out", STACK_CASES)
@pytest.mark.parametrize("stacked", list(STACKS))
def test_apply_local_on_stacks_is_a_loop_of_unstacked_calls(dims, slot, out, stacked):
    rng = np.random.default_rng(sum(dims) * 10 + slot)
    op_lead, x_lead = STACKS[stacked]
    legs = (dims[0], dims[slot]) if out is None else out
    op_shape, x_shape = op_lead + legs + (dims[0], dims[slot]), x_lead + (math.prod(dims), 4)
    op = rng.normal(size=op_shape) + 1j * rng.normal(size=op_shape)
    x = rng.normal(size=x_shape) + 1j * rng.normal(size=x_shape)
    got = apply_local(op, x, dims, slot)
    lead = np.broadcast_shapes(op_lead, x_lead)
    assert got.shape == lead + (math.prod(dims) // (dims[0] * dims[slot]) * legs[0] * legs[1], 4)
    ops, xs = np.broadcast_to(op, lead + op.shape[len(op_lead):]), np.broadcast_to(x, lead + x.shape[len(x_lead):])
    for i in np.ndindex(lead):
        assert np.array_equal(got[i], apply_local(ops[i], xs[i], dims, slot)), i


def test_apply_local_on_stacks_keeps_its_refusals():
    x, op = np.ones((5, 12, 2)), np.ones((5, 2, 3, 2, 3))
    with pytest.raises(ValueError, match="slot 3 invalid"):
        apply_local(op, x, (2, 3, 2), 3)
    with pytest.raises(ValueError, match="does not act on 2 x 2"):
        apply_local(op, x, (2, 3, 2), 2)
    with pytest.raises(ValueError, match="does not have 12 rows"):
        apply_local(op, np.ones((5, 10, 2)), (2, 3, 2), 1)
    with pytest.raises(ValueError):  # leading axes that do not broadcast
        apply_local(op, np.ones((4, 12, 2)), (2, 3, 2), 1)


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


def test_fock_basis_is_graded_lexicographic_at_any_species_count():
    for species in range(1, 7):
        basis = FockSpace(species, 4).basis
        assert list(basis) == sorted(basis, key=lambda occ: (sum(occ), occ)), species
    # the enumeration does not recurse per species, which would pass the
    # interpreter's recursion limit here
    f = FockSpace(999, 1)
    assert f.dim == 1000
    assert f.basis[1] == (0,) * 998 + (1,) and f.basis[-1] == (1,) + (0,) * 998


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
    k = f.shells(f.cutoff - 1)
    for i in (1, 2):
        for j in (1, 2):
            ai, adj = f.annihilator(i), f.creator(j)
            comm = ai @ adj - adj @ ai
            target = np.eye(f.dim) if i == j else np.zeros((f.dim, f.dim))
            assert np.max(np.abs((comm - target)[:k, :k])) < 1e-13


def test_occupation_is_the_number_operator_diagonal():
    f = FockSpace(2, 3)
    assert f.occupation.tolist() == [sum(o) for o in f.basis]
    n_norm = np.diag(f.occupation)
    assert np.max(np.abs(n_norm - sum(f.creator(j) @ f.annihilator(j) for j in (1, 2)))) < 1e-13
    # [N, a_j] = -a_j exactly on the full truncated space
    for j in (1, 2):
        a = f.annihilator(j)
        assert np.max(np.abs(n_norm @ a - a @ n_norm + a)) < 1e-13
        ad = f.creator(j)
        assert np.max(np.abs(n_norm @ ad - ad @ n_norm - ad)) < 1e-13


@pytest.mark.parametrize("species", [1, 2, 3, 4])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
def test_shells_count_the_first_states_of_the_basis(species, cutoff):
    f = FockSpace(species, cutoff)
    for top in range(-1, cutoff + 2):
        k = f.shells(top)
        assert type(k) is int and k == np.count_nonzero(f.occupation <= top), top
        # the states with total occupation <= top are exactly the first k
        assert np.all(f.occupation[:k] <= top) and np.all(f.occupation[k:] > top), top
        assert k == (math.comb(min(top, cutoff) + species, species) if top >= 0 else 0), top


def test_fock_operators_are_built_once_and_read_only():
    f = FockSpace(2, 3)
    calls = [("annihilator", 2), ("creator", 1)]
    for name, *args in calls:
        first = getattr(f, name)(*args)
        assert getattr(f, name)(*args) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        f.occupation[0] = 1


# ---------------------------------------------------------------------------
# work arrays


def test_work_arrays_keep_one_buffer_per_role_grown_to_the_largest_request():
    work = WorkArrays(limit=1024)
    small = work.take("a", (2, 3))
    assert small.shape == (2, 3) and small.dtype == np.complex128
    small[...] = 7
    # a smaller request, or another dtype, is a view of the same memory
    again = work.take("a", (4,), float)
    assert again.dtype == np.float64 and np.shares_memory(again, small)
    assert work.take("a", (2, 3)) is small
    # another role has its own buffer
    assert not np.shares_memory(work.take("b", (2, 3)), small)
    # a larger request within the limit grows the role's buffer
    grown = work.take("a", (8, 8))
    assert not np.shares_memory(grown, small) and work.buffers["a"][0].nbytes == 1024
    # a request above the limit is a fresh array that nothing keeps
    big = work.take("a", (9, 8))
    assert big.shape == (9, 8) and not np.shares_memory(big, grown)
    assert work.buffers["a"][0].nbytes == 1024
    assert work.take("a", (8, 8)) is grown


def test_each_thread_has_its_own_work_arrays_capped_at_the_stack_size():
    here = work_arrays()
    assert work_arrays() is here and here.limit == STACK_BYTES
    other = []
    thread = threading.Thread(target=lambda: other.append(work_arrays()))
    thread.start()
    thread.join()
    assert other[0] is not here


def test_apply_local_returns_a_fresh_array_each_call():
    # its block and product are kept; the results of two calls never share them
    dims, op = (2, 2, 2), np.arange(16.0).reshape(2, 2, 2, 2) + 1j
    x = np.arange(16.0).reshape(8, 2) + 0j
    for slot in (1, 2):
        first = apply_local(op, x, dims, slot)
        kept = first.copy()
        second = apply_local(op, 2 * x, dims, slot)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept) and np.array_equal(second, 2 * kept)
