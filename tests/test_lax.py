import tracemalloc
from functools import partial

import numpy as np
import pytest

import defectlab.lax as lax
from defectlab.checks import check_highest_weight, check_transfer_commute
from defectlab.lax import (
    ChainSpec,
    LaxSpec,
    amplitude_gamma_args,
    chain_vacuum,
    conjugate_transmission_matrix,
    crossed_l_matrix,
    crossed_transmission_matrix,
    defect_lax,
    l_hat_matrix,
    l_matrix,
    monodromy,
    r_matrix,
    s_amplitude,
    s_matrix,
    transfer,
    transmission_amplitude,
    transmission_matrix,
)
from defectlab.special import PoleProximityError, gamma_ratio, log_gamma_psi
from defectlab.tensor import FockSpace, embed_pair

I = 1j


def test_r_matrix_rank2_explicit():
    lam = 0.3 - 0.2j
    expected = np.array(
        [
            [lam + I, 0, 0, 0],
            [0, lam, I, 0],
            [0, I, lam, 0],
            [0, 0, 0, lam + I],
        ]
    )
    assert np.allclose(r_matrix(2, lam), expected)


def test_r_matrix_affine_in_lambda():
    # R(lam) = lam*1 + i P, so two evaluations determine a third
    for rank in (2, 3):
        r0 = r_matrix(rank, 0.0)
        r1 = r_matrix(rank, 1.0)
        lam = 0.77 - 1.3j
        assert np.allclose(r_matrix(rank, lam), r0 + lam * (r1 - r0))


def test_r_matrix_ybe_direct():
    # independent of the checks module: explicit Kronecker embeddings
    rank = 3
    l1, l2 = 0.41 + 0.2j, -0.83 + 0.05j
    eye = np.eye(rank)

    def emb12(m):
        return np.kron(m, eye)

    def emb23(m):
        return np.kron(eye, m)

    def emb13(m):
        t = m.reshape(rank, rank, rank, rank)
        out = np.einsum("ikjl,mn->imkjnl", t, eye)
        return out.reshape(rank**3, rank**3)

    r12 = emb12(r_matrix(rank, l1 - l2))
    r13 = emb13(r_matrix(rank, l1))
    r23 = emb23(r_matrix(rank, l2))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_s_amplitude_frozen_value():
    got = s_amplitude(2, 0.7)
    assert abs(got - (0.6875720741944644 + 0.7261161358818038j)) < 1e-12


def test_s_matrix_braiding_unitarity():
    for rank in (2, 3):
        lam = 0.63
        prod = s_matrix(rank, lam) @ s_matrix(rank, -lam)
        assert np.max(np.abs(prod - np.eye(rank * rank))) < 1e-12


def test_s_matrix_prefactor_pole_raises():
    with pytest.raises(PoleProximityError):
        s_matrix(2, 1j)


# ---------------------------------------------------------------------------
# defect Lax operator


def test_l_matrix_rank2_entries():
    fock = FockSpace(1, 3)
    spec = LaxSpec(rank=2)
    lam = 0.9 - 0.4j
    l = l_matrix(spec, fock, lam)
    d = fock.dim
    a = fock.annihilator(1)
    num = np.diag(fock.occupation)
    eye = np.eye(d)
    assert np.allclose(l[:d, :d], lam * eye + 1j * eye + 1j * num)
    assert np.allclose(l[d:, d:], 1j * eye)
    assert np.allclose(l[:d, d:], 1j * a)
    assert np.allclose(l[d:, :d], 1j * a.conj().T)


def test_l_matrix_rank3_ladder_species():
    # auxiliary entry (1, j) must carry species j-1
    fock = FockSpace(2, 2)
    spec = LaxSpec(rank=3)
    l = l_matrix(spec, fock, 0.0)
    d = fock.dim
    for j in (2, 3):
        block = l[:d, (j - 1) * d : j * d]
        assert np.allclose(block, 1j * fock.annihilator(j - 1))


def test_l_hat_equals_crossing_transform():
    for rank in (2, 3):
        fock = FockSpace(rank - 1, 3)
        spec = LaxSpec(rank=rank)
        for lam in (0.31, -1.2 + 0.7j):
            direct = l_hat_matrix(spec, fock, lam)
            crossed = crossed_l_matrix(spec, fock, lam)
            assert np.max(np.abs(direct - crossed)) < 1e-13


def test_defect_lax_dispatch():
    fock = FockSpace(1, 2)
    lam = 0.2
    assert np.allclose(
        defect_lax(LaxSpec(2, variant="L"), fock, lam),
        l_matrix(LaxSpec(2), fock, lam),
    )
    assert np.allclose(
        defect_lax(LaxSpec(2, variant="Lhat"), fock, lam),
        l_hat_matrix(LaxSpec(2), fock, lam),
    )


def test_ordering_offset_realizes_the_antinormal_number_operator():
    # sum_j a_j adag_j is the occupation plus rank - 1 wherever no a_j adag_j
    # raises out of the truncated space; sum_j adag_j a_j is the occupation
    for rank in (2, 3, 4):
        fock = FockSpace(rank - 1, 3)
        ladders = [(fock.annihilator(j), fock.creator(j)) for j in range(1, rank)]
        for ordering, product in (("normal", lambda a, ad: ad @ a), ("antinormal", lambda a, ad: a @ ad)):
            number = sum(product(a, ad) for a, ad in ladders)
            expected = np.diag(fock.occupation + LaxSpec(rank, ordering=ordering).offset)
            sub = np.ix_(fock.sub_cutoff_indices(1), fock.sub_cutoff_indices(1))
            assert np.max(np.abs(number - expected)[sub]) < 1e-13, (rank, ordering)


def test_effective_shift():
    assert LaxSpec(3, ordering="antinormal", shift=0.0).effective_shift() == 2.0
    assert LaxSpec(3, ordering="normal", shift=1.0).effective_shift() == 1.0
    # antinormal with shift c equals normal with shift c + species count
    fock = FockSpace(2, 3)
    anti = l_matrix(LaxSpec(3, ordering="antinormal", shift=0.0), fock, 0.5)
    norm = l_matrix(LaxSpec(3, ordering="normal", shift=2.0), fock, 0.5)
    assert np.allclose(anti, norm)


def test_lax_spec_validation():
    with pytest.raises(ValueError):
        LaxSpec(1)
    with pytest.raises(ValueError):
        LaxSpec(2, variant="X")
    with pytest.raises(ValueError):
        LaxSpec(2, ordering="weyl")


# ---------------------------------------------------------------------------
# transmission matrices


def test_transmission_amplitude_frozen_values():
    assert abs(transmission_amplitude(2, "+", 0.0)[0] - 2.9586751191886393) < 1e-12
    assert abs(transmission_amplitude(2, "-", 0.0)[0] - 0.3379891200336423) < 1e-12
    assert abs(transmission_amplitude(3, "+", 0.0)[0] - 4.931236676446653) < 1e-12


def test_transmission_amplitude_is_the_gamma_ratio_and_the_digamma_form():
    # one log-Gamma and digamma pass per argument gives the same values as
    # the Gamma ratio and the digamma difference at the arguments' slope
    for rank in (2, 3, 4):
        for sign, side in (("+", 1), ("-", -1)):
            for lam in (-4.3, -0.9, 0.0, 0.6, 5.1):
                closed, deriv = transmission_amplitude(rank, sign, lam)
                num, den = amplitude_gamma_args(rank, sign, lam)
                assert closed == gamma_ratio([num], [den])
                psi_num, psi_den = log_gamma_psi(num)[1], log_gamma_psi(den)[1]
                assert deriv == (-side * 1j / rank) * (psi_num - psi_den)


def test_transmission_amplitude_on_an_array_is_the_scalar_per_lambda():
    lams = np.linspace(-50.0, 50.0, 401)
    for rank in (2, 3, 4):
        for sign in ("+", "-"):
            closed, deriv = transmission_amplitude(rank, sign, lams)
            assert closed.shape == deriv.shape == lams.shape
            refs = np.array([transmission_amplitude(rank, sign, lam) for lam in lams.tolist()]).T
            for got, ref in zip((closed, deriv), refs):
                assert np.all(np.abs(got - ref) <= 5e-14 * np.abs(ref)), (rank, sign)
    closed, deriv = transmission_amplitude(3, "-", 0.25)
    assert type(closed) is complex and type(deriv) is complex


def test_transmission_amplitude_pole_raises():
    # numerator Gamma pole of T^+ at -i lam/n + 1/(2n) = 0
    with pytest.raises(PoleProximityError):
        transmission_amplitude(2, "+", -0.5j)
    with pytest.raises(ValueError):
        transmission_amplitude(2, "x", 0.0)


def test_transmission_amplitude_refuses_nan_by_name():
    with pytest.raises(ValueError, match=r"Gamma argument must be finite, got \(nan") as exc:
        transmission_amplitude(2, "+", float("nan"))
    assert not isinstance(exc.value, PoleProximityError)


def test_transmission_matrix_structure():
    # blocks relative to c, the (2,2) block's first entry, so the test holds
    # for any scalar prefactor: the spectral parameter appears only in the
    # (1,1) auxiliary block, c a^(j-1) sits in block (1,j), its adjoint in (j,1)
    rank = 3
    fock = FockSpace(rank - 1, 3)
    t = transmission_matrix(rank, fock, 0.4)
    d = fock.dim
    t = t / t[d, d]
    for j in range(2, rank + 1):
        a = fock.annihilator(j - 1)
        assert np.allclose(t[(j - 1) * d : j * d, (j - 1) * d : j * d], np.eye(d))
        assert np.allclose(t[:d, (j - 1) * d : j * d], a)
        assert np.allclose(t[(j - 1) * d : j * d, :d], a.conj().T)


def test_conjugate_transmission_zero_pattern():
    # relative to c, the (1,1) block's first entry: nonzero auxiliary blocks
    # only on the diagonal and in row/column `rank`, with c in diagonal block
    # jbar = rank+1-j, c a^(j-1) in block (jbar, rank) and its adjoint in (rank, jbar)
    rank = 3
    fock = FockSpace(rank - 1, 3)
    t = conjugate_transmission_matrix(rank, fock, 0.3)
    d = fock.dim
    t = t / t[0, 0]
    blk = lambda k, l: t[(k - 1) * d : k * d, (l - 1) * d : l * d]
    for k in range(1, rank + 1):
        for l in range(1, rank + 1):
            if k == l or k == rank or l == rank:
                continue
            assert np.max(np.abs(blk(k, l))) == 0.0
    for j in range(2, rank + 1):
        jbar, a = rank + 1 - j, fock.annihilator(j - 1)
        assert np.allclose(blk(jbar, jbar), np.eye(d))
        assert np.allclose(blk(jbar, rank), a)
        assert np.allclose(blk(rank, jbar), a.conj().T)


def test_crossed_transmission_runs():
    rank = 2
    fock = FockSpace(1, 3)
    m = crossed_transmission_matrix(rank, fock, 0.25)
    assert m.shape == (rank * fock.dim, rank * fock.dim)
    assert np.max(np.abs(m)) > 0


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_crossed_builders_against_kron_form(rank, cutoff):
    # V_1 X^{t_1} V_1 written out: the partial transpose as a sum of
    # e_ba (x) X_ab and V_1 as the reversal matrix (x) 1, both from np.kron
    fock = FockSpace(rank - 1, cutoff)
    d = fock.dim
    e = np.eye(rank)
    v1 = np.kron(np.fliplr(e), np.eye(d))

    def crossed(x):
        xt = sum(
            np.kron(np.outer(e[b], e[a]), x[a * d : (a + 1) * d, b * d : (b + 1) * d])
            for a in range(rank)
            for b in range(rank)
        )
        return v1 @ xt @ v1

    spec = LaxSpec(rank)
    lam = 0.31 - 0.4j
    raw_l = l_matrix(spec, fock, -lam - 1j * rank / 2)
    assert np.array_equal(crossed_l_matrix(spec, fock, lam), crossed(raw_l))
    raw_t = transmission_matrix(rank, fock, -lam + 1j * rank / 2)
    assert np.array_equal(crossed_transmission_matrix(rank, fock, lam), crossed(raw_t))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_builders_on_a_stack_equal_their_per_point_matrices(rank):
    # every builder of the family, both variants and orderings of the Lax
    # operators and both signs of the transmission matrices, on a 2 x 3
    # stack of lambda: each matrix of the stack to the bit the one built at
    # its point alone.  Built into the kept work array of a role, the stack
    # is the fresh one to the bit, and a second call with that role reuses
    # its memory, which a call without a role never does
    fock = FockSpace(rank - 1, 2)
    lams = np.array([[0.31 - 0.4j, -1.2 + 0.7j, 0.0], [2.5, -0.05 + 1.9j, 1.1 - 2.3j]])
    builders = {
        "r_matrix": partial(r_matrix, rank),
        "s_matrix": partial(s_matrix, rank),
        "transmission_matrix (-)": partial(transmission_matrix, rank, fock),
        "conjugate_transmission_matrix (+)": partial(conjugate_transmission_matrix, rank, fock),
        "crossed_transmission_matrix": partial(crossed_transmission_matrix, rank, fock),
    }
    for variant in ("L", "Lhat"):
        for ordering in ("normal", "antinormal"):
            spec = LaxSpec(rank, variant=variant, ordering=ordering)
            builders[f"defect_lax {variant} {ordering}"] = partial(defect_lax, spec, fock)
            if variant == "L":
                builders[f"l_matrix {ordering}"] = partial(l_matrix, spec, fock)
                builders[f"l_hat_matrix {ordering}"] = partial(l_hat_matrix, spec, fock)
                builders[f"crossed_l_matrix {ordering}"] = partial(crossed_l_matrix, spec, fock)
    for name, build in builders.items():
        stack = build(lams)
        for idx in np.ndindex(lams.shape):
            one = build(complex(lams[idx]))
            assert one.ndim == 2 and stack.shape == lams.shape + one.shape, name
            assert np.array_equal(stack[idx], one), (name, idx)
        kept = build(lams, "probe")
        assert kept.shape == stack.shape and np.array_equal(kept, stack), name
        assert np.shares_memory(build(lams, "probe"), kept), name
        assert not np.shares_memory(build(lams), kept) and not np.shares_memory(stack, kept), name


def test_a_fock_space_keeps_one_skeleton_per_pattern_and_a_build_allocates_its_matrix():
    # rank 4, cutoff 6: 336 x 336 operators.  The first L on a Fock space
    # builds the ladders and the lambda-independent skeleton, which the Fock
    # space keeps; every later L allocates its own matrix and nothing else
    spec, fock = LaxSpec(4), FockSpace(3, 6)
    matrix = (4 * fock.dim) ** 2 * 16
    tracemalloc.start()
    try:
        first = l_matrix(spec, fock, 0.3)
        _, peak = tracemalloc.get_traced_memory()
        assert peak <= 2.5 * matrix
        del first
        tracemalloc.reset_peak()
        kept, _ = tracemalloc.get_traced_memory()
        assert kept <= 1.5 * matrix
        later = l_matrix(spec, fock, -1.1 + 0.4j)
        _, peak = tracemalloc.get_traced_memory()
        assert peak - kept <= 1.05 * matrix
        assert later.nbytes == matrix
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# chain, monodromy, transfer


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(rank=2, sites=-1, fock_cutoff=2)
    with pytest.raises(ValueError):
        ChainSpec(rank=2, sites=1, fock_cutoff=2, defect_site=3)
    with pytest.raises(ValueError):
        ChainSpec(rank=2, sites=0, fock_cutoff=2, lax=LaxSpec(3))


def _full_monodromy(chain, lam):
    dim = int(np.prod(chain.dims))
    return monodromy(chain, lam, np.eye(dim))


def test_monodromy_sites0_is_defect_lax():
    chain = ChainSpec(rank=2, sites=0, fock_cutoff=3, theta=0.2)
    lam = 0.7 - 0.1j
    got = _full_monodromy(chain, lam)
    expected = l_matrix(chain.lax, chain.fock, lam - chain.theta)
    assert np.allclose(got, expected)


def test_monodromy_sites1_explicit_product():
    chain = ChainSpec(rank=2, sites=1, fock_cutoff=2, defect_site=1, theta=0.1)
    fock = chain.fock
    lam = 0.5
    dims = [fock.dim, 2]
    expected = embed_pair(r_matrix(2, lam), 2, dims, 2) @ embed_pair(
        l_matrix(chain.lax, fock, lam - chain.theta), 2, dims, 1
    )
    assert np.allclose(_full_monodromy(chain, lam), expected)


def test_transfer_vacuum_eigenvalue_sites0():
    # trace over the auxiliary space of L picks up (lam - theta + i c) from the
    # (1,1) entry and i from each of the other rank-1 diagonal entries
    for rank in (2, 3):
        theta = 0.3
        chain = ChainSpec(rank=rank, sites=0, fock_cutoff=3, theta=theta)
        lam = 0.9 + 0.2j
        vac = chain_vacuum(chain)
        out = transfer(chain, lam, vac[:, None])[:, 0]
        expected = (lam - theta + 1j) + 1j * (rank - 1)
        assert np.allclose(out, expected * vac)


def test_transfer_vacuum_with_bulk_sites():
    # each bulk R contributes (lam + i) on the all-highest-weight vector when
    # the auxiliary index stays at 1, lam when it stays at j >= 2
    rank, sites = 2, 2
    chain = ChainSpec(rank=rank, sites=sites, fock_cutoff=2, theta=0.0)
    lam = 0.37 + 0.11j
    vac = chain_vacuum(chain)
    out = transfer(chain, lam, vac[:, None])[:, 0]
    expected = (lam + 1j) ** sites * (lam + 1j) + 1j * lam**sites
    overlap = vac.conj() @ out
    assert abs(overlap - expected) < 1e-12 * (abs(lam) + 2) ** (sites + 1)


def test_monodromy_aux_block():
    # sites 0: the monodromy is L, whose auxiliary (1,2) block is i a^(1);
    # column block 2 is the monodromy applied to e_2 (x) 1
    chain = ChainSpec(rank=2, sites=0, fock_cutoff=2)
    fock = chain.fock
    cols = monodromy(chain, 0.4, np.kron(np.eye(2)[:, [1]], np.eye(fock.dim)))
    assert np.allclose(cols[: fock.dim], 1j * fock.annihilator(1))


@pytest.mark.parametrize("variant", ["L", "Lhat"])
@pytest.mark.parametrize("rank", [2, 3])
def test_monodromy_against_kron_reference(dense_monodromy, variant, rank):
    lam = 0.37 - 0.52j
    for sites in (0, 1, 2):
        for defect_site in range(1, sites + 2):
            chain = ChainSpec(
                rank=rank, sites=sites, fock_cutoff=2, defect_site=defect_site,
                theta=0.3 + 0.1j, lax=LaxSpec(rank, variant=variant),
            )
            ref = dense_monodromy(chain, lam)
            got = _full_monodromy(chain, lam)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), (sites, defect_site)


def test_monodromy_apply_on_a_column_block(dense_monodromy):
    chain = ChainSpec(rank=3, sites=2, fock_cutoff=2, defect_site=2, theta=-0.2)
    lam = 0.8 + 0.3j
    full = dense_monodromy(chain, lam)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(full.shape[0], 5)) + 1j * rng.normal(size=(full.shape[0], 5))
    got = monodromy(chain, lam, x)
    assert np.max(np.abs(got - full @ x)) <= 1e-14 * np.max(np.abs(full @ x))
    vac = np.kron(np.eye(3)[:, 0], chain_vacuum(chain))
    assert np.allclose(monodromy(chain, lam, vac[:, None])[:, 0], full[:, np.argmax(vac)])


def test_monodromy_byte_budget():
    # dimension 4 * 84 * 4**4 = 86,016: the transfer matrix on the 21,504
    # identity columns of the quantum space would hold a 29.6 GB block, and
    # refuses it before allocating it (x itself is a broadcast view, no bytes)
    chain = ChainSpec(rank=4, sites=4, fock_cutoff=6)
    x = np.broadcast_to(np.zeros((1, 1)), (21504, 21504))
    with pytest.raises(ValueError, match="monodromy block needs a 86016 x 21504 .*budget"):
        transfer(chain, 0.1, x)
    # at a stack of lambda, one point's block is held to it, with the same message
    with pytest.raises(ValueError, match="monodromy block needs a 86016 x 21504 .*budget"):
        transfer(chain, np.array([0.1, 0.2]), x)
    # a block of columns of the same chain stays affordable
    vac = np.kron(np.eye(4)[:, 0], chain_vacuum(chain))
    assert monodromy(chain, 0.1, vac[:, None]).shape == (vac.size, 1)


@pytest.mark.parametrize("variant", ["L", "Lhat"])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_transfer_and_monodromy_on_a_lambda_stack_equal_per_lambda_calls(monkeypatch, rank, variant):
    # bit for bit: a stack of lambda on one shared block, and on a stack of
    # blocks with matching leading axes, against one call per lambda, also
    # when the stack runs two points at a time
    lams = np.array([0.6 + 0.3j, -0.9 + 0.1j, 0.2 - 1.3j])
    rng = np.random.default_rng(rank)
    cutoff = 2 if rank < 4 else 1
    for sites in (0, 1, 2, 3):
        for defect_site in range(1, sites + 2):
            chain = ChainSpec(
                rank=rank, sites=sites, fock_cutoff=cutoff, defect_site=defect_site,
                theta=0.3 - 0.2j, lax=LaxSpec(rank, variant=variant),
            )
            q = int(np.prod(chain.dims[1:]))
            shared = rng.normal(size=(q, 2)) + 1j * rng.normal(size=(q, 2))
            own = rng.normal(size=(3, q, 2)) + 1j * rng.normal(size=(3, q, 2))
            on_shared, on_own = transfer(chain, lams, shared), transfer(chain, lams, own)
            assert on_shared.shape == on_own.shape == (3, q, 2)
            for i, lam in enumerate(lams):
                assert np.array_equal(on_shared[i], transfer(chain, lam, shared)), (sites, defect_site)
                assert np.array_equal(on_own[i], transfer(chain, lam, own[i])), (sites, defect_site)
            with monkeypatch.context() as m:
                m.setattr(lax, "stack_depth", lambda shape: 2)
                assert np.array_equal(transfer(chain, lams, shared), on_shared)
                assert np.array_equal(transfer(chain, lams, own), on_own)
            columns = np.kron(np.eye(rank)[:, [0]], shared)
            stacked = monodromy(chain, lams, columns)
            for i, lam in enumerate(lams):
                assert np.array_equal(stacked[i], monodromy(chain, lam, columns)), (sites, defect_site)



@pytest.mark.parametrize("variant", ["L", "Lhat"])
@pytest.mark.parametrize("ordering", ["normal", "antinormal"])
def test_defect_lax_moves_the_total_occupation_by_at_most_one(variant, ordering):
    # the monodromy and the transfer matrix run only on the Fock shells a
    # block occupies, which is exact only if no nonzero entry of the defect's
    # Lax operator links two Fock states whose total occupations differ by
    # more than one
    lams = np.array([0.37 - 0.52j, -1.1 + 0.2j])
    for rank in (2, 3, 4):
        for cutoff in (1, 2, 3, 4):
            fock = FockSpace(rank - 1, cutoff)
            op = defect_lax(LaxSpec(rank, variant=variant, ordering=ordering), fock, lams)
            linked = np.any(op.reshape(2, rank, fock.dim, rank, fock.dim) != 0, axis=(0, 1, 3))
            gap = np.abs(np.subtract.outer(fock.occupation, fock.occupation))
            assert linked[gap == 1].any(), (rank, cutoff)
            assert not linked[gap > 1].any(), (rank, cutoff)


def _unrestricted_product(factors, x, slots):
    """The factor loop on every Fock state: whole factors, slot 1 first."""
    for p, factor in enumerate(factors, 1):
        x = lax.apply_local(factor, x, (factor.shape[-2],) + slots, p)
    return x


def _unrestricted_transfer(chain, lam, x):
    factors = lax._local_factors(chain, lam)
    out = np.zeros(np.broadcast_shapes(np.shape(lam), x.shape[:-2]) + x.shape[-2:], dtype=complex)
    for k in range(chain.rank):
        cut = [factors[0][..., k : k + 1, :]] + factors[1:]
        cut[-1] = cut[-1][..., k : k + 1, :, :, :]
        out += _unrestricted_product(cut, x, chain.dims[1:])
    return out


def _shell_blocks(chain, dims, rng):
    """The defect's total occupation of each row of a block with one row per
    state of ``dims``, and blocks of 3 columns, each named and given with the
    highest occupation that its nonzero rows hold."""
    defect = len(dims) - len(chain.dims) + chain.defect_site
    rows, cutoff = int(np.prod(dims)), chain.fock_cutoff
    shells = chain.fock.occupation[np.unravel_index(np.arange(rows), dims)[defect]]
    full = rng.normal(size=(rows, 3)) + 1j * rng.normal(size=(rows, 3))
    blocks = [(f"shell {s}", s, np.where(shells[:, None] <= s, full, 0)) for s in range(cutoff + 1)]
    blocks.append(("zero", 0, np.zeros((rows, 3), dtype=complex)))
    nan = np.where(shells[:, None] < cutoff, full, 0)
    nan[np.flatnonzero(shells == cutoff)[-1], 1] = np.nan
    blocks.append(("NaN at the cutoff", cutoff, nan))
    return shells, blocks


@pytest.mark.parametrize("variant", ["L", "Lhat"])
def test_monodromy_and_transfer_on_the_occupied_shells_equal_the_unrestricted_loop(variant):
    # rank 3, cutoff 3: shells 0..3 hold 1, 2, 3 and 4 of the 10 Fock states.
    # Shells 0 and 1 and the zero block run cut and padded, shell 2 with its
    # in leg cut (its out leg reaches the cutoff), shell 3 and the NaN block
    # uncut, and those two equal the unrestricted loop bit for bit.  A cut
    # run sums fewer zero terms, which BLAS may group differently, so there
    # the entries past shell + 1 are exact zeros on both sides and the
    # others agree to round-off.
    rng = np.random.default_rng(34)
    lams = np.array([0.6 + 0.3j, -0.9 + 0.1j])
    for sites in (0, 1, 2):
        for defect_site in range(1, min(sites, 1) + 2):
            chain = ChainSpec(rank=3, sites=sites, fock_cutoff=3, defect_site=defect_site,
                              theta=0.3 - 0.2j, lax=LaxSpec(3, variant=variant))
            for dims, apply, reference in (
                (chain.dims, monodromy, lambda lam, x: _unrestricted_product(
                    lax._local_factors(chain, lam), x, chain.dims[1:])),
                (chain.dims[1:], transfer, partial(_unrestricted_transfer, chain)),
            ):
                shells, blocks = _shell_blocks(chain, dims, rng)
                for name, top, x in blocks:
                    where = (apply.__name__, name, sites, defect_site)
                    for lam, block in ((lams[0], x), (lams, x), (lams, np.stack([x, 2 * x]))):
                        got, ref = apply(chain, lam, block), reference(lam, block)
                        assert got.shape == ref.shape, where
                        if top == chain.fock_cutoff:
                            assert np.array_equal(got, ref, equal_nan=True), where
                            continue
                        past = shells > top + 1
                        assert not got[..., past, :].any() and not ref[..., past, :].any(), where
                        assert np.max(np.abs(got - ref), initial=0) <= 1e-15 * np.max(np.abs(ref), initial=0), where
                    if name == "zero":
                        assert not got.any(), where
                    if name.startswith("NaN"):
                        assert np.isnan(got).any(), where


def test_transfer_commute_runs_its_products_on_the_occupied_shells(monkeypatch):
    # rank 4, cutoff 2, 2 sites, defect at slot 1 (the cert-large chain): the
    # faithful columns occupy only the Fock vacuum, so the first transfer
    # pass runs the defect's factor on 1 x 1 x 4 x 4 = 16 rows and both bulk
    # factors on 4 x 4 x 4 x 4 = 256 (not 160 and 640); the second reads
    # the 4 Fock states of shells 0 and 1, 1 x 4 x 4 x 4 = 64 rows, and its
    # bulk factors run on all 640; the highest-weight check's vacuum columns
    # likewise give 4 x 1 x 4 x 4 = 64 and 256
    rows = []
    apply_local = lax.apply_local
    monkeypatch.setattr(lax, "apply_local",
                        lambda op, x, *args: rows.append(np.shape(x)[-2]) or apply_local(op, x, *args))
    chain = ChainSpec(rank=4, sites=2, fock_cutoff=2)
    assert check_transfer_commute(chain, [(0.3 + 0.1j, -0.7 + 0.2j)])[0].passed
    assert rows == [16, 256, 256] * 4 + [64, 640, 640] * 4
    rows.clear()
    assert check_highest_weight(chain).passed
    assert rows == [64, 256, 256]
