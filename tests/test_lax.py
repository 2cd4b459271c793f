import numpy as np
import pytest

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
    num = fock.number_op("normal")
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
    assert np.allclose(monodromy(chain, lam, vac), full[:, np.argmax(vac)])


def test_monodromy_byte_budget():
    # dimension 4 * 84 * 4**4 = 86,016: the transfer matrix on the 21,504
    # identity columns of the quantum space would hold a 29.6 GB block, and
    # refuses it before allocating it (x itself is a broadcast view, no bytes)
    chain = ChainSpec(rank=4, sites=4, fock_cutoff=6)
    x = np.broadcast_to(np.zeros((1, 1)), (21504, 21504))
    with pytest.raises(ValueError, match="monodromy block needs a 86016 x 21504 .*budget"):
        transfer(chain, 0.1, x)
    # a block of columns of the same chain stays affordable
    vac = np.kron(np.eye(4)[:, 0], chain_vacuum(chain))
    assert monodromy(chain, 0.1, vac).shape == vac.shape
