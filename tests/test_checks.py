import json
import math

import numpy as np
import pytest

import defectlab.checks as checks
from defectlab.checks import (
    check_highest_weight,
    check_lax_crossing,
    check_oscillator_algebra,
    check_rll,
    check_transfer_commute,
    check_transmission_algebra,
    check_transmission_crossing,
    check_ybe,
    calibrate_ordering,
    faithful_columns,
    rll_residual,
    rng_for,
    sample_points,
    transmission_algebra_residual,
    worst_of,
    ybe_residual,
)
import defectlab.lax as lax
from defectlab.lax import ChainSpec, LaxSpec, chain_vacuum, transfer
import defectlab.tensor as tensor
from defectlab.tensor import FockSpace


def _points(label, count, avoid=()):
    rng = rng_for(11, label)
    return sample_points(rng, count, avoid=avoid)


def test_rng_for_deterministic_and_label_separated():
    a = rng_for(3, "x").normal(size=4)
    b = rng_for(3, "x").normal(size=4)
    c = rng_for(3, "y").normal(size=4)
    d = rng_for(3 + 2**32, "x").normal(size=4)  # every bit of the seed counts
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_points_avoidance():
    rng = rng_for(0, "pts")
    avoid = [0.5 + 0.5j]
    pts = sample_points(rng, 50, box=1.0, avoid=avoid, min_dist=0.3)
    assert len(pts) == 50
    assert all(abs(p - avoid[0]) > 0.3 for p in pts)


def test_report_shape_and_serialization():
    rep = check_ybe(2, 0.4 + 0.1j, -0.9)
    assert rep.passed and rep.residual <= rep.tolerance
    d = rep.to_dict()
    assert set(d) == {"name", "parameters", "residual", "tolerance", "passed", "block"}
    # complex parameters encode as [re, im]; dict must be JSON-serializable
    params = dict((k, v) for k, v in d["parameters"])
    assert params["lambda1"] == [0.4, 0.1]
    json.dumps(d)


# ---------------------------------------------------------------------------
# Yang-Baxter


def test_ybe_r_and_s():
    for rank in (2, 3, 4):
        for l1, l2 in zip(*(iter(_points(f"ybe{rank}", 6)),) * 2):
            assert ybe_residual(rank, l1, l2, "R") < 1e-12
    for rank in (2, 3):
        pts = _points(f"ybeS{rank}", 4, avoid=(1j, -1j))
        for l1, l2 in zip(pts[0::2], pts[1::2]):
            rep = check_ybe(rank, l1, l2, matrix="S")
            assert rep.passed


def test_ybe_rejects_unknown_matrix():
    with pytest.raises(ValueError):
        ybe_residual(2, 0.1, 0.2, matrix="Q")


def test_ybe_detects_broken_r(monkeypatch):
    # non-vacuity: perturbing the permutation part must produce a large
    # residual (note lam + 2iP would still pass, being a rescaling of lam)
    import defectlab.lax as lax
    from defectlab.tensor import permutation_op

    def fake_r(rank, lam):
        e = np.eye(rank)
        bad = np.kron(np.outer(e[0], e[0]), np.outer(e[1], e[1]))  # e_11 (x) e_22
        return (
            complex(lam) * np.eye(rank * rank) + 1j * permutation_op(rank) + 0.3 * bad
        )

    monkeypatch.setattr(lax, "r_matrix", fake_r)
    assert ybe_residual(2, 0.7, -0.3, "R") > 1e-2


# ---------------------------------------------------------------------------
# exchange relation


def test_rll_both_variants():
    for rank in (2, 3):
        fock = FockSpace(rank - 1, 4)
        pts = _points(f"rll{rank}", 4)
        for variant in ("L", "Lhat"):
            spec = LaxSpec(rank, variant=variant)
            for l1, l2 in zip(pts[0::2], pts[1::2]):
                rep = check_rll(spec, fock, l1, l2)
                assert rep.passed, (variant, rep.residual)


def test_rll_invariant_under_ordering_and_shift():
    # reordering the number operator or shifting the constant translates the
    # spectral parameter, so the exchange relation holds for every convention
    fock = FockSpace(1, 4)
    l1, l2 = 0.43 - 0.2j, -1.1 + 0.6j
    for ordering in ("normal", "antinormal"):
        for shift in (0.0, 1.0, 2.0):
            res = rll_residual(LaxSpec(2, ordering=ordering, shift=shift), fock, l1, l2)
            assert res < 1e-10, (ordering, shift, res)


def test_calibrate_ordering_selects_canonical():
    fock = FockSpace(1, 4)
    spec, rep = calibrate_ordering(2, fock, seed=5)
    assert rep.passed
    assert (spec.ordering, spec.shift) == ("normal", 1.0)
    params = dict(rep.parameters)
    assert params["winner"] == "normal/1"
    # antinormal/0 has the same effective shift, hence the same matrix
    members = set(params["equivalence_class"].split(","))
    assert members == {"normal/1", "antinormal/0"}


def test_calibrate_ordering_rank3_class():
    fock = FockSpace(2, 3)
    spec, rep = calibrate_ordering(3, fock, seed=5)
    assert rep.passed and spec.shift == 1.0
    members = set(dict(rep.parameters)["equivalence_class"].split(","))
    assert "normal/1" in members


@pytest.mark.parametrize("rank,candidates,classes", [(2, 6, 4), (3, 8, 6), (4, 8, 6)])
def test_calibrate_ordering_evaluates_each_class_once(monkeypatch, rank, candidates, classes):
    calls = []
    original = checks.rll_residual

    def counted(spec, *args):
        calls.append(spec.effective_shift())
        return original(spec, *args)

    monkeypatch.setattr(checks, "rll_residual", counted)
    _, rep = calibrate_ordering(rank, FockSpace(rank - 1, 2), seed=3, pairs=2)
    assert len(calls) == 2 * classes and len(set(calls)) == classes
    params = dict(rep.parameters)
    residuals = {k: v for k, v in params.items() if k.startswith("residual ")}
    assert len(residuals) == candidates  # every candidate is still reported
    by_shift = {}
    for key, value in residuals.items():
        ordering, shift = key.split()[1].split("/")
        spec = LaxSpec(rank, ordering=ordering, shift=float(shift))
        by_shift.setdefault(spec.effective_shift(), set()).add(value)
    assert len(by_shift) == classes
    assert all(len(values) == 1 for values in by_shift.values())


def test_calibrate_ordering_unreachable_tolerance():
    # no candidate passes: the canonical spec comes back with a failed report
    spec, rep = calibrate_ordering(2, FockSpace(1, 3), seed=5, tol=0.0)
    params = dict(rep.parameters)
    assert spec == LaxSpec(2) and not rep.passed
    assert rep.residual == params["residual normal/1"] > 0.0
    assert params["winner"] == "normal/1" and params["equivalence_class"] == ""


# ---------------------------------------------------------------------------
# oscillator algebra / crossing / highest weight


def test_oscillator_algebra():
    for species, cutoff in ((1, 4), (2, 3), (3, 2)):
        rep = check_oscillator_algebra(FockSpace(species, cutoff))
        assert rep.passed, (species, cutoff, rep.residual)


def test_lax_crossing():
    for rank in (2, 3, 4):
        fock = FockSpace(rank - 1, 3)
        rep = check_lax_crossing(LaxSpec(rank), fock, _points(f"cross{rank}", 10))
        assert rep.passed


def test_highest_weight():
    for rank, sites in ((2, 2), (3, 1)):
        chain = ChainSpec(rank=rank, sites=sites, fock_cutoff=3, theta=0.2)
        rep = check_highest_weight(chain)
        assert rep.passed, rep.residual


def test_highest_weight_defect_in_middle():
    chain = ChainSpec(rank=2, sites=2, fock_cutoff=3, defect_site=2, theta=-0.4)
    assert check_highest_weight(chain).passed


def test_worst_of_keeps_a_nan_in_any_place():
    nan = float("nan")
    assert worst_of(0.0, 2.0, 1.0) == 2.0
    for residuals in ((nan, 1.0, 0.5), (1.0, nan, 0.5), (1.0, 0.5, nan)):
        assert math.isnan(worst_of(*residuals))


def test_nan_residual_fails_its_check():
    # max(worst, nan) keeps worst, so a NaN that is not first once read as 0.0
    nan = float("nan")
    crossing = check_lax_crossing(LaxSpec(2, shift=nan), FockSpace(1, 3), _points("cross-nan", 3))
    highest = check_highest_weight(ChainSpec(rank=2, sites=1, fock_cutoff=3, theta=nan))
    for rep in (crossing, highest):
        assert math.isnan(rep.residual) and not rep.passed, rep.name


# ---------------------------------------------------------------------------
# transmission algebra and crossing


def test_transmission_algebra_direct_and_conjugate():
    for rank in (2, 3):
        fock = FockSpace(rank - 1, 4)
        pts = _points(f"ta{rank}", 4, avoid=(1j, -1j))
        # keep the difference away from S-matrix poles at +-i
        l1, l2 = pts[0], pts[1]
        if abs((l1 - l2) - 1j) < 0.1 or abs((l1 - l2) + 1j) < 0.1:
            l2 = pts[2]
        for conjugate in (False, True):
            rep = check_transmission_algebra(rank, fock, l1, l2, conjugate=conjugate)
            assert rep.passed, (rank, conjugate, rep.residual)


def test_transmission_algebra_scalar_rescaling_invariance(monkeypatch):
    rank, fock = 2, FockSpace(1, 4)
    l1, l2 = 0.37 + 0.21j, -0.83 - 0.12j
    base = transmission_algebra_residual(rank, fock, l1, l2)

    orig = lax.transmission_matrix

    def scaled(rank_, fock_, lam, *args, **kwargs):
        c = np.exp(0.31 + 0.77j * complex(lam).real)
        return c * orig(rank_, fock_, lam, *args, **kwargs)

    monkeypatch.setattr(lax, "transmission_matrix", scaled)
    rescaled = transmission_algebra_residual(rank, fock, l1, l2)
    assert abs(base - rescaled) < 1e-12


def test_transmission_crossing_constant_is_rank():
    for rank in (2, 3):
        fock = FockSpace(rank - 1, 4)
        rep = check_transmission_crossing(rank, fock)
        assert rep.passed, (rank, rep.residual)
        const = dict(rep.parameters)["constant"]
        assert abs(const - rank) < 1e-8


# ---------------------------------------------------------------------------
# transfer commutativity


def test_transfer_commute_passes():
    chain = ChainSpec(rank=2, sites=2, fock_cutoff=3, theta=0.15)
    pts = _points("tc", 4)
    for l1, l2 in zip(pts[0::2], pts[1::2]):
        rep = check_transfer_commute(chain, l1, l2)
        assert rep.passed, rep.residual


def test_chain_builds_its_fock_space_once(monkeypatch):
    chain = ChainSpec(rank=3, sites=1, fock_cutoff=3, defect_site=2, theta=0.2)
    built = []
    init = FockSpace.__init__
    monkeypatch.setattr(
        FockSpace, "__init__", lambda self, *args: built.append(args) or init(self, *args)
    )
    vac = chain_vacuum(chain)
    lax.monodromy(chain, 0.3, np.kron(np.eye(3)[:, [0]], vac[:, None]))
    transfer(chain, 0.3, vac[:, None])
    assert check_highest_weight(chain).passed
    assert check_transfer_commute(chain, 0.6 + 0.3j, -0.9 + 0.1j).passed
    assert built == []


def test_transfer_commute_restriction_not_vacuous(monkeypatch):
    # on the full truncated space the commutator picks up the cutoff shell;
    # the faithful-column restriction is what makes the identity exact
    chain = ChainSpec(rank=2, sites=2, fock_cutoff=3, theta=0.15)
    l1, l2 = 0.6 + 0.3j, -0.9 + 0.1j
    eye = np.eye(chain_vacuum(chain).size)
    t1 = transfer(chain, l1, eye)
    t2 = transfer(chain, l2, eye)
    comm = t1 @ t2 - t2 @ t1
    scale = max(1.0, np.max(np.abs(t1)) * np.max(np.abs(t2)))
    full = np.max(np.abs(comm)) / scale
    cols = faithful_columns(chain, 2)
    restricted = np.max(np.abs(comm[:, cols])) / scale
    assert full > 1e-4
    assert restricted < 1e-12
    # given every column, the check measures that shell and fails
    monkeypatch.setattr(checks, "faithful_columns", lambda chain, margin: np.arange(len(eye)))
    report = check_transfer_commute(chain, l1, l2)
    assert not report.passed
    assert abs(report.residual - full) <= 1e-12 * full


def test_faithful_columns_membership():
    chain = ChainSpec(rank=2, sites=1, fock_cutoff=3, defect_site=2)
    fock = chain.fock
    cols = faithful_columns(chain, 2)
    # quantum space is site (dim 2) x Fock; occupation of kept columns <= 1
    for c in cols:
        f = c % fock.dim
        assert sum(fock.basis[f]) <= fock.cutoff - 2


def test_faithful_columns_empty_margin_raises():
    chain = ChainSpec(rank=2, sites=0, fock_cutoff=1)
    with pytest.raises(ValueError):
        faithful_columns(chain, 2)


# ---------------------------------------------------------------------------
# residuals against dense products of kron-embedded operators


def _dense_exchange(kron_embed, rank, fock, pair_op, x1, x2):
    dims = (rank, rank, fock.dim)
    p = kron_embed(pair_op, dims, (0, 1))
    e1 = kron_embed(x1, dims, (0, 2))
    e2 = kron_embed(x2, dims, (1, 2))
    # (aux1, aux2, Fock) with the Fock occupation at most cutoff - 1
    idx = [
        (a * rank + b) * fock.dim + f
        for a in range(rank)
        for b in range(rank)
        for f, occ in enumerate(fock.basis)
        if sum(occ) < fock.cutoff
    ]
    block = np.ix_(idx, idx)
    return (p @ e1 @ e2)[block], (e2 @ e1 @ p)[block]


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("matrix", ["R", "S"])
def test_ybe_residual_against_dense(kron_embed, rank, matrix):
    build = lax.r_matrix if matrix == "R" else lax.s_matrix
    l1, l2 = 0.41 + 0.2j, -0.83 + 0.05j
    eye = np.eye(rank)
    m12 = np.kron(build(rank, l1 - l2), eye)
    m13 = kron_embed(build(rank, l1), (rank, rank, rank), (0, 2))
    m23 = np.kron(eye, build(rank, l2))
    lhs = m12 @ m13 @ m23
    dense = np.max(np.abs(lhs - m23 @ m13 @ m12))
    got = ybe_residual(rank, l1, l2, matrix)
    assert abs(got - dense) <= 1e-15 * np.max(np.abs(lhs))


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("variant", ["L", "Lhat"])
def test_rll_residual_against_dense(kron_embed, rank, variant):
    fock = FockSpace(rank - 1, 3)
    spec = LaxSpec(rank, variant=variant)
    for l1, l2 in ((0.43 - 0.2j, -1.1 + 0.6j), (1.7 + 1.2j, -1.9 - 1.6j)):
        lhs, rhs = _dense_exchange(
            kron_embed, rank, fock, lax.r_matrix(rank, l1 - l2),
            lax.defect_lax(spec, fock, l1), lax.defect_lax(spec, fock, l2),
        )
        got = rll_residual(spec, fock, l1, l2)
        assert abs(got - np.max(np.abs(lhs - rhs))) <= 1e-15 * np.max(np.abs(lhs))


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("conjugate", [False, True])
def test_transmission_algebra_residual_against_dense(kron_embed, rank, conjugate):
    fock = FockSpace(rank - 1, 3)
    build = lax.conjugate_transmission_matrix if conjugate else lax.transmission_matrix
    l1, l2 = 0.37 + 0.21j, -0.83 - 0.12j
    lhs, rhs = _dense_exchange(
        kron_embed, rank, fock, lax.s_matrix(rank, l1 - l2),
        build(rank, fock, l1), build(rank, fock, l2),
    )
    dense = np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))
    got = transmission_algebra_residual(rank, fock, l1, l2, conjugate)
    assert abs(got - dense) <= 1e-15


def _block_bytes(rank, d, keep):
    """Bytes of the n^2 d x n^2 |keep| complex column block."""
    return (rank * rank * d) * (rank * rank * keep) * 16


@pytest.mark.parametrize(
    "residual, block",
    [
        (lambda: ybe_residual(2, 0.3, -0.4, "R"), _block_bytes(2, 2, 2)),
        (lambda: ybe_residual(3, 0.3, -0.4, "S"), _block_bytes(3, 3, 3)),
        (lambda: rll_residual(LaxSpec(2), FockSpace(1, 3), 0.3, -0.4), _block_bytes(2, 4, 3)),
        (
            lambda: transmission_algebra_residual(3, FockSpace(2, 2), 0.3, -0.4, True),
            _block_bytes(3, 6, 3),
        ),
    ],
    ids=["ybe-R", "ybe-S", "rll", "transmission-algebra"],
)
def test_exchange_column_block_is_checked_against_the_budget(monkeypatch, residual, block):
    # at a budget of exactly the column block everything the residual builds
    # fits, so one byte less refuses the column block and nothing else
    monkeypatch.setattr(tensor, "MATRIX_BYTE_BUDGET", block)
    residual()
    monkeypatch.setattr(tensor, "MATRIX_BYTE_BUDGET", block - 1)
    with pytest.raises(ValueError, match="exchange-relation column block needs"):
        residual()


_CHAINS = [
    ChainSpec(rank=2, sites=2, fock_cutoff=3, theta=0.2),
    ChainSpec(rank=2, sites=2, fock_cutoff=3, defect_site=2, theta=-0.4 + 0.1j),
    ChainSpec(rank=3, sites=1, fock_cutoff=2, theta=0.3, lax=LaxSpec(3, variant="Lhat")),
    ChainSpec(rank=3, sites=2, fock_cutoff=2, defect_site=3, theta=0.1),
]


@pytest.mark.parametrize("chain", _CHAINS)
def test_highest_weight_against_dense(dense_monodromy, chain):
    n = chain.rank
    omega = chain_vacuum(chain)
    q = omega.size
    lams = (0.37 + 0.11j, -1.1 + 0.6j)
    dense = 0.0
    for z in lams:
        t = dense_monodromy(chain, z)
        scale = max(1.0, (abs(z) + 2.0) ** (chain.sites + 1))
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                block = t[(k - 1) * q : k * q, (l - 1) * q : l * q]
                expect = omega.conj() @ block @ omega
                target = checks._local_vacuum_weight(chain, k, z) if k == l else 0.0
                dense = max(dense, abs(expect - target) / scale)
    got = check_highest_weight(chain, lams).residual
    assert abs(got - dense) <= 1e-15


def _dense_transfer(dense_monodromy, chain, z):
    """Partial trace over the auxiliary space of the dense reference monodromy."""
    t = dense_monodromy(chain, z)
    q = t.shape[0] // chain.rank
    return sum(t[k * q : (k + 1) * q, k * q : (k + 1) * q] for k in range(chain.rank))


@pytest.mark.parametrize("variant", ["L", "Lhat"])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_transfer_matrix_against_dense_trace(dense_monodromy, rank, variant):
    lam = 0.6 + 0.3j
    cutoff = 2 if rank < 4 else 1  # the kron-built reference at rank 4, cutoff 2 takes seconds
    for sites in (0, 1, 2):
        for defect_site in range(1, sites + 2):
            chain = ChainSpec(
                rank=rank, sites=sites, fock_cutoff=cutoff, defect_site=defect_site,
                theta=0.3 - 0.2j, lax=LaxSpec(rank, variant=variant),
            )
            ref = _dense_transfer(dense_monodromy, chain, lam)
            got = transfer(chain, lam, np.eye(ref.shape[0]))
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), (sites, defect_site)


@pytest.mark.parametrize("chain", _CHAINS)
def test_transfer_commute_against_dense(dense_monodromy, chain):
    l1, l2 = 0.6 + 0.3j, -0.9 + 0.1j
    t1, t2 = (_dense_transfer(dense_monodromy, chain, z) for z in (l1, l2))
    cols = faithful_columns(chain, 2)
    x = np.eye(t1.shape[0])[:, cols]
    # each product on the faithful columns, against the dense one, relative
    # to its size: a round-off residual alone would say nothing of them
    for got, dense in (
        (transfer(chain, l1, transfer(chain, l2, x)), (t1 @ t2)[:, cols]),
        (transfer(chain, l2, transfer(chain, l1, x)), (t2 @ t1)[:, cols]),
    ):
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))
    assert check_transfer_commute(chain, l1, l2).passed
