import gc
import json
import math
import sys
import threading
import tracemalloc

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
    rll_residual,
    rng_for,
    sample_pairs,
    sample_points,
    transmission_algebra_residual,
    worst_of,
    ybe_residual,
)
import defectlab.lax as lax
from defectlab.lax import ChainSpec, LaxSpec, chain_vacuum, transfer
import defectlab.tensor as tensor
from defectlab.tensor import FockSpace


def _points(label, count):
    return sample_points(rng_for(11, label), count)


def _pairs(label, count, avoid_diff=()):
    return sample_pairs(rng_for(11, label), count, avoid_diff)


def test_rng_for_deterministic_and_label_separated():
    a = rng_for(3, "x").normal(size=4)
    b = rng_for(3, "x").normal(size=4)
    c = rng_for(3, "y").normal(size=4)
    d = rng_for(3 + 2**32, "x").normal(size=4)  # every bit of the seed counts
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_pairs_keep_their_differences_off_zero_and_the_s_matrix_poles():
    pairs = sample_pairs(rng_for(0, "pairs"), 200, avoid_diff=(1j, -1j))
    assert len(pairs) == 200
    assert min(abs(a - b - s) for a, b in pairs for s in (0, 1j, -1j)) >= 0.02


def test_report_shape_and_serialization():
    (rep,) = check_ybe(2, [(0.4 + 0.1j, -0.9)])
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
        reports = check_ybe(rank, _pairs(f"ybeS{rank}", 2, avoid_diff=(1j, -1j)), matrix="S")
        assert len(reports) == 2 and all(rep.passed for rep in reports)


def test_ybe_rejects_unknown_matrix():
    with pytest.raises(ValueError):
        ybe_residual(2, 0.1, 0.2, matrix="Q")


def test_ybe_detects_broken_r(monkeypatch):
    # non-vacuity: perturbing the permutation part must produce a large
    # residual (note lam + 2iP would still pass, being a rescaling of lam)
    import defectlab.lax as lax
    from defectlab.tensor import permutation_op

    def fake_r(rank, lam, role=None):  # a fresh matrix; role names the checks' kept array
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
            reports = check_rll(spec, fock, list(zip(pts[0::2], pts[1::2])))
            assert len(reports) == 2
            for rep in reports:
                assert rep.passed, (variant, rep.residual)


def test_rll_invariant_under_ordering_and_shift():
    # reordering the number operator or shifting the constant translates the
    # spectral parameter, so the exchange relation holds for every convention
    for rank in (2, 3, 4):
        fock = FockSpace(rank - 1, 6 - rank)  # cutoffs 4, 3, 2
        pts = _points(f"rll-conventions{rank}", 4)
        for ordering in ("normal", "antinormal"):
            for shift in (0.0, 1.0, rank - 1.0, float(rank)):
                spec = LaxSpec(rank, ordering=ordering, shift=shift)
                res = rll_residual(spec, fock, pts[0::2], pts[1::2])
                assert res.max() < 1e-10, (spec, res)


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
        pairs = _pairs(f"ta{rank}", 2, avoid_diff=(1j, -1j))
        for conjugate in (False, True):
            reports = check_transmission_algebra(rank, fock, pairs, conjugate=conjugate)
            assert all(rep.passed for rep in reports), (rank, conjugate, reports)


def test_transmission_algebra_scalar_rescaling_invariance(monkeypatch):
    rank, fock = 2, FockSpace(1, 4)
    l1, l2 = 0.37 + 0.21j, -0.83 - 0.12j
    base = transmission_algebra_residual(rank, fock, l1, l2)

    orig = lax.transmission_matrix

    def scaled(rank_, fock_, lam, *args, **kwargs):
        # each entry of a stack by its own lambda's factor
        c = np.exp(0.31 + 0.77j * np.real(lam))
        return np.asarray(c)[..., None, None] * orig(rank_, fock_, lam, *args, **kwargs)

    monkeypatch.setattr(lax, "transmission_matrix", scaled)
    rescaled = transmission_algebra_residual(rank, fock, l1, l2)
    assert abs(base - rescaled) < 1e-12
    stacked = transmission_algebra_residual(rank, fock, [l1, l2], [l2, l1])
    assert stacked.shape == (2,) and abs(stacked[0] - base) < 1e-12


def test_transmission_crossing_constant_is_rank():
    # an oracle apart from the check: each point's least-squares ratio of the
    # conjugate matrix to the crossed one, on real and complex lambda away
    # from the pole at i/2
    lams = np.array([-2.7, -0.4, 0.0, 1.3, 0.6 - 0.8j, -1.9 + 0.3j, 0.2 + 1.4j])
    for rank in range(2, 7):
        for cutoff in range(1, 5):
            fock = FockSpace(rank - 1, cutoff)
            conjugate = lax.conjugate_transmission_matrix(rank, fock, lams)
            crossed = lax.crossed_transmission_matrix(rank, fock, lams)
            for lam, c, x in zip(lams, conjugate, crossed):
                ratio = np.vdot(x, c) / np.vdot(x, x)
                assert abs(ratio - rank) <= 1e-12 * rank, (rank, cutoff, lam, ratio)
            rep = check_transmission_crossing(rank, fock)
            assert rep.passed and dict(rep.parameters)["constant"] == rank, (rank, cutoff, rep)


def test_transmission_crossing_fails_a_lambda_dependent_ratio(monkeypatch):
    crossed = lax.crossed_transmission_matrix

    def drifting(rank, fock, lam, role=None):
        out = crossed(rank, fock, lam, role)
        out *= (1 + 1e-6 * np.asarray(lam))[..., None, None]
        return out

    monkeypatch.setattr(lax, "crossed_transmission_matrix", drifting)
    for rank in (2, 3):
        rep = check_transmission_crossing(rank, FockSpace(rank - 1, 4))
        assert not rep.passed and rep.residual > 1e-7, (rank, rep.residual)


# ---------------------------------------------------------------------------
# transfer commutativity


def test_transfer_commute_passes():
    chain = ChainSpec(rank=2, sites=2, fock_cutoff=3, theta=0.15)
    pts = _points("tc", 4)
    for l1, l2 in zip(pts[0::2], pts[1::2]):
        (rep,) = check_transfer_commute(chain, [(l1, l2)])
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
    assert check_transfer_commute(chain, [(0.6 + 0.3j, -0.9 + 0.1j)])[0].passed
    assert built == []


def _faithful_columns(chain):
    """The quantum-space columns whose defect occupation is at most cutoff
    - 2, in increasing order, from each column's own Fock state."""
    states = np.indices(chain.dims[1:]).reshape(len(chain.dims) - 1, -1)[chain.defect_site - 1]
    return np.flatnonzero(chain.fock.occupation[states] <= chain.fock_cutoff - 2)


def _every_column(monkeypatch, chain):
    # every Fock cut answers the whole basis, so the transfer check reads
    # every column (and the transfer products run on every shell)
    monkeypatch.setattr(chain.fock, "shells", lambda top: chain.fock.dim)


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
    cols = _faithful_columns(chain)
    restricted = np.max(np.abs(comm[:, cols])) / scale
    assert full > 1e-4
    assert restricted < 1e-12
    # given every column, the check measures that shell and fails
    _every_column(monkeypatch, chain)
    (report,) = check_transfer_commute(chain, [(l1, l2)])
    assert not report.passed
    assert abs(report.residual - full) <= 1e-12 * full


def test_faithful_columns_membership(monkeypatch):
    # the block that the first transfer pass is applied to is the identity
    # on the columns whose Fock occupation is <= cutoff - 2, in their order,
    # with the defect at each slot
    blocks, transfer_of = [], lax.transfer
    monkeypatch.setattr(lax, "transfer", lambda chain, lam, x: blocks.append(x) or transfer_of(chain, lam, x))
    for sites, defect_site in [(1, 2), (0, 1), (2, 1), (2, 2), (2, 3)]:
        chain = ChainSpec(rank=2, sites=sites, fock_cutoff=3, defect_site=defect_site)
        blocks.clear()
        assert check_transfer_commute(chain, [(0.6 + 0.3j, -0.9 + 0.1j)])[0].passed
        q = chain_vacuum(chain).size
        assert np.array_equal(blocks[0], np.eye(q)[:, _faithful_columns(chain)]), (sites, defect_site)


def test_faithful_columns_empty_margin_raises():
    chain = ChainSpec(rank=2, sites=0, fock_cutoff=1)
    with pytest.raises(ValueError, match="cutoff 1 leaves no occupation-2 margin; raise the cutoff"):
        check_transfer_commute(chain, [(0.6 + 0.3j, -0.9 + 0.1j)])


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


def _exchange_sides(n, pair_op, x1, x2, d, k):
    # copies: the two sides are views of kept work arrays, which the next
    # call overwrites
    return tuple(side.copy() for side in checks._exchange_sides(n, pair_op, x1, x2, d, k))


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("k", [3, 5], ids=["proper-subset", "full-range"])
def test_exchange_sides_against_embedded_products(rank, k):
    # random operators, so that no structure of R, L or T can hide a
    # misplaced leg; V has dimension 5
    rng = np.random.default_rng(rank)
    d = 5

    def random_op(k):
        return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))

    pair_op, x1, x2 = random_op(rank * rank), random_op(rank * d), random_op(rank * d)
    p12 = np.kron(pair_op, np.eye(d))
    x1_13 = tensor.embed_pair(x1, rank, [rank, d], 2)
    x2_23 = np.kron(np.eye(rank), tensor.embed_pair(x2, rank, [d], 1))
    rows = (np.arange(rank * rank)[:, None] * d + np.arange(k)).ravel()
    block = np.ix_(rows, rows)
    lhs, rhs = _exchange_sides(rank, pair_op, x1, x2, d, k)
    for got, dense in ((lhs, (p12 @ x1_13 @ x2_23)[block]), (rhs, (x2_23 @ x1_13 @ p12)[block])):
        assert got.shape == dense.shape
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_exchange_sides_on_a_stack_equals_its_per_item_calls(rank):
    rng = np.random.default_rng(10 + rank)
    d, k = 5, 3

    def random_ops(n):
        return rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))

    pair_op, x1, x2 = random_ops(rank * rank), random_ops(rank * d), random_ops(rank * d)
    lhs, rhs = _exchange_sides(rank, pair_op, x1, x2, d, k)
    m = rank * rank * k
    assert lhs.shape == rhs.shape == (2, 3, m, m)
    for idx in np.ndindex(2, 3):
        one_lhs, one_rhs = _exchange_sides(rank, pair_op[idx], x1[idx], x2[idx], d, k)
        assert np.array_equal(lhs[idx], one_lhs) and np.array_equal(rhs[idx], one_rhs)


def test_threads_running_rll_at_once_each_get_their_serial_residuals():
    # each thread keeps its own work arrays: four threads, two at rank 2 and
    # two at rank 4, switching often, each match the serial residuals bit
    # for bit
    lam1 = np.array([0.43 - 0.2j, 1.7 + 1.2j, -0.6 + 0.1j, 0.2 + 0.9j])
    lam2 = np.array([-1.1 + 0.6j, -1.9 - 1.6j, 0.8 - 0.4j, -0.3 - 0.7j])
    cutoffs = {2: 5, 4: 2}  # a thread builds its own Fock space
    serial = {rank: rll_residual(LaxSpec(rank), FockSpace(rank - 1, cutoff), lam1, lam2).tobytes()
              for rank, cutoff in cutoffs.items()}
    ranks = [2, 4, 2, 4]
    start, got = threading.Barrier(len(ranks)), {}

    def run(index):
        spec, fock = LaxSpec(ranks[index]), FockSpace(ranks[index] - 1, cutoffs[ranks[index]])
        start.wait()
        got[index] = [rll_residual(spec, fock, lam1, lam2).tobytes() for _ in range(30)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(index,)) for index in range(len(ranks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index, rank in enumerate(ranks):
        assert got[index] == [serial[rank]] * 30, rank


def test_a_request_above_the_stack_size_is_not_kept():
    # rank 5, cutoff 6: one pair's exchange-relation arrays are 3150 x 3150,
    # far above STACK_BYTES; they are fresh and freed, and the thread's work
    # arrays keep at most STACK_BYTES per role
    work = tensor.work_arrays()
    spec, fock = LaxSpec(5), FockSpace(4, 6)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        residual = rll_residual(spec, fock, 0.3 + 0.1j, -0.4 + 0.2j)
        del fock  # with the skeletons it keeps
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual < 1e-10
    cap = len(work.buffers) * tensor.STACK_BYTES
    assert peak - before > 10 * cap  # the requests were far above the cap
    assert sum(buf.nbytes for buf, _ in work.buffers.values()) <= cap
    assert after - before <= cap


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_residuals_of_a_stack_equal_the_per_pair_residuals(rank):
    fock = FockSpace(rank - 1, 2)
    lam1 = np.array([0.43 - 0.2j, 1.7 + 1.2j, -0.6 + 0.1j])
    lam2 = np.array([-1.1 + 0.6j, -1.9 - 1.6j, 0.8 - 0.4j])
    residuals = {
        "ybe-R": lambda a, b: ybe_residual(rank, a, b, "R"),
        "ybe-S": lambda a, b: ybe_residual(rank, a, b, "S"),
        "rll-L": lambda a, b: rll_residual(LaxSpec(rank), fock, a, b),
        "rll-Lhat": lambda a, b: rll_residual(LaxSpec(rank, variant="Lhat"), fock, a, b),
        "ta-direct": lambda a, b: transmission_algebra_residual(rank, fock, a, b),
        "ta-conjugate": lambda a, b: transmission_algebra_residual(rank, fock, a, b, True),
    }
    for name, residual in residuals.items():
        stacked = residual(lam1, lam2)
        assert stacked.shape == lam1.shape, name
        per_pair = [residual(a, b) for a, b in zip(lam1.tolist(), lam2.tolist())]
        assert stacked.tolist() == per_pair, name


def test_exchange_product_is_refused_before_any_operator_is_built(monkeypatch):
    # rank 2, cutoff 3: one pair's 12 x 12 product, one byte over
    monkeypatch.setattr(tensor, "MATRIX_BYTE_BUDGET", _block_bytes(2, 3) - 1)
    for name in ("r_matrix", "s_matrix", "defect_lax", "transmission_matrix",
                 "conjugate_transmission_matrix"):
        monkeypatch.setattr(lax, name, lambda *args: pytest.fail("an operator was built"))
    fock = FockSpace(1, 3)
    for residual in (
        lambda: rll_residual(LaxSpec(2), fock, [0.3, 0.1], [-0.4, 0.2]),
        lambda: transmission_algebra_residual(2, fock, [0.3, 0.1], [-0.4, 0.2], True),
    ):
        with pytest.raises(ValueError, match="exchange-relation product needs a 12 x 12 complex"):
            residual()


@pytest.mark.parametrize("depth", [1, 2])
def test_stacks_over_the_budget_are_evaluated_in_runs_that_fit(monkeypatch, depth):
    # a budget of `depth` points' largest arrays: every stack of 5 points is
    # evaluated in runs of at most `depth`, each within the budget, and gives
    # each point's own residual
    rank, fock = 3, FockSpace(2, 2)
    lam1 = np.array([0.43 - 0.2j, 1.7 + 1.2j, -0.6 + 0.1j, 0.2 + 0.9j, -1.3 - 0.5j])
    lam2 = np.array([-1.1 + 0.6j, -1.9 - 1.6j, 0.8 - 0.4j, 0.5 - 0.7j, 1.4 + 0.3j])
    residuals = {
        "ybe-R": (lambda a, b: ybe_residual(rank, a, b, "R"), _block_bytes(rank, rank)),
        "ybe-S": (lambda a, b: ybe_residual(rank, a, b, "S"), _block_bytes(rank, rank)),
        "rll": (lambda a, b: rll_residual(LaxSpec(rank), fock, a, b), _block_bytes(rank, 3)),
        "ta": (lambda a, b: transmission_algebra_residual(rank, fock, a, b, True), _block_bytes(rank, 3)),
    }
    for name, (residual, block) in residuals.items():
        per_pair = [residual(a, b) for a, b in zip(lam1.tolist(), lam2.tolist())]
        monkeypatch.setattr(tensor, "MATRIX_BYTE_BUDGET", depth * block)
        assert residual(lam1, lam2).tolist() == per_pair, name
        monkeypatch.undo()
    side = rank * fock.dim
    grid = np.linspace(-3.0, 3.0, 5)
    crossing = check_lax_crossing(LaxSpec(rank), fock, grid)
    transmission = check_transmission_crossing(rank, fock, grid)
    monkeypatch.setattr(tensor, "MATRIX_BYTE_BUDGET", depth * side * side * 16)
    assert check_lax_crossing(LaxSpec(rank), fock, grid) == crossing
    assert check_transmission_crossing(rank, fock, grid) == transmission


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


def _block_bytes(rank, k):
    """Bytes of the n^2 k x n^2 k complex product of two local operators
    on the first k V states."""
    return (rank * rank * k) ** 2 * 16


@pytest.mark.parametrize(
    "residual, block",
    [
        (lambda: ybe_residual(2, 0.3, -0.4, "R"), _block_bytes(2, 2)),
        (lambda: ybe_residual(3, 0.3, -0.4, "S"), _block_bytes(3, 3)),
        (lambda: rll_residual(LaxSpec(2), FockSpace(1, 3), 0.3, -0.4), _block_bytes(2, 3)),
        (
            lambda: transmission_algebra_residual(3, FockSpace(2, 2), 0.3, -0.4, True),
            _block_bytes(3, 3),
        ),
    ],
    ids=["ybe-R", "ybe-S", "rll", "transmission-algebra"],
)
def test_exchange_column_block_is_checked_against_the_budget(monkeypatch, residual, block):
    # at a budget of exactly the product everything the residual builds
    # fits, so one byte less refuses the product and nothing else
    monkeypatch.setattr(tensor, "MATRIX_BYTE_BUDGET", block)
    residual()
    monkeypatch.setattr(tensor, "MATRIX_BYTE_BUDGET", block - 1)
    side = math.isqrt(block // 16)
    with pytest.raises(ValueError, match=f"exchange-relation product needs a {side} x {side} complex"):
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
    rng = np.random.default_rng(rank)
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
            # and on a block of 3 random columns
            x = rng.normal(size=(ref.shape[0], 3)) + 1j * rng.normal(size=(ref.shape[0], 3))
            dense = ref @ x
            got = transfer(chain, lam, x)
            assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense)), (sites, defect_site)


@pytest.mark.parametrize("chain", _CHAINS)
def test_transfer_commute_against_dense(dense_monodromy, monkeypatch, chain):
    # two pairs in one call, each against its own dense-trace reference
    pairs = [(0.6 + 0.3j, -0.9 + 0.1j), (-0.2 - 0.7j, 1.1 + 0.4j)]
    dense = [[_dense_transfer(dense_monodromy, chain, z) for z in pair] for pair in pairs]
    cols = _faithful_columns(chain)
    x = np.eye(len(dense[0][0]))[:, cols]
    lam1, lam2 = np.array(pairs).T
    # each product on the faithful columns, as a stack of both pairs, against
    # the dense one, relative to its size: a round-off residual alone would
    # say nothing of them
    t12 = transfer(chain, lam1, transfer(chain, lam2, x))
    t21 = transfer(chain, lam2, transfer(chain, lam1, x))
    for i, (t1, t2) in enumerate(dense):
        for got, ref in ((t12[i], (t1 @ t2)[:, cols]), (t21[i], (t2 @ t1)[:, cols])):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    reports = check_transfer_commute(chain, pairs)
    assert [(dict(r.parameters)["lambda1"], dict(r.parameters)["lambda2"]) for r in reports] == pairs
    assert all(r.passed for r in reports), [r.residual for r in reports]
    # on every column the commutator picks up the cutoff shell, a different
    # size for each pair (except where the chain has none): each report
    # measures its own pair's
    _every_column(monkeypatch, chain)
    for report, (t1, t2) in zip(check_transfer_commute(chain, pairs), dense):
        full = np.max(np.abs(t1 @ t2 - t2 @ t1)) / max(1.0, np.max(np.abs(t1)) * np.max(np.abs(t2)))
        assert abs(report.residual - full) <= 1e-12 * full + 1e-15, (report.residual, full)
