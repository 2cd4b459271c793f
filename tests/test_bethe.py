import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from defectlab import bethe
from defectlab.tensor import WorkArrays
from defectlab.bethe import (
    BetheState,
    ConvergenceError,
    RootCollisionError,
    _jacobian,
    bae_residual,
    counting_function,
    counting_function_derivative,
    ground_state_seed,
    solve_bae,
)

# one-magnon closed forms: with a single level-1 root lambda on one site, the
# equation e_1(lambda) * f(lambda) = -1 is quadratic in lambda
QUADRATIC = {
    "+": [1.0, 1.0 + 1.0j, -0.25 - 0.5j],
    "-": [1.0, 1.0 - 1.0j, -0.25 + 0.5j],
}


def _value(x, zero_pole):
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    return bethe._quotient(*bethe._shift(x, zero_pole, [np.empty_like(x), np.empty_like(x)]))


def _log_derivative(x, zero_pole):
    x = np.asarray(x, dtype=complex)
    return bethe._log_derivative(x, zero_pole, [np.empty_like(x), np.empty_like(x)])


def test_e_ratio_values():
    for n in (1, 2):
        zero_pole = bethe._e_ratio_zero_pole(n)
        assert _value(0.0, zero_pole)[0] == -1.0
        x = np.array([0.5, 0.37 + 0.21j, -1.3 - 0.4j])
        assert np.max(np.abs(_value(x, zero_pole) - (x + 0.5j * n) / (x - 0.5j * n))) < 1e-15
        # the closed form -i n / (x^2 + n^2/4), and a central difference of the log
        assert np.max(np.abs(_log_derivative(x, zero_pole) - (-1j * n / (x * x + 0.25 * n * n)))) < 1e-15
        h = 1e-6
        num = (np.log(_value(x + h, zero_pole)) - np.log(_value(x - h, zero_pole))) / (2 * h)
        assert np.max(np.abs(num - _log_derivative(x, zero_pole))) < 1e-8


def test_defect_factor_and_derivative():
    x = np.array([0.53 - 0.11j])
    closed = {"+": (x + 0.5j, 1.0 / (x + 0.5j)), "-": (1.0 / (x - 0.5j), -1.0 / (x - 0.5j))}
    h = 1e-6
    for sign, (value, log_derivative) in closed.items():
        zero_pole = bethe._defect_zero_pole(sign)
        assert np.max(np.abs(_value(x, zero_pole) - value)) < 1e-15
        assert np.max(np.abs(_log_derivative(x, zero_pole) - log_derivative)) < 1e-15
        num = (np.log(_value(x + h, zero_pole)) - np.log(_value(x - h, zero_pole))) / (2 * h)
        assert np.max(np.abs(num - log_derivative)) < 1e-8
    with pytest.raises(ValueError):
        bethe._defect_zero_pole("0")


def test_phases_and_densities_match_their_closed_forms():
    x = np.linspace(-3, 3, 11)
    for zero_pole, phase, density in [
        # e_n: 2 arctan(2x/n), and its derivative / 2 pi, n / (2 pi (x^2 + n^2/4))
        *((bethe._e_ratio_zero_pole(n), 2.0 * np.arctan(2.0 * x / n),
           n / (2.0 * np.pi * (x * x + 0.25 * n * n))) for n in (1, 2)),
        # the impurity, either sign: arctan(2x), and half of the n = 1 density
        *((bethe._defect_zero_pole(sign), np.arctan(2.0 * x),
           0.5 / (2.0 * np.pi * (x * x + 0.25))) for sign in "+-"),
    ]:
        assert np.max(np.abs(bethe._phase(x, zero_pole) - phase)) < 1e-15
        assert np.max(np.abs(bethe._phase_density(x, zero_pole) - density)) < 1e-15


# every declared pair, and the moved impurity pairs of the tests below
PAIRS = [
    bethe._e_ratio_zero_pole(1), bethe._e_ratio_zero_pole(2), bethe._defect_zero_pole("+"),
    bethe._defect_zero_pole("-"), (None, -0.5j), (0.5j, None), (0.25j, -0.75j),
]


def test_phase_is_odd():
    x = np.linspace(-3, 3, 11)
    for zero_pole in PAIRS:
        assert np.allclose(bethe._phase(x, zero_pole), -bethe._phase(-x, zero_pole)), zero_pole


@pytest.mark.parametrize("zero_pole", PAIRS)
def test_phase_is_minus_the_argument_of_the_value(zero_pole):
    # on the real axis the phase is -arg of the factor's value up to a
    # constant, so 2 pi times its density is -Im of the log-derivative, and
    # a central difference of the phase is 2 pi times the density
    x = np.linspace(-3, 3, 13)
    density = bethe._phase_density(x, zero_pole)
    assert np.max(np.abs(2.0 * np.pi * density + _log_derivative(x, zero_pole).imag)) < 1e-14
    h = 1e-6
    num = (bethe._phase(x + h, zero_pole) - bethe._phase(x - h, zero_pole)) / (2 * h)
    assert np.max(np.abs(num - 2.0 * np.pi * density)) < 1e-8


def test_state_validation():
    with pytest.raises(ValueError):
        BetheState(rank=1, sites=2, roots=())
    with pytest.raises(ValueError):
        BetheState(rank=2, sites=2, roots=())  # needs one level
    with pytest.raises(ValueError):
        BetheState(rank=2, sites=2, roots=([0.1],), defect_sign="x")
    # the impurity's level follows from its sign and is not a setting
    with pytest.raises(TypeError):
        BetheState(rank=2, sites=2, roots=([0.1],), defect_sign="+", defect_level=1)
    for rank, sign, level in ((2, "+", 1), (2, "-", 1), (3, "+", 1), (3, "-", 2), (4, "+", 1),
                              (4, "-", 3), (3, None, 1)):
        st = BetheState(rank=rank, sites=2, roots=([],) * (rank - 1), defect_sign=sign)
        assert st.defect_level == level, (rank, sign)


def test_json_round_trip():
    st = BetheState(
        rank=3,
        sites=4,
        roots=([0.1 + 0.2j, -0.3], [0.5 - 0.1j]),
        theta=0.25,
        defect_sign="-",
    )
    assert '"defect_level": 2' in st.to_json()
    back = BetheState.from_json(st.to_json())
    assert back.rank == st.rank and back.sites == st.sites
    assert back.theta == st.theta
    assert back.defect_sign == st.defect_sign and back.defect_level == st.defect_level == 2
    for a, b in zip(back.roots, st.roots):
        assert np.array_equal(a, b)


def test_to_dict_keeps_signed_zeros_subnormals_and_extremes_bit_for_bit():
    # to_dict reads each level's roots as one float view: its JSON bytes must
    # equal those of the per-root float() form, a signed zero and the
    # smallest subnormal included
    values = (-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308)
    roots = ([complex(a, b) for a in values for b in values], [], [complex(-0.0, -0.0)])
    st = BetheState(rank=4, sites=2, roots=roots)
    per_root = [[[float(z.real), float(z.imag)] for z in lv] for lv in st.roots]
    assert st.to_json() == json.dumps(dict(st.to_dict(), roots=per_root), sort_keys=True, indent=2) + "\n"
    back = BetheState.from_json(st.to_json())
    for a, b in zip(back.roots, st.roots):
        assert a.tobytes() == b.tobytes()


def test_from_dict_rejects_unknown_schema():
    with pytest.raises(ValueError):
        BetheState.from_dict({"schema": 2})


def test_from_dict_rejects_flat_root_levels():
    # a level must be a list of [re, im] pairs, not a bare pair
    with pytest.raises(ValueError, match="re, im"):
        BetheState.from_dict(
            {"schema": 1, "rank": 2, "sites": 4, "theta": 0.0, "roots": [[0.25, 0.0]]}
        )


@pytest.mark.parametrize(
    "data, named",
    [
        ([1, 2], "a state must be a JSON object, got list"),
        ({"schema": 1, "rank": 2, "theta": 0.0, "roots": [[]]}, "missing key 'sites'"),
        ({"schema": 1, "rank": 2, "sites": 4, "theta": None, "roots": [[]]}, "theta must be a real"),
        ({"schema": 1, "rank": "2x", "sites": 4, "theta": 0.0, "roots": [[]]}, "rank must be an integer"),
        ({"schema": 1, "rank": 2.7, "sites": 4, "theta": 0.0, "roots": [[]]}, "rank must be an integer"),
        ({"schema": 1, "rank": 2, "sites": 4.9, "theta": 0.0, "roots": [[]]}, "sites must be an integer"),
        ({"schema": 1, "rank": True, "sites": 4, "theta": 0.0, "roots": [[]]}, "rank must be an integer"),
        ({"schema": 1, "rank": 2, "sites": 4, "theta": "0.3", "roots": [[]]}, "theta must be a real"),
        ({"schema": 1, "rank": 2, "sites": 4, "theta": 0.0, "roots": [[]], "defect_levle": 2},
         "unknown key 'defect_levle'"),
        ({"schema": True, "rank": 2, "sites": 4, "theta": 0.0, "roots": [[]]}, "unsupported schema True"),
        ({"schema": 1.0, "rank": 2, "sites": 4, "theta": 0.0, "roots": [[]]}, "unsupported schema 1.0"),
        ({"schema": 1, "rank": 3, "sites": 4, "theta": 0.0, "roots": [[], []], "defect_sign": "+",
          "defect_level": 2}, "defect_level must be 1 for defect_sign '[+]' at rank 3, got 2"),
        ({"schema": 1, "rank": 3, "sites": 4, "theta": 0.0, "roots": [[], []], "defect_sign": "-",
          "defect_level": 1}, "defect_level must be 2 for defect_sign '-' at rank 3, got 1"),
        ({"schema": 1, "rank": 3, "sites": 4, "theta": 0.0, "roots": [[], []], "defect_level": 2},
         "defect_level must be 1 for defect_sign None at rank 3, got 2"),
        ({"schema": 1, "rank": 2, "sites": 4, "theta": float("nan"), "roots": [[]]},
         "theta must be finite"),
        ({"schema": 1, "rank": 2, "sites": 4, "theta": float("inf"), "roots": [[]]},
         "theta must be finite"),
        ({"schema": 1, "rank": 2, "sites": 4, "theta": 0.0, "roots": [[[0.1, 0.0], [float("nan"), 0.0]]]},
         "roots must be finite"),
        ({"schema": 1, "rank": 2, "sites": 4, "theta": 0.0, "roots": [[[0.0, float("-inf")]]]},
         "roots must be finite"),
    ],
    ids=["not-an-object", "missing-key", "mistyped-theta", "mistyped-rank", "float-rank",
         "float-sites", "bool-rank", "string-theta", "misspelt-key", "bool-schema", "float-schema",
         "plus-on-level-2", "minus-on-level-1", "level-without-impurity", "nan-theta",
         "infinite-theta", "nan-root", "infinite-root"],
)
def test_from_dict_names_the_missing_or_mistyped_key(data, named):
    with pytest.raises(ValueError, match=named):
        BetheState.from_dict(data)


# ---------------------------------------------------------------------------
# residuals and the solver


def test_one_magnon_quadratic_roots_are_exact():
    for sign, coeffs in QUADRATIC.items():
        for root in np.roots(coeffs):
            st = BetheState(
                rank=2, sites=1, roots=(np.array([root]),), defect_sign=sign
            )
            assert np.max(np.abs(bae_residual(st))) < 1e-12
            # direct multiplicative statement, independent of the log form
            check = (root + 0.5j) / (root - 0.5j) * ((root + 0.5j) if sign == "+" else 1.0 / (root - 0.5j))
            assert abs(check + 1.0) < 1e-12


def test_solver_recovers_quadratic_root_from_perturbed_seed():
    for sign, coeffs in QUADRATIC.items():
        exact = np.roots(coeffs)
        seed = exact[1] + 0.05 - 0.03j
        st = BetheState(rank=2, sites=1, roots=(np.array([seed]),), defect_sign=sign)
        sol = solve_bae(st)
        assert np.max(np.abs(bae_residual(sol))) < 1e-10
        assert np.min(np.abs(sol.roots[0][0] - exact)) < 1e-9


def test_empty_state_is_trivially_solved():
    st = BetheState(rank=2, sites=4, roots=(np.zeros(0),))
    sol = solve_bae(st)
    assert bae_residual(sol).shape == (0,)


def test_four_site_defect_state_self_certifies():
    st = BetheState(
        rank=2, sites=4, roots=(ground_state_seed(4),), theta=0.3, defect_sign="+"
    )
    sol = solve_bae(st)
    assert np.max(np.abs(bae_residual(sol))) < 1e-10


def test_rank3_nested_solve():
    st = BetheState(
        rank=3,
        sites=4,
        roots=(ground_state_seed(4), np.array([0.1 + 0j])),
        theta=0.2,
        defect_sign="-",
    )
    sol = solve_bae(st)
    assert np.max(np.abs(bae_residual(sol))) < 1e-10
    assert sol.magnon_counts() == (2, 1)


@pytest.mark.parametrize(
    "state",
    [
        BetheState(rank=2, sites=4, roots=(ground_state_seed(4),), theta=0.3, defect_sign="+"),
        BetheState(rank=3, sites=4, roots=(ground_state_seed(4), np.array([0.1 + 0j])), theta=0.2,
                   defect_sign="-"),
    ],
    ids=["rank2", "rank3"],
)
def test_solve_hands_back_the_residual_of_its_roots(state):
    # the last accepted pass's residual, to the bit what a fresh pass gives;
    # the caller's state is left as it was
    sol = solve_bae(state)
    assert sol is not state and state.residual is None
    assert sol.residual.tobytes() == bae_residual(sol).tobytes()
    assert np.max(np.abs(sol.residual)) < 1e-10


def test_collision_guard_raises():
    st = BetheState(rank=2, sites=2, roots=(np.array([0.2, 0.2 + 1e-12]),))
    with pytest.raises(RootCollisionError):
        bae_residual(st)


def test_pole_proximity_guard_raises():
    # a root sitting on the zero theta - i/2 of the '+' impurity factor
    st = BetheState(
        rank=2,
        sites=2,
        roots=(np.array([0.3 - 0.5j]),),
        theta=0.3,
        defect_sign="+",
    )
    with pytest.raises(RootCollisionError):
        bae_residual(st)


@pytest.mark.parametrize("state, what", [
    # a root exactly on the '-' impurity pole theta + i/2, where its factor is 1/0
    (BetheState(rank=2, sites=2, roots=(np.array([0.3 + 0.5j]),), theta=0.3, defect_sign="-"),
     "the pole of the impurity factor"),
    # two level-1 roots exactly i apart: each sits on a zero or a pole of the
    # other's self-term e_2, and the zeros are tested first
    (BetheState(rank=2, sites=2, roots=(np.array([0.2, 0.2 + 1j]),)), "the zero of a scattering factor"),
], ids=["minus-impurity-pole", "roots-i-apart"])
def test_guard_refuses_an_exact_pole_before_forming_a_value(state, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootCollisionError, match=what):
            bae_residual(state)
        with pytest.raises(RootCollisionError, match=what):
            solve_bae(state)


@pytest.mark.parametrize("roots", [[0.2, 0.2 + 1j * (1 + 5e-10)], [0.2 + 1j * (1 + 5e-10), 0.2]],
                         ids=["upper-second", "upper-first"])
def test_self_term_guard_refuses_roots_near_i_apart_in_either_order(roots):
    # 5e-10 from a zero of one root's self-term and from a pole of the
    # other's, inside the guard but on no exact pole: the self-term's one
    # test, on its zero, refuses the pair whichever root comes first
    st = BetheState(rank=2, sites=2, roots=(np.array(roots),))
    with pytest.raises(RootCollisionError, match="level-1 root within 1e-09 of the zero of a scattering factor"):
        bae_residual(st)


def _fresh_jacobian(state):
    """_jacobian from the differences of a pass on a scratch of its own."""
    scratch = WorkArrays()
    bae_residual(state, scratch)
    return _jacobian(state, scratch)


def test_jacobian_from_the_pass_matches_a_fresh_one_bit_for_bit():
    scratch = WorkArrays()
    for st in _states():
        bae_residual(st, scratch)  # one scratch for all: each pass overwrites the last
        assert _jacobian(st, scratch).tobytes() == _fresh_jacobian(st).tobytes(), st


@pytest.mark.parametrize("sign", ["+", "-"])
def test_overflowing_trials_are_rejected_without_warnings(sign):
    # at theta = 1e300 trial steps overflow the impurity factor: each such
    # trial has a non-finite norm and is rejected, and no warning escapes
    st = BetheState(rank=2, sites=50, roots=(ground_state_seed(50),), theta=1e300, defect_sign=sign)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as info:
            solve_bae(st)
    assert np.isfinite(info.value.trace[0])


def _colliding_trials(monkeypatch, collide):
    """Patch bethe.bae_residual so that the trials ``collide`` picks (by
    their 1-based number; the starting pass is not a trial) raise
    RootCollisionError; returns the list of every state passed in."""
    real, seen = bethe.bae_residual, []

    def residual(state, scratch=None):
        seen.append(state)
        if len(seen) > 1 and collide(len(seen) - 1):
            raise RootCollisionError("patched collision")
        return real(state, scratch)

    monkeypatch.setattr(bethe, "bae_residual", residual)
    return seen


def test_a_colliding_trial_is_rejected_and_the_step_halved(monkeypatch):
    st = BetheState(rank=2, sites=4, roots=(ground_state_seed(4),), theta=0.3, defect_sign="+")
    scratch = WorkArrays()
    fval = bae_residual(st, scratch)
    step = np.linalg.solve(_jacobian(st, scratch), -fval)  # the first Newton step
    seen = _colliding_trials(monkeypatch, lambda trial: trial == 1)
    sol = solve_bae(st)
    assert np.max(np.abs(sol.residual)) < 1e-10
    assert np.array_equal(seen[1].roots[0], st.roots[0] + step)
    assert np.array_equal(seen[2].roots[0], st.roots[0] + 0.5 * step)


def test_a_line_search_of_colliding_trials_stalls(monkeypatch):
    st = BetheState(rank=2, sites=4, roots=(ground_state_seed(4),), theta=0.3, defect_sign="+")
    seen = _colliding_trials(monkeypatch, lambda trial: True)
    with pytest.raises(ConvergenceError, match="line search stalled") as info:
        solve_bae(st)
    assert len(info.value.trace) == 1
    assert len(seen) == 1 + 40  # the starting pass and 40 trials


def test_nonfinite_starting_residual_ends_in_convergence_error(monkeypatch):
    # e_1 ** sites overflows for a root off the real axis, so the starting
    # residual is NaN; the solve stops there, before any Newton step
    st = BetheState(rank=2, sites=100000, roots=(np.array([0.1 + 0.3j, 0.28]),), theta=0.3,
                    defect_sign="+")
    monkeypatch.setattr(bethe, "_jacobian", lambda *a: pytest.fail("built a Jacobian"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="starting residual is not finite") as info:
            solve_bae(st)
    assert len(info.value.trace) == 1 and np.isnan(info.value.trace[0])


def test_nonconvergent_case_raises_with_trace():
    # one Newton step from roots far from any solution cannot converge, under
    # any convention of the equations; the solver must fail honestly rather
    # than report a spurious solution
    st = BetheState(rank=2, sites=4, roots=(np.array([3.0, 7.0]),))
    with pytest.raises(ConvergenceError, match="no convergence after 1 iterations") as exc:
        solve_bae(st, max_iter=1)
    trace = exc.value.trace
    assert len(trace) >= 2
    assert trace[-1] > 1e-10  # genuinely unconverged


# ---------------------------------------------------------------------------
# scalar-loop references: every site a separate rapidity 0, every factor a
# Python complex


def _g(z, n):
    return -1j * n / (z * z + 0.25 * n * n)


def _adjacent(state, level):
    lower = [0j] * state.sites if level == 1 else list(state.roots[level - 2])
    upper = list(state.roots[level]) if level < state.rank - 1 else []
    return lower + upper


def _has_defect(state, level):
    return state.defect_sign is not None and level == state.defect_level


def _ref_ratio(state, level):
    lam = list(state.roots[level - 1])
    out = []
    for i, x in enumerate(lam):
        lhs = 1.0 + 0j
        for mu in _adjacent(state, level):
            lhs *= (x - mu + 0.5j) / (x - mu - 0.5j)
        if _has_defect(state, level):
            z = x - state.theta
            lhs *= z + 0.5j if state.defect_sign == "+" else 1.0 / (z - 0.5j)
        rhs = 1.0 + 0j
        for j, y in enumerate(lam):
            rhs *= -1.0 if j == i else (x - y + 1j) / (x - y - 1j)
        out.append(lhs / rhs)
    return np.array(out, dtype=complex)


def _ref_jacobian(state):
    flat = [
        (level, i, x) for level in range(1, state.rank) for i, x in enumerate(state.roots[level - 1])
    ]
    jac = np.zeros((len(flat), len(flat)), dtype=complex)
    for r, (level, i, x) in enumerate(flat):
        for c, (other, j, y) in enumerate(flat):
            if other == level and j == i:
                d = sum(_g(x - mu, 1) for mu in _adjacent(state, level))
                if _has_defect(state, level):
                    z = x - state.theta
                    d += 1.0 / (z + 0.5j) if state.defect_sign == "+" else -1.0 / (z - 0.5j)
                d -= sum(_g(x - w, 2) for k, w in enumerate(state.roots[level - 1]) if k != i)
            elif other == level:
                d = _g(x - y, 2)
            elif abs(other - level) == 1:
                d = -_g(x - y, 1)
            else:
                d = 0.0
            jac[r, c] = d
    return jac


def _ref_counting(state, level, lam):
    total = []
    for x in lam:
        t = sum(2.0 * np.arctan(2.0 * (x - mu.real)) for mu in _adjacent(state, level))
        t -= sum(2.0 * np.arctan(x - mu.real) for mu in state.roots[level - 1])
        if _has_defect(state, level):
            t += np.arctan(2.0 * (x - state.theta))
        total.append(t / (2.0 * np.pi))
    return np.array(total)


def _states():
    """Ranks 2 to 4, the impurity absent or with each sign on the level the
    sign selects, with and without sites, and with an empty level."""
    rng = np.random.default_rng(11)

    def roots(m):
        return rng.uniform(-1.5, 1.5, m) + 1j * rng.uniform(-0.4, 0.4, m)

    out = []
    for sites in (0, 1, 5):
        for sign in (None, "+", "-"):
            out.append(
                BetheState(rank=2, sites=sites, roots=(roots(3),), theta=0.3, defect_sign=sign)
            )
            # (3, 3): a transposed inter-level block keeps its shape; at rank 4
            # the '-' impurity sits on level 3 and level 2 has neither sites nor it
            for counts in ((3, 3), (4, 2), (0, 2), (3, 0), (2, 3, 2), (3, 0, 2)):
                out.append(BetheState(
                    rank=len(counts) + 1, sites=sites, roots=tuple(roots(m) for m in counts),
                    theta=-0.4, defect_sign=sign,
                ))
    return out


def test_equation_ratio_and_jacobian_match_scalar_loops():
    for st in _states():
        ref = np.concatenate([_ref_ratio(st, level) for level in range(1, st.rank)])
        got = np.exp(bae_residual(st))
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), st
        ref = _ref_jacobian(st)
        got = _fresh_jacobian(st)
        assert got.shape == ref.shape
        if ref.size:
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), st


def _assert_jacobian_matches_central_differences(st):
    h = 1e-6
    flat = np.concatenate(st.roots)
    jac = _fresh_jacobian(st)
    for k in range(flat.size):
        for step in (h, 1j * h):
            shifted = []
            for sgn in (1, -1):
                x = flat.copy()
                x[k] += sgn * step
                levels = np.split(x, np.cumsum(st.magnon_counts())[:-1])
                trial = replace(st, roots=tuple(levels))
                shifted.append(bae_residual(trial))
            # the residual is holomorphic: both directions give the column
            col = (shifted[0] - shifted[1]) / (2 * step)
            assert np.max(np.abs(col - jac[:, k])) <= 1e-7 * np.max(np.abs(jac)), (st, k)


def test_jacobian_matches_central_differences_of_the_residual():
    for st in _states():
        if np.concatenate(st.roots).size:
            _assert_jacobian_matches_central_differences(st)


@pytest.mark.parametrize("zero_pole", [(None, -0.5j), (0.5j, None), (0.25j, -0.75j)],
                         ids=["pole-minus-i/2", "zero-plus-i/2", "zero-and-pole"])
def test_kernels_derived_from_a_moved_impurity_pair_stay_consistent(monkeypatch, zero_pole):
    # the impurity factors of the oracle's orientation, i / (u - theta + i/2)
    # and i (u - theta - i/2) up to their constants, and a factor with both
    # a zero and a pole whose sum is not 0: declaring the pair alone must
    # give a Jacobian and a counting-function derivative that match central
    # differences of the residual and of the counting function
    monkeypatch.setattr(bethe, "_defect_zero_pole", lambda sign: zero_pole)
    grid = np.linspace(-2.5, 2.5, 41)
    h = 1e-5
    states = [st for st in _states() if st.defect_sign is not None]
    assert states
    for st in states:
        if np.concatenate(st.roots).size:
            _assert_jacobian_matches_central_differences(st)
        level = st.defect_level
        d = counting_function_derivative(st, level, grid)
        num = (counting_function(st, level, grid + h) - counting_function(st, level, grid - h)) / (2 * h)
        assert np.max(np.abs(num - d)) < 1e-8, st


def test_site_pole_is_guarded_only_with_sites():
    # e_1 over the sites has its pole at +i/2 and its zero at -i/2
    for pole, entry in ((0.5j, "pole"), (-0.5j, "zero")):
        for sites in (1, 400):
            st = BetheState(rank=2, sites=sites, roots=(np.array([pole, 0.7]),))
            with pytest.raises(RootCollisionError, match=f"the {entry} of a scattering factor"):
                bae_residual(st)
        bae_residual(BetheState(rank=2, sites=0, roots=(np.array([pole, 0.7]),)))
        # level 2 does not couple to the sites
        bae_residual(BetheState(rank=3, sites=4, roots=(np.array([0.7]), np.array([pole]))))


THETA = 0.3
POLES = {
    # kind of factor: (a root on that factor's zero or pole, the same root on
    # a level without that factor, the zero or pole the refusal names)
    "sites-rank2": (dict(rank=2, sites=4, roots=([0.5j, 0.7],)),
                    dict(rank=2, sites=0, roots=([0.5j, 0.7],)), "the pole of a scattering factor"),
    "sites-rank3": (dict(rank=3, sites=4, roots=([-0.5j, 0.7], [0.1])),
                    dict(rank=3, sites=4, roots=([0.7], [-0.5j, 0.1])), "the zero of a scattering factor"),
    "adjacent-level-rank3": (dict(rank=3, sites=0, roots=([0.3], [0.3 + 0.5j])),
                             dict(rank=4, sites=0, roots=([0.3], [], [0.3 + 0.5j])),
                             "the zero of a scattering factor"),
    "adjacent-level-rank4": (dict(rank=4, sites=2, roots=([0.9], [0.3 - 0.5j], [0.3])),
                             dict(rank=4, sites=2, roots=([0.9, 0.3 - 0.5j], [], [0.3])),
                             "the zero of a scattering factor"),
    "own-level-plus-i": (dict(rank=2, sites=2, roots=([0.2, 0.2 + 1j],)),
                         dict(rank=3, sites=2, roots=([0.2], [0.2 + 1j])), "the zero of a scattering factor"),
    "own-level-minus-i": (dict(rank=3, sites=2, roots=([0.9], [0.2, 0.2 - 1j])),
                          dict(rank=3, sites=2, roots=([0.2 - 1j, 0.9], [0.2])),
                          "the zero of a scattering factor"),
    "impurity-plus-rank2": (dict(rank=2, sites=2, roots=([THETA - 0.5j],), defect_sign="+"),
                            dict(rank=2, sites=2, roots=([THETA - 0.5j],), defect_sign="-"),
                            "the zero of the impurity factor"),
    "impurity-minus-rank2": (dict(rank=2, sites=2, roots=([THETA + 0.5j],), defect_sign="-"),
                             dict(rank=2, sites=2, roots=([THETA + 0.5j],), defect_sign="+"),
                             "the pole of the impurity factor"),
    # from rank 3 on, '+' sits on level 1 and '-' on level rank-1
    "impurity-minus-rank3": (dict(rank=3, sites=2, roots=([0.8], [THETA + 0.5j]), defect_sign="-"),
                             dict(rank=3, sites=2, roots=([THETA + 0.5j], [0.8]), defect_sign="-"),
                             "the pole of the impurity factor"),
    "impurity-plus-rank3": (dict(rank=3, sites=2, roots=([THETA - 0.5j], [0.7]), defect_sign="+"),
                            dict(rank=3, sites=2, roots=([0.7], [THETA - 0.5j]), defect_sign="+"),
                            "the zero of the impurity factor"),
    "impurity-level2-minus": (
        dict(rank=3, sites=2, roots=([0.7], [THETA + 0.5j]), defect_sign="-"),
        dict(rank=4, sites=2, roots=([0.7], [THETA + 0.5j], [0.1]), defect_sign="-"),
        "the pole of the impurity factor"),
}


@pytest.mark.parametrize("on_pole, elsewhere, what", POLES.values(), ids=POLES.keys())
def test_guard_refuses_a_root_on_each_kind_of_factor_pole(on_pole, elsewhere, what):
    with pytest.raises(RootCollisionError, match=what):
        bae_residual(BetheState(theta=THETA, **on_pole))
    assert np.all(np.isfinite(bae_residual(BetheState(theta=THETA, **elsewhere))))


# ---------------------------------------------------------------------------
# counting function


def test_counting_ladder_spacing():
    seed = ground_state_seed(8)
    st = BetheState(rank=2, sites=8, roots=(seed,), theta=0.3, defect_sign="+")
    sol = solve_bae(st)
    lam = np.sort(sol.roots[0].real)
    h = counting_function(sol, 1, lam)
    assert np.all(np.diff(h) > 0)
    assert np.max(np.abs(np.diff(h) - 1.0)) < 5e-3


def test_counting_function_matches_scalar_loop():
    grid = np.linspace(-2.5, 2.5, 41)
    for st in _states():
        for level in range(1, st.rank):
            ref = _ref_counting(st, level, grid)
            got = counting_function(st, level, grid)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) <= 1e-14 * scale, (st, level)


@pytest.mark.parametrize(
    "fn, level",
    [(counting_function, 2), (counting_function_derivative, 0), (counting_function, 3)],
    ids=["level-rank", "level-0", "past-rank"],
)
def test_counting_functions_refuse_non_equation_levels(fn, level):
    # rank 2 has equations at level 1 only
    st = BetheState(rank=2, sites=4, roots=(ground_state_seed(4),), theta=0.3, defect_sign="+")
    with pytest.raises(ValueError, match=f"level must be in 1..1, got {level}"):
        fn(st, level, np.linspace(-1.0, 1.0, 5))


def test_counting_derivative_positive_and_matches_difference():
    st = BetheState(
        rank=2, sites=8, roots=(ground_state_seed(8),), theta=0.3, defect_sign="+"
    )
    sol = solve_bae(st)
    grid = np.linspace(-2.5, 2.5, 41)
    d = counting_function_derivative(sol, 1, grid)
    assert np.all(d > 0)
    h = 1e-5
    num = (counting_function(sol, 1, grid + h) - counting_function(sol, 1, grid - h)) / (
        2 * h
    )
    assert np.max(np.abs(num - d)) < 1e-8


def test_ground_state_seed_properties():
    s = ground_state_seed(8)
    assert len(s) == 4
    # symmetric about the origin
    ordered = np.sort(s.real)
    assert np.allclose(ordered, -ordered[::-1])
    assert np.allclose(s.imag, 0)
    assert len(ground_state_seed(8, 3)) == 3
    with pytest.raises(ValueError):
        ground_state_seed(8, 5)
