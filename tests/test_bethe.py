from dataclasses import replace

import numpy as np
import pytest

from defectlab.bethe import (
    BetheState,
    ConvergenceError,
    RootCollisionError,
    _jacobian,
    bae_residual,
    counting_function,
    counting_function_derivative,
    defect_factor,
    defect_log_derivative,
    e_ratio,
    e_ratio_log_derivative,
    ground_state_seed,
    phase,
    solve_bae,
)

# one-magnon closed forms: with a single level-1 root lambda on one site, the
# equation e_1(lambda) * f(lambda) = -1 is quadratic in lambda
QUADRATIC = {
    "+": [1.0, 1.0 + 1.0j, -0.25 - 0.5j],
    "-": [1.0, 1.0 - 1.0j, -0.25 + 0.5j],
}


def test_e_ratio_values():
    assert e_ratio(0.0, 2) == -1.0
    assert abs(e_ratio(0.5, 1) - (0.5 + 0.5j) / (0.5 - 0.5j)) < 1e-15
    # log derivative against a central difference
    h = 1e-6
    x = 0.37 + 0.21j
    num = (np.log(e_ratio(x + h, 1)) - np.log(e_ratio(x - h, 1))) / (2 * h)
    assert abs(num - e_ratio_log_derivative(x, 1)) < 1e-8


def test_defect_factor_and_derivative():
    x = 0.53 - 0.11j
    assert abs(defect_factor(x, "+") - (x + 0.5j)) < 1e-15
    assert abs(defect_factor(x, "-") - 1.0 / (x - 0.5j)) < 1e-15
    h = 1e-6
    for sign in ("+", "-"):
        num = (
            np.log(defect_factor(x + h, sign)) - np.log(defect_factor(x - h, sign))
        ) / (2 * h)
        assert abs(num - defect_log_derivative(x, sign)) < 1e-8
    with pytest.raises(ValueError):
        defect_factor(x, "0")


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
            check = e_ratio(root, 1) * defect_factor(root, sign)
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


def test_collision_guard_raises():
    st = BetheState(rank=2, sites=2, roots=(np.array([0.2, 0.2 + 1e-12]),))
    with pytest.raises(RootCollisionError):
        bae_residual(st)


def test_pole_proximity_guard_raises():
    # a root sitting on the impurity pole theta - i/2 of the '+' factor
    st = BetheState(
        rank=2,
        sites=2,
        roots=(np.array([0.3 - 0.5j]),),
        theta=0.3,
        defect_sign="+",
    )
    with pytest.raises(RootCollisionError):
        bae_residual(st)


def test_nonconvergent_case_raises_with_trace():
    # without the impurity term, the symmetric two-magnon seed on four sites
    # drives the roots toward a collision at the origin; the solver must fail
    # honestly rather than report a spurious solution
    st = BetheState(rank=2, sites=4, roots=(ground_state_seed(4),))
    with pytest.raises(ConvergenceError) as exc:
        solve_bae(st)
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
        got = _jacobian(st)
        assert got.shape == ref.shape
        if ref.size:
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), st


def test_jacobian_matches_central_differences_of_the_residual():
    h = 1e-6
    for st in _states():
        flat = np.concatenate(st.roots)
        if flat.size == 0:
            continue
        jac = _jacobian(st)
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


def test_site_pole_is_guarded_only_with_sites():
    for pole in (0.5j, -0.5j):
        for sites in (1, 400):
            st = BetheState(rank=2, sites=sites, roots=(np.array([pole, 0.7]),))
            with pytest.raises(RootCollisionError, match="scattering pole"):
                bae_residual(st)
        bae_residual(BetheState(rank=2, sites=0, roots=(np.array([pole, 0.7]),)))
        # level 2 does not couple to the sites
        bae_residual(BetheState(rank=3, sites=4, roots=(np.array([0.7]), np.array([pole]))))


THETA = 0.3
POLES = {
    # kind of factor: (a root on that factor's pole, the same root on a level
    # without that factor, the pole the refusal names)
    "sites-rank2": (dict(rank=2, sites=4, roots=([0.5j, 0.7],)),
                    dict(rank=2, sites=0, roots=([0.5j, 0.7],)), "a scattering pole"),
    "sites-rank3": (dict(rank=3, sites=4, roots=([-0.5j, 0.7], [0.1])),
                    dict(rank=3, sites=4, roots=([0.7], [-0.5j, 0.1])), "a scattering pole"),
    "adjacent-level-rank3": (dict(rank=3, sites=0, roots=([0.3], [0.3 + 0.5j])),
                             dict(rank=4, sites=0, roots=([0.3], [], [0.3 + 0.5j])),
                             "a scattering pole"),
    "adjacent-level-rank4": (dict(rank=4, sites=2, roots=([0.9], [0.3 - 0.5j], [0.3])),
                             dict(rank=4, sites=2, roots=([0.9, 0.3 - 0.5j], [], [0.3])),
                             "a scattering pole"),
    "own-level-plus-i": (dict(rank=2, sites=2, roots=([0.2, 0.2 + 1j],)),
                         dict(rank=3, sites=2, roots=([0.2], [0.2 + 1j])), "a scattering pole"),
    "own-level-minus-i": (dict(rank=3, sites=2, roots=([0.9], [0.2, 0.2 - 1j])),
                          dict(rank=3, sites=2, roots=([0.2 - 1j, 0.9], [0.2])),
                          "a scattering pole"),
    "impurity-plus-rank2": (dict(rank=2, sites=2, roots=([THETA - 0.5j],), defect_sign="+"),
                            dict(rank=2, sites=2, roots=([THETA - 0.5j],), defect_sign="-"),
                            "the impurity pole"),
    "impurity-minus-rank2": (dict(rank=2, sites=2, roots=([THETA + 0.5j],), defect_sign="-"),
                             dict(rank=2, sites=2, roots=([THETA + 0.5j],), defect_sign="+"),
                             "the impurity pole"),
    # from rank 3 on, '+' sits on level 1 and '-' on level rank-1
    "impurity-minus-rank3": (dict(rank=3, sites=2, roots=([0.8], [THETA + 0.5j]), defect_sign="-"),
                             dict(rank=3, sites=2, roots=([THETA + 0.5j], [0.8]), defect_sign="-"),
                             "the impurity pole"),
    "impurity-plus-rank3": (dict(rank=3, sites=2, roots=([THETA - 0.5j], [0.7]), defect_sign="+"),
                            dict(rank=3, sites=2, roots=([0.7], [THETA - 0.5j]), defect_sign="+"),
                            "the impurity pole"),
    "impurity-level2-minus": (
        dict(rank=3, sites=2, roots=([0.7], [THETA + 0.5j]), defect_sign="-"),
        dict(rank=4, sites=2, roots=([0.7], [THETA + 0.5j], [0.1]), defect_sign="-"),
        "the impurity pole"),
}


@pytest.mark.parametrize("on_pole, elsewhere, what", POLES.values(), ids=POLES.keys())
def test_guard_refuses_a_root_on_each_kind_of_factor_pole(on_pole, elsewhere, what):
    with pytest.raises(RootCollisionError, match=what):
        bae_residual(BetheState(theta=THETA, **on_pole))
    assert np.all(np.isfinite(bae_residual(BetheState(theta=THETA, **elsewhere))))


# ---------------------------------------------------------------------------
# counting function


def test_phase_is_odd():
    x = np.linspace(-3, 3, 11)
    assert np.allclose(phase(x, 1), -phase(-x, 1))
    assert np.allclose(phase(x, 2), -phase(-x, 2))


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
