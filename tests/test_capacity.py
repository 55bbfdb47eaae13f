import math

import numpy as np
import pytest

from gwising import (OffspringPmf, Tree, alpha_n, capacity_recursion,
                     expected_capacity_upper, gamma_profile, moments,
                     sample_inhomogeneous_bp)
from gwising.pruned_law import PrunedLawSampler
from gwising.tree import segment_sums
from gwising.validate import (_vertex_resistances, capacity_certificate,
                              capacity_spherical, flow_energy, random_small_tree,
                              uniform_flow)

from _frozen import CALIBRATED


def regular_tree(degree, depth):
    return Tree.from_offspring_counts(
        [np.full(degree**k, degree, dtype=np.int64) for k in range(depth)])


def path_tree(edges):
    return Tree.from_offspring_counts([np.array([1])] * edges)


def conservation_residuals(tree, theta):
    """theta(u) - sum_children theta(v) over internal vertices."""
    child_sum = segment_sums(theta[tree.num_roots:], tree.num_children)
    return (theta - child_sum)[tree.num_children > 0]


def kn_sum(resistance_base, nu, k_star, n, p):
    """K_n = sum_{k=1}^n R^{-ks} nu^{-(k ^ k*) s}, the comparison series for
    the mean-capacity bound."""
    s = 1.0 / (p - 1.0)
    k = np.arange(1, n + 1, dtype=float)
    return float(np.sum(resistance_base ** (-k * s)
                        * nu ** (-np.minimum(k, k_star) * s)))


def test_resistance_profiles():
    assert _vertex_resistances(path_tree(3), 0.5).tolist() == [1.0, 2.0, 4.0, 8.0]
    t = regular_tree(2, 2)
    assert _vertex_resistances(t, 0.5).tolist() == [1.0, 2.0, 2.0] + [4.0] * 4
    for base in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            _vertex_resistances(t, base)


@pytest.mark.parametrize("base", [0.0, -0.5, -math.inf, math.nan, math.inf])
@pytest.mark.parametrize("route", ["recursion", "certificate", "flow_energy"])
def test_bad_resistance_base_fails_closed(route, base):
    # each route checks the base, also on the single-vertex tree it
    # otherwise answers by convention
    for t in (regular_tree(2, 2), Tree.from_offspring_counts([np.zeros(1, dtype=np.int64)])):
        with pytest.raises(ValueError, match="resistance base"):
            if route == "recursion":
                capacity_recursion(t, base, 1.5)
            elif route == "certificate":
                capacity_certificate(t, base, 1.5)
            else:
                flow_energy(t, uniform_flow(t), base, 1.5)


def test_recursion_single_vertex_convention():
    t = Tree.from_offspring_counts([np.zeros(1, dtype=np.int64)])
    assert capacity_recursion(t, 1.0, 2.0)[0] == 1.0
    assert capacity_certificate(t, 1.0, 2.0) == (1.0, 1.0)
    # a childless root of a forest gets the same 1, in phi and in the roots
    forest = Tree.from_offspring_counts([np.array([0, 0, 2]), np.array([0, 0])])
    assert capacity_recursion(forest, 1.0, 2.0).tolist() == [1.0, 1.0, 2.0, math.inf, math.inf]
    assert capacity_recursion(forest, 1.0, 2.0, roots_only=True).tolist() == [1.0, 1.0, 2.0]


@pytest.mark.parametrize("edges", [1, 2, 5, 9])
def test_recursion_path_series_law(edges):
    assert capacity_recursion(path_tree(edges), 1.0, 2.0)[0] == pytest.approx(
        1.0 / edges, rel=1e-14)


def test_recursion_on_a_path_deeper_than_the_resistance_range():
    # base^{-n} overflows a double at n = 3,200, base 0.8; the capacity
    # 0.8^n (sum_{j<n} 0.8^{2j})^{-1/2} at p = 3/2 is subnormal
    n = 3200
    exact = 0.8**n * math.fsum(0.8 ** (2 * j) for j in range(n)) ** -0.5
    assert exact == pytest.approx(4.6356391776287e-311, rel=1e-12)
    assert capacity_recursion(path_tree(n), 0.8, 1.5)[0] == pytest.approx(exact, rel=1e-9)


def test_recursion_binary_depth2():
    assert capacity_recursion(regular_tree(2, 2), 1.0, 2.0)[0] == pytest.approx(
        4.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("p", [1.0, math.nan, math.inf])
@pytest.mark.parametrize("route", ["recursion", "certificate", "upper", "spherical",
                                   "alpha_n"])
def test_bad_capacity_order_fails_closed(route, p):
    tree = regular_tree(2, 2)
    with pytest.raises(ValueError, match="capacity order p must be finite and exceed 1"):
        if route == "recursion":
            capacity_recursion(tree, 0.8, p)
        elif route == "certificate":
            capacity_certificate(tree, 0.8, p)
        elif route == "upper":
            expected_capacity_upper([2.0, 4.0], 0.8, p)
        elif route == "spherical":
            capacity_spherical([2, 4], 0.8, p)
        else:
            # at criticality: nu tanh(beta) = 1
            alpha_n(math.atanh(0.5), 2.0, 0.1, 5, p)


def test_spherical_examples():
    assert capacity_spherical([5], 1.0, 2.0) == pytest.approx(5.0)
    assert capacity_spherical([2, 4], 1.0, 2.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        capacity_spherical([2, 3], 1.0, 2.0)  # 3 not divisible by 2
    for sizes in ([], 4):
        with pytest.raises(ValueError, match="list of generation sizes"):
            capacity_spherical(sizes, 1.0, 2.0)
    for base in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="resistance base"):
            capacity_spherical([2, 4], base, 2.0)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("base", [0.5, 1.0, 1.0 / math.tanh(0.8)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_spherical_matches_recursion_on_regular_trees(degree, base, p):
    depth = 8 if degree == 2 else 6
    t = regular_tree(degree, depth)
    sizes = [degree**k for k in range(1, depth + 1)]
    closed = capacity_spherical(sizes, base, p)
    assert capacity_recursion(t, base, p)[0] == pytest.approx(closed, rel=1e-10)


def test_spherical_binary_depth3_ising_weights():
    base = math.tanh(0.8)
    t = regular_tree(2, 3)
    sizes = [2, 4, 8]
    assert capacity_recursion(t, base, 1.5)[0] == pytest.approx(
        capacity_spherical(sizes, base, 1.5), rel=1e-10)


def test_uniform_flow_examples():
    path = path_tree(3)
    assert uniform_flow(path).tolist() == [1.0] * 4
    t = regular_tree(2, 2)
    theta = uniform_flow(t)
    assert theta.tolist() == [1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25]
    assert not theta.flags.writeable
    assert np.allclose(conservation_residuals(t, theta), 0.0)


def test_flow_energy_examples():
    path = path_tree(4)
    assert flow_energy(path, uniform_flow(path), 1.0, 2.0) == pytest.approx(4.0)
    t = regular_tree(2, 2)
    estimate = flow_energy(t, uniform_flow(t), 1.0, 2.0)
    assert estimate == pytest.approx(0.75)
    assert estimate == pytest.approx(1.0 / capacity_recursion(t, 1.0, 2.0)[0])
    with pytest.raises(ValueError, match="unit strength"):
        flow_energy(t, uniform_flow(t) * 2.0, 1.0, 2.0)
    # unit strength, but vertex 1 passes on 0.02 of its 0.5: the leak's
    # energy, 0.6252, would sit below the exact resistance 0.75
    leaking = np.array([1.0, 0.5, 0.5, 0.01, 0.01, 0.25, 0.25])
    assert conservation_residuals(t, leaking).tolist() == [0.0, 0.48, 0.0]
    with pytest.raises(ValueError, match="conserved"):
        flow_energy(t, leaking, 1.0, 2.0)


def test_certificate_examples():
    # series and series-parallel laws, and a tree of 511 vertices
    for t, exact in ((path_tree(5), 0.2), (regular_tree(2, 2), 4.0 / 3.0),
                     (regular_tree(2, 8), capacity_spherical(2 ** np.arange(1, 9), 1.0, 2.0))):
        lower, upper = capacity_certificate(t, 1.0, 2.0)
        assert lower == pytest.approx(exact, rel=1e-12)
        assert upper == pytest.approx(exact, rel=1e-12)
    with pytest.raises(ValueError, match="single tree"):
        capacity_certificate(Tree.from_offspring_counts([np.array([1, 2])]), 1.0, 2.0)


def test_certificate_gap_opens_under_one_wrong_phi(monkeypatch):
    # phi of vertex 1, which has a sibling, 1% off: the flow leaves the
    # optimum, and the duality gap opens
    from gwising import capacity
    recursion = capacity.capacity_recursion
    t = regular_tree(2, 3)
    for p in (1.5, 2.0, 3.0):
        lower, upper = capacity_certificate(t, 0.8, p)
        assert upper - lower <= 1e-12 * upper

    def one_wrong(tree, base, p):
        phi = recursion(tree, base, p)
        phi[1] *= 1.01
        return phi

    monkeypatch.setattr(capacity, "capacity_recursion", one_wrong)
    for p in (1.5, 2.0, 3.0):
        lower, upper = capacity_certificate(t, 0.8, p)
        assert upper - lower > 1e-12 * upper


def test_certificate_leaves_a_scaled_contraction_outside(monkeypatch, rng):
    # every contraction 1e-6 low: the flow splits as before, so the bracket
    # stays tight, but the recursion's root falls below it
    from gwising import capacity
    contraction = capacity._contraction
    monkeypatch.setattr(capacity, "_contraction",
                        lambda phi, s: contraction(phi, s) * (1.0 - 1e-6))
    t = random_small_tree(rng, max_vertices=120, max_depth=5)
    for p in (1.5, 2.0, 3.0):
        lower, upper = capacity_certificate(t, 0.8, p)
        assert upper - lower <= 1e-12 * upper
        assert capacity_recursion(t, 0.8, p)[0] < lower * (1.0 - 1e-12)


@pytest.mark.parametrize("p", [1.001, 1000.0])
def test_certificate_refuses_orders_whose_sums_leave_the_double_range(p):
    # every energy term of the ternary tree underflows at p = 1.001, and the
    # capacity itself at p = 1000: the plain sums would give nan
    with pytest.raises(ValueError, match=f"at p = {p}"):
        capacity_certificate(regular_tree(3, 6), 0.8, p)
    # one edge of resistance 2.065^{-1}: its energy 2.065^{-1000} is a
    # subnormal of a few digits, though the capacity 2.065 is in range
    with pytest.raises(ValueError, match="at p = 1.001"):
        capacity_certificate(path_tree(1), 2.065, 1.001)
    # on the binary tree at p = 1.001 the terms of generation 1 stay in range,
    # where R_u^s and theta(u)^q alone overflow and underflow
    lower, upper = capacity_certificate(regular_tree(2, 6), 0.8, 1.001)
    assert lower == pytest.approx(1.6, rel=1e-12) and upper == pytest.approx(1.6, rel=1e-12)


def test_recursion_vs_oracle_and_order_monotonicity(rng):
    orders = (1.5, 2.0, 3.0)
    for _ in range(8):
        t = random_small_tree(rng, max_vertices=120, max_depth=5)
        base = float(rng.uniform(0.5, 1.5))
        caps = []
        for p in orders:
            exact = capacity_recursion(t, base, p)[0]
            lower, upper = capacity_certificate(t, base, p)
            assert lower <= exact * (1 + 1e-12) and exact <= upper * (1 + 1e-12)
            assert upper - lower <= 1e-12 * upper
            # Thomson: every admissible flow's estimate dominates the truth
            estimate = flow_energy(t, uniform_flow(t), base, p)
            assert estimate >= 1.0 / exact - 1e-10
            caps.append(exact)
        assert caps[0] >= caps[1] >= caps[2]


def test_routes_agree_on_tree_with_internal_leaf():
    # an internal leaf is a boundary contact too: both routes treat it the same
    t = Tree.from_offspring_counts([np.array([2]), np.array([2, 0])])
    for p in (1.5, 2.0, 3.0):
        exact = capacity_recursion(t, 1.0, p)[0]
        lower, upper = capacity_certificate(t, 1.0, p)
        assert exact == pytest.approx(lower, rel=1e-12)
        assert exact == pytest.approx(upper, rel=1e-12)
    # at p = 2: the internal leaf is one unit resistor in parallel with a
    # series-parallel branch of resistance 1 + 1/2
    assert capacity_recursion(t, 1.0, 2.0)[0] == pytest.approx(1 + 2 / 3)


def test_phi_envelope_on_contracting_resistances(rng, half13):
    from gwising import sample_gw
    t = sample_gw(half13, 6, rng)
    phi = capacity_recursion(t, 0.7, 1.5)
    internal = t.num_children > 0
    assert np.all(phi[internal] <= 0.7 * t.num_children[internal] + 1e-12)


@pytest.mark.parametrize("bad", [1.0 + 2.0**-52, math.nan])
@pytest.mark.parametrize("roots_only", [False, True])
def test_envelope_guard_refuses_a_contraction_above_one_or_nan(monkeypatch, bad, roots_only):
    # one contraction past 1, or one NaN, among the correct ones
    from gwising import capacity
    contraction = capacity._contraction

    def one_bad(phi, s):
        out = contraction(phi, s)
        out[-1] = bad
        return out

    monkeypatch.setattr(capacity, "_contraction", one_bad)
    with pytest.raises(FloatingPointError, match="R \\* degree envelope"):
        capacity_recursion(regular_tree(2, 3), 0.7, 1.5, roots_only=roots_only)


def test_expected_capacity_upper_examples():
    assert expected_capacity_upper([3.0], 0.5, 2.0) == pytest.approx(1.5)
    # geometric growth: finite large-n limit when R nu > 1
    nu, base = 2.0, 0.9
    long = expected_capacity_upper(nu ** np.arange(1, 400), base, 2.0)
    s = 1.0
    limit = ((base * nu) ** s - 1.0) ** (1.0 / s)
    assert long == pytest.approx(limit, rel=1e-6)


def test_alpha_n_examples():
    beta = math.atanh(2.0 / 2.0 / 2.0)  # tanh beta = 0.5
    # tanh(beta) nu = 2 with nu = 4: alpha_n = 1 for p_n = 2^{-n}
    assert alpha_n(beta, 4.0, 2.0**-7, 7, 2.0) == pytest.approx(1.0)
    # criticality with q = 2: min(n^{-1}, p_n)
    beta_c = math.atanh(1.0 / 2.0)
    assert alpha_n(beta_c, 2.0, 1.0 / math.sqrt(16.0), 16, 2.0) == pytest.approx(1.0 / 16.0)
    # subcritical decay
    assert alpha_n(0.2, 2.0, 0.01, 5, 2.0) == pytest.approx(
        0.01 * (2 * math.tanh(0.2)) ** 5)


def test_mean_capacity_dominated_by_bound(rng):
    # inhomogeneous branching process: empirical mean against the bound
    laws = [OffspringPmf.from_dict({1: 0.5, 2: 0.5})] * 3 + [OffspringPmf.dirac(1)] * 3
    base = math.tanh(0.8)
    reps = 1500
    values = np.empty(reps)
    for i in range(reps):
        t = sample_inhomogeneous_bp(laws, rng)
        values[i] = capacity_recursion(t, base, 2.0)[0]
    m_0k = np.cumprod([law.mean() for law in laws])
    bound = expected_capacity_upper(m_0k, base, 2.0)
    se = values.std(ddof=1) / math.sqrt(reps)
    assert values.mean() <= bound + 3 * se


def test_kn_bracket_with_frozen_growth_constants(dirac2):
    # c8^{-s} K_n <= sum (R^k M*_{0,k})^{-s} <= c7'^{-s} K_n
    constants = CALIBRATED["dirac2"]
    p = 2.0
    s = 1.0 / (p - 1.0)
    base = math.tanh(0.8)
    for n, p_n in ((20, 2.0**-10), (40, 2.0**-12)):
        profile = gamma_profile(dirac2, p_n, n)
        series = float(np.sum((base ** np.arange(1, n + 1) * profile.m_0k[1:]) ** -s))
        k_n = kn_sum(base, 2.0, profile.k_star, n, p)
        assert series >= constants["c8"] ** -s * k_n * (1 - 1e-9)
        assert series <= constants["c7_prime"] ** -s * k_n * (1 + 1e-9)


def test_population_martingale_and_q_moment_bound(rng, dirac2):
    # W_{0,n} = |T*_n| / M*_{0,n} has mean 1; E[W^q] <= v*_{0,n}; and the
    # small-W tail shrinks with epsilon (reported as a monotone table)
    n, p_n, q = 10, 2.0**-4, 2.0
    profile = gamma_profile(dirac2, p_n, n)
    _, v_kn = moments(profile, q)
    sampler = PrunedLawSampler(profile)
    reps = 3000
    w = np.empty(reps)
    for i in range(reps):  # the sampler conditions on survival, as the theory does
        w[i] = sampler.sample(rng).generation_size(n) / profile.m_0k[n]
    se = w.std(ddof=1) / math.sqrt(reps)
    assert abs(w.mean() - 1.0) < 4 * se
    q_moment = float((w**q).mean())
    q_se = (w**q).std(ddof=1) / math.sqrt(reps)
    assert q_moment <= v_kn[0] + 3 * q_se
    eps_grid = [0.4, 0.2, 0.1, 0.05]
    tail = [(w <= eps).mean() for eps in eps_grid]
    print("small-W tail table:", dict(zip(eps_grid, tail)))
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize("p", [1.001, 1.0001])
def test_path_capacity_as_p_tends_to_one(p):
    # a 10-edge path with base 0.8: 0.8^10 (sum_{j<10} 0.8^{js})^{-1/s}, where
    # x^{-s} and the plain power sum overflow and used to give 0
    s = 1.0 / (p - 1.0)
    exact = 0.8**10 * math.fsum(0.8 ** (j * s) for j in range(10)) ** (-1.0 / s)
    assert capacity_recursion(path_tree(10), 0.8, p)[0] == pytest.approx(exact, rel=1e-12)
    assert capacity_spherical(np.ones(10), 0.8, p) == pytest.approx(exact, rel=1e-12)
    # the bound's power sum underflows to 0: its limit is min_k R^k M_{0,k}
    m = 1.5 ** np.arange(1, 23)
    assert expected_capacity_upper(m, 0.8, p) == pytest.approx(
        float(np.min(0.8 ** np.arange(1, 23) * m)), rel=0.01)
