import math

import numpy as np
import pytest

from gwising import (FieldMode, OffspringPmf, Tree, g_beta,
                     lyons_field, lyons_plus, magnetization, plus_boundary_field,
                     sample_field, sample_gw, sample_inhomogeneous_bp,
                     upper_bound_mean_r)
from gwising.ising import critical_fixed_point
from gwising.tree import segment_sums
from gwising.validate import gibbs_bruteforce, random_small_tree



def g_beta_logaddexp_form(beta, x):
    """Algebraically identical g as a difference of two logaddexp terms: an
    independent oracle for finite x away from 0, where it cancels."""
    x = np.asarray(x, dtype=float)
    return np.logaddexp(2.0 * beta + x, 0.0) - np.logaddexp(2.0 * beta, x)


def single_vertex():
    return Tree.from_offspring_counts([np.zeros(1, dtype=np.int64)])


def field_on(bits):
    return np.array(bits, dtype=np.uint8)


def test_g_beta_fixed_points():
    for beta in (0.3, 1.0, 2.5):
        assert g_beta(beta, 0.0) == 0.0
        assert g_beta(beta, math.inf) == 2 * beta


def test_g_beta_matches_logaddexp_form():
    x = np.linspace(0.01, 40, 400)
    for beta in (0.2, 0.8, 1.5):
        assert np.allclose(g_beta(beta, x), g_beta_logaddexp_form(beta, x), atol=1e-12)


def test_g_beta_keeps_relative_precision_at_small_x():
    # g(x) = tanh(beta) x (1 + O(x^2)): the O(x^2) term is below 1e-16 here
    x = 10.0 ** -np.arange(8.0, 300.0, 0.5)
    for beta in (0.05, 0.8, math.atanh(0.8), 3.0):
        rel = g_beta(beta, x) / (math.tanh(beta) * x) - 1.0
        assert np.all(np.abs(rel) <= 1e-15)


def test_g_beta_stays_accurate_at_large_beta():
    # tanh(beta) rounds to 1 for beta above ~19; g must still approach 2 beta
    # from below, as the logaddexp form (accurate at x >= 1) does
    x = np.linspace(1.0, 120.0, 500)
    for beta in (8.0, 19.0, 25.0):
        g = g_beta(beta, x)
        assert np.all(np.isfinite(g)) and np.all(g <= 2 * beta)
        assert np.allclose(g, g_beta_logaddexp_form(beta, x), rtol=1e-14, atol=0)


def test_g_beta_increasing_concave_and_sandwiched():
    x = np.linspace(0.0, 50, 2001)
    for beta in (0.3, 0.8, 1.4):
        g = g_beta(beta, x)
        assert np.all(np.diff(g) >= -1e-14)  # saturation plateau rounds by ulps
        assert np.all(np.diff(g, 2) <= 1e-12)
        assert np.all(g <= math.tanh(beta) * x + 1e-12)
        # lower envelope tanh(beta) x / (1 + c x^2)^{1/2} for a fitted c > 0
        pos = x[1:]
        ratio = math.tanh(beta) * pos / g_beta(beta, pos)
        c_fit = float(np.max((ratio**2 - 1) / pos**2))
        assert c_fit > 0
        assert np.all(g_beta(beta, pos)
                      >= math.tanh(beta) * pos / np.sqrt(1 + c_fit * pos**2) - 1e-12)


def test_g_beta_value_bracket_at_one():
    val = g_beta(1.0, 1.0)
    assert 0 < val < math.tanh(1.0)


@pytest.mark.parametrize("beta", [-0.5, math.nan])
@pytest.mark.parametrize("route", ["g_beta", "lyons_field", "lyons_plus"])
def test_bad_inverse_temperature_fails_closed(route, beta):
    t = Tree.from_offspring_counts([np.array([2]), np.array([1, 2])])
    with pytest.raises(ValueError, match="inverse temperature must be nonnegative"):
        if route == "g_beta":
            g_beta(beta, 1.0)
        elif route == "lyons_field":
            lyons_field(t, field_on([0, 0, 1, 1, 0, 1]), beta)
        else:
            lyons_plus(t, beta)


@pytest.mark.parametrize("beta", [-1.0, math.nan])
@pytest.mark.parametrize("route", ["g_beta", "lyons_field", "lyons_plus",
                                   "upper_bound_mean_r", "critical_fixed_point"])
def test_bad_inverse_temperature_fails_closed_where_nothing_is_lifted(route, beta):
    # on one vertex the sweep lifts nothing, so only the entry point's own
    # check can refuse beta: lyons_field gave [-2.] and [nan], lyons_plus
    # [inf] and upper_bound_mean_r nan
    t = single_vertex()
    calls = {
        "g_beta": lambda: g_beta(beta, 0.0),
        "lyons_field": lambda: lyons_field(t, field_on([1]), beta),
        "lyons_plus": lambda: lyons_plus(t, beta),
        "upper_bound_mean_r": lambda: upper_bound_mean_r(beta, 2.0, 0.1, 5),
        "critical_fixed_point": lambda: critical_fixed_point(beta, 2.0, 0.1),
    }
    with pytest.raises(ValueError, match="inverse temperature must be nonnegative"):
        calls[route]()


def test_lyons_plus_examples():
    assert lyons_plus(single_vertex(), 0.7)[0] == math.inf
    path = Tree.from_offspring_counts([np.array([1])])
    assert lyons_plus(path, 0.7)[0] == pytest.approx(1.4)
    cherry = Tree.from_offspring_counts([np.array([2])])
    assert lyons_plus(cherry, 0.7)[0] == pytest.approx(2.8)


def test_lyons_field_examples():
    t = Tree.from_offspring_counts([np.array([2]), np.array([1, 2])])
    zero = field_on([0] * t.num_vertices)
    assert np.all(lyons_field(t, zero, 0.9) == 0.0)
    one = single_vertex()
    assert lyons_field(one, field_on([1]), 0.9)[0] == pytest.approx(1.8)
    path = Tree.from_offspring_counts([np.array([1])])
    fld = field_on([0, 1])
    assert lyons_field(path, fld, 0.8)[0] == pytest.approx(g_beta(0.8, 1.6))
    _, r_brute = gibbs_bruteforce(path, fld, 0.8)
    assert lyons_field(path, fld, 0.8)[0] == pytest.approx(r_brute, abs=1e-10)


def lyons_field_zero_then_mask(tree, fld, beta):
    """The set-up lyons_field had before it started from a copy of the bias:
    zeros, with the bias copied onto the childless vertices, swept densely,
    the bias of each vertex above the bottom added after its child sum.  Its
    internal vertices start at 0 rather than at their bias, which the sweep
    that skips zero children does not allow."""
    bias = 2.0 * beta * fld.astype(float)
    offsets = tree.gen_offsets.tolist()
    r = np.zeros(tree.num_vertices)
    r[offsets[-2]:] = bias[offsets[-2]:]
    for k in range(tree.n - 1, -1, -1):
        cur = slice(offsets[k], offsets[k + 1])
        sums = segment_sums(g_beta(beta, r[offsets[k + 1]:offsets[k + 2]]),
                            tree.num_children[cur])
        r[cur] = bias[cur] + sums
    return r


@pytest.mark.parametrize("mode", [FieldMode.LEAVES_ONLY, FieldMode.WHOLE_TREE])
@pytest.mark.parametrize("seed", range(6))
def test_lyons_field_matches_zero_then_mask_setup_bitwise(mode, seed):
    # mass at 0 leaves childless vertices above the bottom generation
    dying = OffspringPmf.from_dict({0: 0.25, 1: 0.25, 2: 0.3, 3: 0.2})
    rng = np.random.default_rng(seed)
    forest = sample_inhomogeneous_bp([dying] * 7, rng, roots=40)
    assert not forest.leaves_only_at_bottom
    beta = float(rng.uniform(0.1, 2.0))
    fld = sample_field(forest, mode, 0.3, rng)
    got = lyons_field(forest, fld, beta)
    assert got.tobytes() == lyons_field_zero_then_mask(forest, fld, beta).tobytes()


def test_magnetization_examples():
    assert magnetization(0.0) == 0.0
    assert magnetization(math.inf) == 1.0
    assert magnetization(1.0) == pytest.approx(math.tanh(0.5))


@pytest.mark.parametrize("r", [math.nan, -math.inf, math.inf])
def test_scalar_magnetization_agrees_with_the_array_path_off_the_finite_line(r):
    # a nan ratio must not read as a fully magnetized root; finite ratios may
    # differ in the last bit, as math.tanh and np.tanh do
    m, m_array = magnetization(r), magnetization(np.array([r]))[0]
    assert m == m_array or (math.isnan(m) and math.isnan(m_array))


def test_bruteforce_single_site():
    one = single_vertex()
    m, r = gibbs_bruteforce(one, field_on([0]), 1.3)
    assert m == 0.0 and r == 0.0
    m, r = gibbs_bruteforce(one, field_on([1]), 1.0)
    assert m == pytest.approx(math.tanh(1.0))
    assert r == pytest.approx(2.0)


def test_bruteforce_size_guard():
    t = Tree.from_offspring_counts([np.array([5]), np.full(5, 5)])
    with pytest.raises(ValueError):
        gibbs_bruteforce(t, None, 0.5)


def test_bruteforce_plus_boundary_condition_matches_lyons_plus(rng, half12):
    # sample_gw trees have their leaves at the bottom only; a law with mass
    # at 0 also gives leaves above it, which the boundary pins to +1 as well
    with_early_leaves = OffspringPmf.from_dict({0: 0.3, 1: 0.3, 2: 0.4})
    early_leaf_trees = 0
    for i in range(50):
        depth = int(rng.integers(1, 4))
        if i % 2:
            t = sample_inhomogeneous_bp([with_early_leaves] * depth, rng)
        else:
            t = sample_gw(half12, depth, rng)
        if t.num_vertices > 16:
            continue
        early_leaf_trees += not t.leaves_only_at_bottom
        beta = float(rng.uniform(0.2, 1.2))
        r_rec = lyons_plus(t, beta)[0]
        _, r_brute = gibbs_bruteforce(t, None, beta, plus_boundary_condition=True)
        assert r_rec == pytest.approx(r_brute, abs=1e-10)
    assert early_leaf_trees >= 5


def test_oracle_equivalence_sweep(rng):
    # module-scale version of the acceptance sweep
    betas = (0.3, 0.7, 1.2)
    modes = (FieldMode.WHOLE_TREE, FieldMode.LEAVES_ONLY, None)
    for i in range(60):
        t = random_small_tree(rng)
        mode, p = modes[i % 3], float(rng.uniform(0.1, 0.9))
        fld = plus_boundary_field(t) if mode is None else sample_field(t, mode, p, rng)
        beta = betas[i % len(betas)]
        r = lyons_field(t, fld, beta)[0]
        m_brute, r_brute = gibbs_bruteforce(t, fld, beta)
        assert abs(r - r_brute) <= 1e-10
        assert abs(magnetization(r) - m_brute) <= 1e-10


def test_bruteforce_chunks_combine_to_one_pass(rng):
    # chunk 1 leaves one root sign out of every chunk; chunk 3 splits both
    for _ in range(10):
        t = random_small_tree(rng, max_vertices=9)
        fld = sample_field(t, FieldMode.WHOLE_TREE, 0.4, rng)
        _, r = gibbs_bruteforce(t, fld, 0.9)
        for chunk in (1, 3):
            _, r_c = gibbs_bruteforce(t, fld, 0.9, chunk=chunk)
            assert r_c == pytest.approx(r, rel=1e-13, abs=1e-13)


def test_gks_ordering(rng, half12):
    for _ in range(20):
        t = sample_gw(half12, 4, rng)
        beta = float(rng.uniform(0.3, 1.2))
        r_plus_bc = lyons_plus(t, beta)
        r_plus_field = lyons_field(t, plus_boundary_field(t), beta)
        fld = sample_field(t, FieldMode.LEAVES_ONLY, 0.4, rng)
        r_field = lyons_field(t, fld, beta)
        assert np.all(r_plus_bc >= r_plus_field - 1e-12)
        assert np.all(r_plus_field >= r_field - 1e-12)
        assert np.all(r_field >= 0.0)


def test_upper_bound_zero_field():
    assert upper_bound_mean_r(0.9, 2.0, 0.0, 12) == 0.0


def test_upper_bound_subcritical_geometric_sum():
    beta, nu, p = 0.2, 2.0, 0.01  # nu tanh beta < 1
    assert nu * math.tanh(beta) < 1
    bound = upper_bound_mean_r(beta, nu, p, 50)
    assert bound <= 2 * beta * p / (1 - nu * math.tanh(beta)) + 1e-15


def test_critical_fixed_point_residual_and_scaling():
    # The bound value is the exact fixed point of f(x) = 2 beta p + nu g(x).
    # At criticality the gap x - nu g(x) is cubic at the origin (g is odd to
    # second order), so the fixed point scales like p^{1/3}: the cube-root
    # ratio is stable and matches the series coefficient nu T (1-T^2)/12.
    nu = 2.0
    beta = math.atanh(1.0 / nu)
    tanh_b = 1.0 / nu
    predicted = (2 * beta * 12 / (nu * tanh_b * (1 - tanh_b**2))) ** (1 / 3)
    for p in (1e-3, 1e-4, 1e-5, 1e-6):
        x = critical_fixed_point(beta, nu, p)
        residual = abs(2 * beta * p + nu * g_beta(beta, x) - x)
        assert residual <= 1e-11
        assert x / p ** (1 / 3) == pytest.approx(predicted, rel=0.05)
    bound = upper_bound_mean_r(beta, nu, 1e-4, 30)
    assert bound == pytest.approx(max(2 * beta * 1e-4,
                                      critical_fixed_point(beta, nu, 1e-4)))


@pytest.mark.parametrize("beta,regime", [(0.2, "sub"), (math.atanh(0.5), "crit"),
                                         (0.9, "super")])
def test_mean_r_dominated_by_bound(rng, half12, beta, regime):
    # whole-tree field, modest depth: the empirical mean respects the bound
    nu, n, p, reps = half12.mean(), 6, 0.05, 400
    values = np.empty(reps)
    for i in range(reps):
        t = sample_gw(half12, n, rng)
        fld = sample_field(t, FieldMode.WHOLE_TREE, p, rng)
        values[i] = lyons_field(t, fld, beta)[0]
    se = values.std(ddof=1) / math.sqrt(reps)
    assert values.mean() <= upper_bound_mean_r(beta, nu, p, n) + 3 * se
