import itertools
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from gwising import (FieldMode, OffspringPmf, PmfError, Tree,
                     calibrate_constants, gamma_profile, moments, mu_star,
                     prune, sample_gw, sample_field, tv_profile,
                     ztb_mixture)
from gwising.pruned_law import (LINEAR_UNDERFLOW, PrunedLawSampler,
                                fit_g_upper_constant, k1_bar_star, tv_crossing)
from gwising.validate import enumerate_trees, pruned_tree_probability, tilde_mu0, tv_distance

from _frozen import CALIBRATED
from test_distributions import log_gf_by_arrays


def test_profile_rejects_degenerate_mark_probability(dirac2):
    with pytest.raises(ValueError):
        gamma_profile(dirac2, 0.0, 5)
    with pytest.raises(PmfError):
        gamma_profile(OffspringPmf.from_dict({0: 0.2, 2: 0.8}), 0.5, 5)


def test_profile_p_one_prunes_nothing(half12):
    profile = gamma_profile(half12, 1.0, 6)
    assert np.all(profile.gamma == 0.0)
    assert np.all(profile.gamma[::-1] == 0.0)


def test_arrays_stay_read_only_after_a_pickle_round_trip(half12):
    # a sampler pickled with its law table built
    back = pickle.loads(pickle.dumps(PrunedLawSampler(gamma_profile(half12, 0.01, 8))))
    profile = back.profile
    assert "laws" in profile.__dict__
    tree = pickle.loads(pickle.dumps(back.sample(np.random.default_rng(0), roots=3)))
    arrays = [profile.gamma, profile.one_minus_gamma, profile.log_gamma,
              profile.log_one_minus_gamma, profile.laws.masses,
              profile.pmf.degrees, profile.pmf.probs, tree.gen_offsets, tree.num_children]
    arrays += [arr for law in profile.laws for arr in (law.degrees, law.probs)]
    assert not any(arr.flags.writeable for arr in arrays)


def test_profile_arrays_are_read_only(half13):
    p_n = 0.37
    profile = gamma_profile(half13, p_n, 12)
    for arr in (profile.gamma, profile.one_minus_gamma, profile.log_gamma,
                profile.log_one_minus_gamma):
        assert not arr.flags.writeable
    # the leaves are generation n, where 1 - gamma_n is the mark probability
    assert profile.one_minus_gamma[-1] == p_n


def test_profile_dirac2_small(dirac2):
    profile = gamma_profile(dirac2, 0.5, 2)
    assert profile.gamma[::-1].tolist() == [0.5, 0.25, 0.0625]
    assert profile.gamma.tolist() == [0.0625, 0.25, 0.5]
    assert profile.one_minus_gamma[::-1] == pytest.approx([0.5, 0.75, 0.9375])


def test_profile_iteration_identity(half13):
    g_bar = gamma_profile(half13, 0.37, 12).gamma[::-1]
    for k in range(1, 13):
        assert g_bar[k] == half13.gf(g_bar[k - 1])


def test_profile_monotone(half13, dirac2):
    for pmf, p in ((half13, 0.1), (dirac2, 0.6), (half13, 0.9)):
        profile = gamma_profile(pmf, p, 15)
        assert np.all(np.diff(profile.gamma[::-1]) <= 1e-15)
        assert np.all(np.diff(profile.gamma) >= -1e-15)
        assert np.all((profile.gamma >= 0) & (profile.gamma <= 1))


def test_profile_dirac2_closed_form_in_log_space(dirac2):
    # gamma_bar_k = (1-p)^{2^k}, far below linear underflow for large k
    p = 0.5
    profile = gamma_profile(dirac2, p, 20)
    for k in range(21):
        expected = 2.0**k * math.log1p(-p)
        assert profile.log_gamma[::-1][k] == pytest.approx(expected, rel=1e-12)
    assert profile.gamma[::-1][20] == 0.0  # linear track underflowed to zero


def test_profile_log_one_minus_track_below_underflow(half12):
    # p_n so small that 1 - gamma_bar underflows the linear track entirely
    p = 1e-320
    profile = gamma_profile(half12, p, 8)
    nu = half12.mean()
    for k in range(9):
        assert profile.log_one_minus_gamma[::-1][k] == pytest.approx(
            math.log(1e-320) + k * math.log(nu), rel=1e-12)


def test_sampler_builds_below_linear_underflow(rng, half12):
    # 1 - gamma_bar below LINEAR_UNDERFLOW: nu*_k comes from the log track,
    # not from a ratio of subnormals
    profile = gamma_profile(half12, 1e-320, 12)
    assert all(law.mean() == pytest.approx(1.0, abs=1e-12) for law in profile.laws)
    tree = PrunedLawSampler(profile).sample(rng)
    assert tree.n == 12 and tree.leaves_only_at_bottom


def _round_bits(x: Fraction, bits: int = 400) -> Fraction:
    """x rounded to ``bits`` significant bits."""
    shift = bits - (x.numerator.bit_length() - x.denominator.bit_length())
    if shift >= 0:
        return Fraction(round(x * (1 << shift)), 1 << shift)
    return Fraction(round(x / (1 << -shift)) << -shift)


def _log_fraction(x: Fraction) -> float:
    if x > Fraction(1, 2):
        return math.log1p(-float(1 - x))
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return math.log(float(x / Fraction(2) ** e)) + e * math.log(2.0)


def gamma_bar_oracle(pmf, p_n, n):
    """gamma_bar_k = G(gamma_bar_{k-1}) from 1 - p_n in rational arithmetic,
    rounded to 400 significant bits per step.  1 - gamma_bar loses at most
    log2(1/p_n) + n log2(nu) of them, which leaves over 200 bits in the cases
    below."""
    terms = [(int(d), Fraction(float(q))) for d, q in zip(pmf.degrees, pmf.probs)]
    g_bar = [1 - Fraction(p_n)]
    for _ in range(n):
        g_bar.append(_round_bits(sum(q * g_bar[-1] ** d for d, q in terms)))
    return g_bar


@pytest.mark.parametrize("law, p_n, n", [
    ("half12", 1.2**-100, 100),
    ("half12", 1.2**-200, 200),
    ("dirac2", 1.6**-50, 50),
])
def test_profile_matches_rational_oracle(law, p_n, n):
    pmf = {"half12": OffspringPmf.from_dict({1: 0.5, 2: 0.5}),
           "dirac2": OffspringPmf.dirac(2)}[law]
    profile = gamma_profile(pmf, p_n, n)
    for k, g_bar in enumerate(gamma_bar_oracle(pmf, p_n, n)):
        t = float(1 - g_bar)
        assert abs(profile.one_minus_gamma[::-1][k] - t) <= 1e-14 * t, k
        # gamma_bar is doubly-exponentially small for dirac2; its log carries
        # it, and an error of the log is a relative error of gamma_bar
        log_g = _log_fraction(g_bar)
        tol = 1e-14 * max(1.0, abs(log_g))
        assert abs(profile.log_gamma[::-1][k] - log_g) <= tol, k
        if g_bar >= Fraction(np.finfo(float).tiny):
            assert abs(profile.gamma[::-1][k] - float(g_bar)) <= tol * float(g_bar), k


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=64),
                       st.floats(min_value=1e-3, max_value=1.0),
                       min_size=1, max_size=5),
       st.floats(min_value=-1000.0, max_value=0.0),
       st.integers(min_value=1, max_value=1000))
# a Dirac-60 law with t near 1/2 after one F step, where F(t) rounds to 1
@example({60: 1.0}, math.log2(1.0 - 0.51 ** (1 / 60)), 4)
def test_profile_property_over_small_mark_probabilities(masses, log2_p, n):
    total = sum(masses.values())
    pmf = OffspringPmf.from_dict({d: w / total for d, w in masses.items()})
    p_n = 2.0**log2_p
    profile = gamma_profile(pmf, p_n, n)
    g_bar, t_bar = profile.gamma[::-1], profile.one_minus_gamma[::-1]
    log_g = profile.log_gamma[::-1]
    assert np.all(np.isfinite(profile.log_one_minus_gamma[::-1]))
    # log gamma_bar >= d_max^k log(1 - p_n) stays finite for d_max <= 2 and
    # n <= 1000; beyond that it may pass the double range, and is then -inf
    # with gamma_bar == 0
    assert not np.any(np.isnan(log_g))
    assert np.all(g_bar[log_g == -math.inf] == 0.0)
    if pmf.max_degree <= 2 and p_n < 1.0:
        assert np.all(np.isfinite(log_g))
    normal = (g_bar >= np.finfo(float).tiny) & (t_bar >= np.finfo(float).tiny)
    assert np.all(np.abs(g_bar[normal] + t_bar[normal] - 1.0) <= math.ulp(1.0))


def test_profile_past_the_log_range_raises_no_warning():
    # log gamma_bar grows 30-fold a generation and passes -max float at the
    # last generation; it is then the documented -inf, with gamma_bar = 0
    pmf = OffspringPmf.dirac(30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = gamma_profile(pmf, 0.5, 209)
        assert pmf.log_gf(-1e307) == -math.inf
    assert np.isfinite(profile.log_gamma[::-1][-2])
    assert profile.log_gamma[::-1][-1] == -math.inf and profile.gamma[::-1][-1] == 0.0


def gamma_profile_per_step(pmf, p_n, n):
    """The recursion of ``gamma_profile`` as numpy arrays indexed at every
    step, each F, G and log G step on the 0-d array path."""
    nu = pmf.mean()
    log_nu = math.log(nu)
    log_floor = math.log(LINEAR_UNDERFLOW)
    g, t, lg, lt = np.empty((4, n + 1))
    g[0], t[0] = 1.0 - p_n, p_n
    lg[0] = math.log1p(-p_n) if p_n < 1.0 else -math.inf
    lt[0] = math.log(p_n)
    for k in range(1, n + 1):
        if nu * t[k - 1] < 0.5:
            if lt[k - 1] < log_floor:
                lt[k] = lt[k - 1] + log_nu
                t[k] = math.exp(lt[k])
            else:
                t[k] = pmf.one_minus_gf_at_one_minus(np.asarray(t[k - 1]))
                lt[k] = math.log(t[k])
            g[k], lg[k] = 1.0 - t[k], math.log1p(-t[k])
        else:
            if pmf.max_degree * float(lg[k - 1]) < log_floor:
                lg[k] = log_gf_by_arrays(pmf, float(lg[k - 1]))
                g[k] = math.exp(lg[k])
            else:
                g[k] = pmf.gf(np.asarray(g[k - 1]))
                lg[k] = math.log(g[k])
            t[k], lt[k] = 1.0 - g[k], math.log1p(-g[k])
    return g, t, lg, lt


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=30),
                       st.floats(min_value=1e-3, max_value=1.0),
                       min_size=1, max_size=6),
       st.one_of(st.sampled_from([1.0, 0.5, 2.0**-15, 1e-300, 2.0**-1074]),
                 st.floats(min_value=-1074.0, max_value=0.0).map(lambda e: 2.0**e)),
       st.integers(min_value=1, max_value=400))
def test_profile_and_means_match_per_step_forms_bitwise(masses, p_n, n):
    total = sum(masses.values())
    pmf = OffspringPmf.from_dict({d: w / total for d, w in masses.items()})
    profile = gamma_profile(pmf, p_n, n)
    expected = gamma_profile_per_step(pmf, p_n, n)
    got = (profile.gamma[::-1], profile.one_minus_gamma[::-1], profile.log_gamma[::-1],
           profile.log_one_minus_gamma[::-1])
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
    # the array forms of nu*_k and M*_{0,k} are the per-entry accessor's values
    assert profile.nu_star.tolist() == [profile.mean_generation_size(k, k + 1)
                                        for k in range(n)]
    assert profile.m_0k.tolist() == [profile.mean_generation_size(0, k)
                                     for k in range(n + 1)]
    if n <= 60 and pmf.max_degree <= 12:
        for q in (1.5, 2.0):
            assert moments(profile, q)[0].tolist() == [
                law.q_variance(q) for law in profile.laws]


def test_gamma_bar_equals_mark_free_generating_function(half12):
    # independent oracle: gamma_bar_k = E[(1-p)^{|T_k|}] with |T_k| from the
    # exhaustive tree enumeration
    p, k = 0.3, 3
    expected = sum(prob * (1 - p) ** tree.generation_size(k)
                   for tree, prob in enumerate_trees(half12, k))
    profile = gamma_profile(half12, p, 5)
    assert profile.gamma[5 - k] == pytest.approx(expected, abs=1e-13)


def test_k_star_value(dirac2):
    profile = gamma_profile(dirac2, 2.0**-6, 10)
    assert profile.k_star == pytest.approx(4.0)


def test_mu_star_examples(dirac2, half12):
    # p = 1: no conditioning, the base law comes back
    profile = gamma_profile(half12, 1.0, 4)
    for k in range(4):
        assert mu_star(profile, k) == half12
    # gamma_{k+1} = 0.5 on a Dirac-2 base: zero-truncated Bin(2, 1/2)
    prof2 = gamma_profile(dirac2, 0.5, 1)
    law = mu_star(prof2, 0)
    assert np.allclose(law.probs, [2 / 3, 1 / 3], atol=1e-15)


@pytest.mark.parametrize("p_n", [1.0, 0.5, 2.0**-15, 1e-320])
@pytest.mark.parametrize("masses", [{1: 0.5, 2: 0.5}, {1: 0.5, 3: 0.5}, {2: 1.0},
                                    {d: 0.125 for d in range(1, 9)}],
                         ids=["half12", "half13", "dirac2", "uniform8"])
def test_one_law_table_per_profile(masses, p_n):
    pmf = OffspringPmf.from_dict(masses)
    profile = gamma_profile(pmf, p_n, 12)
    assert len(profile.laws) == 12
    for k, law in enumerate(profile.laws):
        assert mu_star(profile, k) is law
        assert law == ztb_mixture(pmf, float(profile.one_minus_gamma[k + 1]))
    # the row-wise distances over the mass matrix are the per-law ones, bit for bit
    to_mu, to_dirac = tv_profile(profile)
    assert to_mu.tolist() == [tv_distance(law, pmf) for law in profile.laws]
    assert to_dirac.tolist() == [tv_distance(law, OffspringPmf.dirac(1))
                                 for law in profile.laws]


def test_mu_star_mean_matches_ratio_formula(half12):
    profile = gamma_profile(half12, 0.23, 9)
    nu = half12.mean()
    for k in range(9):
        law = mu_star(profile, k)
        expected = (profile.one_minus_gamma[k + 1] / profile.one_minus_gamma[k]) * nu
        assert law.mean() == pytest.approx(expected, abs=1e-12)
        assert law.mass(0) == 0.0


def test_tilde_mu0_examples(dirac2, half12):
    profile = gamma_profile(half12, 1.0, 3)
    assert tilde_mu0(profile) == half12
    prof2 = gamma_profile(dirac2, 0.5, 1)
    law = tilde_mu0(prof2)
    assert law.degrees.tolist() == [0, 1, 2]
    assert np.allclose(law.probs, [0.25, 0.5, 0.25], atol=1e-15)
    assert law.mass(0) == prof2.gamma[0]
    # atom cross-checked by enumerating the 4 field outcomes on the 2 leaves
    outcomes = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    masses = {0: 0.0, 1: 0.0, 2: 0.0}
    for bits, d in outcomes.items():
        masses[d] += 0.25
    assert np.allclose([masses[d] for d in (0, 1, 2)], law.probs)


def test_moments_degenerate_examples():
    profile = gamma_profile(OffspringPmf.dirac(1), 0.4, 6)
    sigma, _ = moments(profile, 2.0)
    assert np.allclose(profile.nu_star, 1.0)
    assert np.allclose(sigma, 0.0, atol=1e-14)
    assert np.allclose(profile.m_0k, 1.0)
    profile2 = gamma_profile(OffspringPmf.from_dict({1: 0.5, 2: 0.5}), 1.0, 6)
    assert np.allclose(profile2.nu_star, 1.5)


def test_moment_identities_and_bounds(half13, dirac2):
    q = 2.0
    for pmf, p_n, n in ((half13, 0.2, 14), (dirac2, 2.0**-8, 18), (half13, 0.85, 9)):
        profile = gamma_profile(pmf, p_n, n)
        sigma, _ = moments(profile, q)
        nu, m_q = pmf.mean(), pmf.q_moment(q)
        assert np.all(profile.nu_star >= 1.0 - 1e-12)
        assert np.all(profile.nu_star <= nu + 1e-12)
        assert np.all(sigma <= m_q + 1e-12)
        # exact growth identity M*_{0,k} = nu^k (1-gamma_k)/(1-gamma_0)
        for k in range(n + 1):
            expected = nu**k * profile.one_minus_gamma[k] / profile.one_minus_gamma[0]
            assert profile.m_0k[k] == pytest.approx(expected, rel=1e-12)
        # telescoping consistency of the pairwise accessor
        assert profile.mean_generation_size(3, 7) == pytest.approx(
            np.prod(profile.nu_star[3:7]), rel=1e-12)


def v_kn_double_sum(profile, q, sigma):
    """v*_{k,n} = 1 + sum_{i=k}^{n-1} sigma*_{q,i} (M*_{k,i})^{-(q-1)}, term by term."""
    v_kn = np.empty(profile.n)
    for k in range(profile.n):
        acc = 1.0
        for i in range(k, profile.n):
            acc += sigma[i] * profile.mean_generation_size(k, i) ** (-(q - 1.0))
        v_kn[k] = acc
    return v_kn


@pytest.mark.parametrize("law, n, q", [
    ("dirac2", 100, 2.0), ("half13", 200, 2.0), ("half12", 200, 1.5), ("half13", 30, 1.3),
])
def test_v_kn_backward_pass_matches_double_sum(law, n, q):
    pmf = {"dirac2": OffspringPmf.dirac(2), "half12": OffspringPmf.from_dict({1: 0.5, 2: 0.5}),
           "half13": OffspringPmf.from_dict({1: 0.5, 3: 0.5})}[law]
    p_n = (pmf.mean() * 0.8) ** -n  # the threshold schedule at tanh(beta) = 0.8
    profile = gamma_profile(pmf, p_n, n)
    sigma, v_kn = moments(profile, q)
    np.testing.assert_allclose(v_kn, v_kn_double_sum(profile, q, sigma), rtol=1e-13, atol=0)


def test_sigma_bound_by_survival_power(half13):
    # proof-level bound sigma*_{q,k} <= (1 - gamma_{k+1})^{q-1} m_q
    q = 1.5
    profile = gamma_profile(half13, 0.05, 16)
    sigma, _ = moments(profile, q)
    m_q = half13.q_moment(q)
    for k in range(16):
        cap = profile.one_minus_gamma[k + 1] ** (q - 1) * m_q
        assert sigma[k] <= cap + 1e-12


def test_sampler_never_empty_at_p_one(rng, half12):
    sampler = PrunedLawSampler(gamma_profile(half12, 1.0, 5))
    for _ in range(40):
        tree = sampler.sample(rng)
        assert tree is not None
        assert tree.n == 5
        assert tree.leaves_only_at_bottom


def test_sample_pruned_direct_depth1_distribution(rng, dirac2):
    # the outcomes empty, path and binary have masses 1/4, 1/2 and 1/4; the
    # sampler draws the last two conditioned on survival
    counts = {"path": 0, "binary": 0}
    reps = 20000
    sampler = PrunedLawSampler(gamma_profile(dirac2, 0.5, 1))
    for _ in range(reps):
        tree = sampler.sample(rng)
        counts["path" if tree.num_vertices == 2 else "binary"] += 1
    for key, prob in (("path", 2 / 3), ("binary", 1 / 3)):
        se = math.sqrt(prob * (1 - prob) / reps)
        assert abs(counts[key] / reps - prob) < 4 * se


def test_direct_sampler_agrees_with_prune_then_sample(rng, dirac2):
    # two-sample chi-square over the surviving depth-2 pruned shapes at
    # significance 0.001
    reps = 50000
    sampler = PrunedLawSampler(gamma_profile(dirac2, 0.5, 2))
    direct: dict = {}
    for _ in range(reps):
        key = tuple(sampler.sample(rng).parent.tolist())
        direct[key] = direct.get(key, 0) + 1
    indirect: dict = {}
    for _ in range(reps):
        tree = sample_gw(dirac2, 2, rng)
        outcome = prune(tree, sample_field(tree, FieldMode.LEAVES_ONLY, 0.5, rng))
        if outcome is not None:
            key = tuple(outcome[0].parent.tolist())
            indirect[key] = indirect.get(key, 0) + 1
    keys = sorted(set(direct) | set(indirect), key=repr)
    table = np.array([[direct.get(k, 0) for k in keys],
                      [indirect.get(k, 0) for k in keys]])
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.001


def test_pruned_probability_examples(dirac2):
    assert pruned_tree_probability(None, dirac2, 0.5, 1) == pytest.approx(0.25)
    path = Tree.from_offspring_counts([np.array([1])])
    assert pruned_tree_probability(path, dirac2, 0.5, 1) == pytest.approx(0.5)
    # impossible outcomes carry zero mass
    too_shallow = Tree.from_offspring_counts([np.array([1])])
    assert pruned_tree_probability(too_shallow, dirac2, 0.5, 2) == 0.0
    off_support = Tree.from_offspring_counts([np.array([3])])
    assert pruned_tree_probability(off_support, dirac2, 0.5, 1) == 0.0


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_pruned_probabilities_sum_to_one(half12, p):
    n = 2
    total = pruned_tree_probability(None, half12, p, n)
    profile = gamma_profile(half12, p, n)
    # every candidate pruned shape is a depth-2 tree with degrees <= 2
    for shape, _ in enumerate_trees(half12, n):
        total += pruned_tree_probability(shape, half12, p, n, profile=profile)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_tv_distance_basics(half12, dirac2):
    assert tv_distance(half12, half12) == 0.0
    assert tv_distance(OffspringPmf.dirac(1), OffspringPmf.dirac(2)) == 1.0
    assert tv_distance(half12, dirac2) == pytest.approx(0.5)


def test_tv_profile_transition(half13):
    profile = gamma_profile(half13, 2.0**-10, 30)  # k* = 20
    to_mu, to_dirac = tv_profile(profile)
    assert to_mu[0] < 0.01
    assert to_dirac[-1] < 0.01
    crossing = tv_crossing(to_mu, to_dirac)
    assert abs(crossing - profile.k_star) <= 5.0


def test_tv_dirac_bound_proof_form(half13, dirac2):
    # d_TV(mu*_k, dirac_1) <= 2 nu (1 - gamma_{k+1}), the bound the proof
    # actually establishes
    for pmf in (half13, dirac2):
        profile = gamma_profile(pmf, 2.0**-8, 24)
        _, to_dirac = tv_profile(profile)
        nu = pmf.mean()
        for k in range(24):
            assert to_dirac[k] <= 2 * nu * profile.one_minus_gamma[k + 1] + 1e-12


def test_tv_mu_decay_with_fitted_rate(dirac2):
    # below k*, d_TV(mu*_k, mu) decays at least exponentially in k* - k
    profile = gamma_profile(dirac2, 2.0**-12, 36)  # k* = 24
    to_mu, _ = tv_profile(profile)
    ks = profile.k_star
    window = [k for k in range(36) if 1 <= ks - k and to_mu[k] > 0]
    rates = [-math.log(to_mu[k]) / (ks - k) for k in window]
    c4_fit = min(rates)
    assert c4_fit > 0
    for k in window:
        assert to_mu[k] <= math.exp(-c4_fit * (ks - k)) * (1 + 1e-9)


def test_neveu_subadditivity_exhaustive():
    # V_q(sum xi_i) <= sum V_q(xi_i) for independent small-support variables,
    # by exhaustive expectation over the product space
    laws = [
        OffspringPmf.from_dict({0: 0.3, 1: 0.5, 3: 0.2}),
        OffspringPmf.from_dict({1: 0.6, 2: 0.4}),
        OffspringPmf.from_dict({0: 0.25, 2: 0.75}),
        OffspringPmf.from_dict({1: 0.1, 4: 0.9}),
    ]
    for q in (1.5, 2.0):
        for subset_size in (2, 3, 4):
            subset = laws[:subset_size]
            total_mass: dict = {}
            for combo in itertools.product(*[range(len(l.degrees)) for l in subset]):
                mass = 1.0
                value = 0
                for law, idx in zip(subset, combo):
                    mass *= law.probs[idx]
                    value += int(law.degrees[idx])
                total_mass[value] = total_mass.get(value, 0.0) + mass
            values = np.array(sorted(total_mass))
            probs = np.array([total_mass[v] for v in values])
            mean = float(values @ probs)
            vq_sum = float((values.astype(float) ** q) @ probs) - mean**q
            vq_parts = sum(l.q_moment(q) - l.mean() ** q for l in subset)
            assert vq_sum <= vq_parts + 1e-12


def test_recursion_to_zero_d0_one_with_explicit_constant(half13):
    # u_j = G^j(u_0) obeys u_0 mu(1)^j <= u_j <= C_alpha u_0 mu(1)^j with the
    # explicit constant C_alpha = exp((1-alpha) / (mu(1) (1 - p_alpha)))
    alpha = 0.4
    u0 = 1 - alpha
    mu1 = half13.mass(1)
    p_alpha = half13.gf(1 - alpha) / (1 - alpha)
    c_alpha = math.exp((1 - alpha) / (mu1 * (1 - p_alpha)))
    u = u0
    for j in range(1, 25):
        u = half13.gf(u)
        assert u0 * mu1**j <= u * (1 + 1e-12)
        assert u <= c_alpha * u0 * mu1**j * (1 + 1e-12)


def test_recursion_to_zero_d0_two_double_exponential(dirac2):
    # lower bound prod mu(d0)^{d0^i} u0^{d0^j} <= u_j, and doubly exponential
    # decay of the iterates
    u0 = 0.6
    u = u0
    for j in range(1, 10):  # 0.6^(2^10) would underflow the linear iterate
        u = dirac2.gf(u)
        log_lower = 2.0**j * math.log(u0)  # mu(2) = 1 contributes nothing
        assert math.log(u) >= log_lower - 1e-9
        assert math.log(u) == pytest.approx(2.0**j * math.log(u0), rel=1e-12)


def test_k1_window_sandwich(half13):
    q = 2.0
    c_q = fit_g_upper_constant(half13, q)
    c_mu = c_q * half13.q_moment(q) / half13.mean()
    profile = gamma_profile(half13, 2.0**-15, 30)
    k1 = k1_bar_star(profile, q, c_mu)
    nu = half13.mean()
    p = profile.p_n
    t_bar = profile.one_minus_gamma[::-1]
    for k in range(k1 + 1):
        t = t_bar[k]
        assert t <= nu**k * p * (1 + 1e-12)
        assert t >= 0.5 * nu**k * p * (1 - 1e-12)
    for k in range(31):
        assert t_bar[k] <= nu**k * p * (1 + 1e-12)


def test_moment_gap_bounds_with_frozen_constants():
    # nu - nu*_k <= c5 e^{-c4 (k*-k)} below k*; nu*_k - 1 <= c5 nu^{-(k-k*)}
    # and sigma*_{q,k} <= c6 nu^{-(q-1)(k-k*)} above k*, with the calibrated
    # constants frozen at (n=30, p=2^-15)
    for name, pmf in (("dirac2", OffspringPmf.dirac(2)),
                      ("half13", OffspringPmf.from_dict({1: 0.5, 3: 0.5}))):
        consts = CALIBRATED[name]
        nu, q = pmf.mean(), consts["q"]
        for n, p_n in ((20, 2.0**-10), (44, 2.0**-14)):
            profile = gamma_profile(pmf, p_n, n)
            sigma, _ = moments(profile, q)
            ks = profile.k_star
            for k in range(n):
                if k <= math.floor(ks):
                    cap = consts["c5"] * math.exp(-consts["c4"] * (ks - k))
                    assert nu - profile.nu_star[k] <= cap * (1 + 1e-9)
                if k >= math.ceil(ks):
                    assert profile.nu_star[k] - 1.0 <= (
                        consts["c5"] * nu ** -(k - ks) * (1 + 1e-9))
                    assert sigma[k] <= (
                        consts["c6"] * nu ** (-(q - 1) * (k - ks)) * (1 + 1e-9))


def test_growth_bracket_with_frozen_constants():
    # c7' nu^{k ^ k*} <= M*_{0,k} <= c8 nu^{k ^ k*}
    for name, pmf in (("dirac2", OffspringPmf.dirac(2)),
                      ("half13", OffspringPmf.from_dict({1: 0.5, 3: 0.5}))):
        consts = CALIBRATED[name]
        nu = pmf.mean()
        for n, p_n in ((20, 2.0**-10), (44, 2.0**-14)):
            profile = gamma_profile(pmf, p_n, n)
            ks = profile.k_star
            scale = nu ** np.minimum(np.arange(n + 1), ks)
            assert np.all(profile.m_0k >= consts["c7_prime"] * scale * (1 - 1e-9))
            assert np.all(profile.m_0k <= consts["c8"] * scale * (1 + 1e-9))


def test_frozen_constants_reproduce():
    # guard against silent drift of the calibration pass and against a stale
    # fixture: rounding-level gaps (at most 2.5e-13 relative) pass, anything
    # larger means CALIBRATED must be regenerated
    for name, pmf in (("dirac2", OffspringPmf.dirac(2)),
                      ("half13", OffspringPmf.from_dict({1: 0.5, 3: 0.5}))):
        fresh = calibrate_constants(pmf, 2.0)
        frozen = CALIBRATED[name]
        assert set(fresh) == set(frozen)
        for key, value in frozen.items():
            assert fresh[key] == pytest.approx(value, rel=1e-12, abs=0), (name, key)
