import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import comb, logsumexp

from gwising import OffspringPmf, PmfError, distributions, ztb_mixture
from gwising.distributions import MIXTURE_CONSISTENCY_TOL, LawTable, logsumexp as gw_logsumexp
from gwising.pruned_law import gamma_profile
from gwising.validate import (tilde_mu0, zero_truncated_binomial,
                              ztb_mixture_by_truncated_binomials)


def test_constructor_rejects_bad_input():
    with pytest.raises(PmfError):
        OffspringPmf(np.array([1, 2]), np.array([0.5, 0.6]))  # sums to 1.1
    with pytest.raises(PmfError):
        OffspringPmf(np.array([2, 1]), np.array([0.5, 0.5]))  # not increasing
    with pytest.raises(PmfError):
        OffspringPmf(np.array([1, 2]), np.array([1.5, -0.5]))  # negative mass
    with pytest.raises(PmfError):
        OffspringPmf(np.array([1, 2]), np.array([0.5, np.nan]))  # sum is NaN
    with pytest.raises(PmfError):
        OffspringPmf(np.array([-1]), np.array([1.0]))


def test_normalization_tolerance_is_tight():
    OffspringPmf(np.array([1]), np.array([1.0 + 9e-13]))
    with pytest.raises(PmfError):
        OffspringPmf(np.array([1]), np.array([1.0 + 2e-12]))


def test_mean_examples(rng):
    assert OffspringPmf.dirac(2).mean() == 2.0
    assert OffspringPmf.from_dict({1: 0.5, 3: 0.5}).mean() == 2.0
    pmf = OffspringPmf.from_dict({1: 0.25, 2: 0.5, 4: 0.25})
    assert pmf.mean() == 2.25
    draws = pmf.sample_many(rng, 10**6)
    se = draws.std() / 1000.0
    assert abs(draws.mean() - 2.25) < 3 * se


def test_q_moment_examples(rng):
    assert OffspringPmf.dirac(2).q_moment(2.0) == 4.0
    assert OffspringPmf.from_dict({1: 0.5, 2: 0.5}).q_moment(2.0) == 2.5
    pmf = OffspringPmf.from_dict({1: 0.5, 3: 0.5})
    expected = (1 + 3**1.5) / 2
    assert pmf.q_moment(1.5) == pytest.approx(expected, abs=1e-14)
    draws = pmf.sample_many(rng, 10**6).astype(float) ** 1.5
    assert abs(draws.mean() - expected) < 3 * draws.std() / 1000.0


def test_q_variance_examples():
    for q in (1.5, 2.0):
        assert OffspringPmf.dirac(5).q_variance(q) == 0.0
    assert OffspringPmf.from_dict({1: 0.5, 3: 0.5}).q_variance(2.0) == pytest.approx(1.0)
    pmf = OffspringPmf.from_dict({1: 0.25, 2: 0.75})
    assert pmf.q_variance(1.5) == pytest.approx(pmf.q_moment(1.5) - 1.75**1.5)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.5, 3.0])
def test_fractional_order_outside_window_rejected(q):
    pmf = OffspringPmf.from_dict({1: 0.5, 2: 0.5})
    with pytest.raises(ValueError):
        pmf.q_moment(q)
    with pytest.raises(ValueError):
        pmf.q_variance(q)


def test_generating_function_examples():
    assert OffspringPmf.dirac(2).gf(0.5) == 0.25
    assert OffspringPmf.from_dict({1: 0.5, 2: 0.5}).gf(0.4) == pytest.approx(0.28)
    for pmf in (OffspringPmf.dirac(3), OffspringPmf.from_dict({1: 0.2, 5: 0.8})):
        assert pmf.gf(1.0) == pytest.approx(1.0, abs=1e-15)


def test_generating_function_convex_nondecreasing(half13):
    s = np.linspace(0, 1, 101)
    g = half13.gf(s)
    assert np.all(np.diff(g) >= 0)
    assert np.all(np.diff(g, 2) >= -1e-14)


def test_sampling_examples(rng):
    assert OffspringPmf.dirac(3).sample_many(rng, 1).tolist() == [3]
    assert OffspringPmf.from_dict({1: 1.0}).sample_many(rng, 1).tolist() == [1]
    draws = OffspringPmf.from_dict({1: 0.5, 2: 0.5}).sample_many(rng, 10**6)
    assert abs((draws == 1).mean() - 0.5) < 0.002


def test_sampling_skips_zero_mass_degrees(rng):
    pmf = OffspringPmf(np.array([1, 2, 3]), np.array([0.5, 0.0, 0.5]))
    draws = pmf.sample_many(rng, 20000)
    assert set(np.unique(draws)) == {1, 3}


def test_sampling_consumes_one_uniform_per_draw():
    for pmf in (OffspringPmf.from_dict({1: 0.3, 2: 0.7}), OffspringPmf.dirac(3),
                OffspringPmf(np.arange(1, 31), np.full(30, 1 / 30))):
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        pmf.sample_many(a, 7)
        b.random(7)
        assert a.random() == b.random()


# sample_many counts the cut points at or below each uniform; the binary
# search it replaced is the oracle, over random uniforms and uniforms placed
# on and next to every cut point

def sample_many_by_binary_search(pmf, u):
    return pmf.degrees[np.searchsorted(pmf._cuts, u, side="right")]


class FixedUniforms:
    """A stand-in stream whose ``random(size)`` returns given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


def uniforms_at_cut_points(pmf):
    cuts = np.asarray(pmf._cuts)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cuts,
                        np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0)])
    return u[u < 1.0]  # the range of Generator.random


def assert_draws_match_binary_search(pmf, seed):
    for u in (uniforms_at_cut_points(pmf), np.random.default_rng(seed).random(500)):
        got = pmf.sample_many(FixedUniforms(u), len(u))
        want = sample_many_by_binary_search(pmf, u)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    got = pmf.sample_many(np.random.default_rng(seed), 300)
    assert np.array_equal(got, sample_many_by_binary_search(
        pmf, np.random.default_rng(seed).random(300)))


@pytest.mark.parametrize("atoms", [254, 255, 256, 300, 1000])
def test_sample_many_matches_binary_search_on_wide_supports(atoms):
    # from 254 cut points on, the index is found by a binary search
    weights = np.random.default_rng(atoms).random(atoms)
    pmf = OffspringPmf(np.arange(atoms), weights / weights.sum())
    assert_draws_match_binary_search(pmf, atoms)
    got = pmf.sample_many(np.random.default_rng(atoms), 1)
    assert np.array_equal(got, sample_many_by_binary_search(
        pmf, np.random.default_rng(atoms).random(1)))


@pytest.mark.parametrize("pmf", [
    OffspringPmf.from_dict({1: 0.5, 2: 0.5}),
    OffspringPmf.from_dict({d: 0.125 for d in range(1, 9)}),
    OffspringPmf.from_dict({1: 0.5, 3: 0.5}),
    OffspringPmf.dirac(2),
    OffspringPmf(np.arange(5, 305), np.full(300, 1 / 300)),
], ids=["half12", "uniform8", "half13", "dirac2", "atoms300"])
def test_sample_many_adds_or_gathers_the_same_degrees(pmf):
    # consecutive degrees are the first degree plus the index; a gapped
    # support and the wide index type keep the gather
    assert_draws_match_binary_search(pmf, 11)


@pytest.mark.parametrize("pmf", [
    OffspringPmf.from_dict({1: 0.5, 2: 0.5}),
    OffspringPmf.from_dict({1: 0.5, 3: 0.5}),
    OffspringPmf.dirac(2),
    OffspringPmf(np.arange(255), np.full(255, 1 / 255)),
    OffspringPmf(np.arange(5, 305), np.full(300, 1 / 300)),
], ids=["half12", "half13", "dirac2", "atoms255", "atoms300"])
def test_sample_many_into_a_buffer_gives_the_int64_draws_and_stream(pmf):
    # one byte per draw when the top degree is below 256: the consecutive
    # add, the gather, the single atom and the wide index type
    dtype = np.uint8 if pmf.max_degree < 256 else np.int64
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    want = pmf.sample_many(a, 1000)
    out = np.empty(1000, dtype=dtype)
    got = pmf.sample_many(b, 1000, out=out)
    assert got is out and got.dtype == dtype
    assert want.dtype == np.int64 and np.array_equal(got, want)
    assert a.random() == b.random()


law_weights = st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
                       min_size=1, max_size=30).filter(lambda w: sum(w) > 0)


@settings(max_examples=150, deadline=None)
@given(law_weights, st.lists(st.integers(1, 3), min_size=30, max_size=30),
       st.integers(0, 2), st.sampled_from([1.0, 0.3, 1e-6, 1e-320]),
       st.integers(0, 2**32 - 1))
def test_sample_many_matches_binary_search_bitwise(weights, gaps, low, p, seed):
    # plain laws of 1 to 30 atoms, zero masses wherever the weights put them
    degrees = low + np.cumsum(gaps[:len(weights)]) - gaps[0]
    total = sum(weights)
    pmf = OffspringPmf(degrees, np.array(weights) / total)
    assert_draws_match_binary_search(pmf, seed)
    # the rows of a mixture table, whose cumulative masses are topped at 1
    # at their last positive degree, and the root law with its atom at 0
    trial = OffspringPmf(degrees + (1 - low), pmf.probs)
    for law in ztb_mixture(trial, np.array([p, 0.5, 1.0])):
        assert_draws_match_binary_search(law, seed)
    if trial.mass(1) < 1.0:
        profile = gamma_profile(trial, p, 3)
        root = tilde_mu0(profile)
        assert_draws_match_binary_search(root, seed)


def test_zero_truncated_binomial_examples():
    assert zero_truncated_binomial(1, 0.3) == OffspringPmf.dirac(1)
    ztb = zero_truncated_binomial(2, 0.5)
    assert np.allclose(ztb.probs, [2 / 3, 1 / 3])
    raw = np.array([3 * 0.25 * 0.75**2, 3 * 0.25**2 * 0.75, 0.25**3])
    ztb3 = zero_truncated_binomial(3, 0.25)
    assert np.allclose(ztb3.probs, raw / raw.sum(), atol=1e-15)
    assert ztb3.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert ztb3.mass(0) == 0.0


def test_zero_truncated_binomial_rejects_null_conditioning():
    with pytest.raises(ValueError):
        zero_truncated_binomial(3, 0.0)
    with pytest.raises(ValueError):
        zero_truncated_binomial(0, 0.5)


def test_ztb_mixture_examples():
    assert ztb_mixture(OffspringPmf.dirac(1), 0.37) == OffspringPmf.dirac(1)
    mix = ztb_mixture(OffspringPmf.dirac(2), 0.5)
    assert np.allclose(mix.probs, [2 / 3, 1 / 3], atol=1e-15)


def test_ztb_mixture_against_outcome_enumeration():
    # X ~ {1: .5, 2: .5}, each child kept with prob .5, conditioned on >= 1
    # survivor: P(alive, d=1) = .5*.5 + .5*.5 = .5, P(alive, d=2) = .5*.25,
    # P(alive) = .625, so the law is {1: 0.8, 2: 0.2}.
    mix = ztb_mixture(OffspringPmf.from_dict({1: 0.5, 2: 0.5}), 0.5)
    assert np.allclose(mix.probs, [0.8, 0.2], atol=1e-14)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.8, 1.0])
def test_ztb_mixture_mean_formula(half13, p):
    mix = ztb_mixture(half13, p)
    nu = half13.mean()
    expected = nu * p / (1.0 - half13.gf(1.0 - p))
    assert mix.mean() == pytest.approx(expected, abs=1e-12)


def test_ztb_mixture_laws_are_read_only(half12):
    table = ztb_mixture(half12, np.array([0.3, 0.5, 1e-300]))
    assert table[2].degrees.tolist() == [1]  # p^2 underflows: a partial row
    assert not table.masses.flags.writeable
    for law in (*table, ztb_mixture(half12, 0.3)):
        for arr in (law.degrees, law.probs):
            assert not arr.flags.writeable


def test_ztb_mixture_of_a_degree_whose_binomials_pass_the_double_range():
    # C(1030, d) exceeds the largest double for 31 values of d; the row at
    # p = 1/2 of the table against exact rational arithmetic
    pmf = OffspringPmf.from_dict({1: 0.999, 1030: 0.001})
    table = ztb_mixture(pmf, np.array([0.5, 1e-3]))
    exact = [Fraction(0)] * 1030
    for big_d, mass in ((1, Fraction(0.999)), (1030, Fraction(0.001))):
        for d in range(1, big_d + 1):
            exact[d - 1] += mass * Fraction(math.comb(big_d, d), 2 ** big_d)
    total = sum(exact)
    masses = np.zeros(1030)
    masses[table[0].degrees - 1] = table[0].probs
    assert np.abs(masses - [float(m / total) for m in exact]).max() <= 1e-12
    assert table[0] == ztb_mixture(pmf, 0.5)


@pytest.mark.parametrize("p", [0.3, 1e-6])
def test_ztb_mixture_matches_the_oracle_at_degree_five_thousand(p):
    # the oracle forms a term by logarithms where C(D, d) passes the double range
    pmf = OffspringPmf.from_dict({1: 0.5, 5000: 0.5})
    law = ztb_mixture(pmf, p)
    masses = np.zeros(5000)
    masses[law.degrees - 1] = law.probs
    oracle = ztb_mixture_by_truncated_binomials(pmf, p)
    assert np.abs(masses - oracle).max() <= MIXTURE_CONSISTENCY_TOL


@pytest.mark.parametrize("masses", [{1: 0.5, 3: 0.3, 40: 0.2}, {1: 0.5, 1029: 0.5},
                                    {2: 0.3, 1100: 0.7}])
def test_ztb_mixture_binomial_rows_match_math_comb_bitwise(masses, monkeypatch):
    # the rows by recurrence against one math.comb call per entry, up to
    # degrees whose binomials pass the double range
    pmf = OffspringPmf.from_dict(masses)
    ps = np.append(np.logspace(-6, 0, 12), [0.5, 1e-3])
    got = ztb_mixture(pmf, ps).masses
    monkeypatch.setattr(distributions, "_binomial_row",
                        lambda big_d: [math.comb(big_d, d) for d in range(1, big_d + 1)])
    assert got.tobytes() == ztb_mixture(pmf, ps).masses.tobytes()


@pytest.mark.parametrize("p", [0.5, 1e-3, 1.0])
def test_ztb_mixture_mean_formula_at_degree_ten_thousand(p):
    pmf = OffspringPmf.from_dict({1: 0.999, 10000: 0.001})
    expected = pmf.mean() * p / float(pmf.one_minus_gf_at_one_minus(p))
    assert ztb_mixture(pmf, p).mean() == pytest.approx(expected, rel=1e-12)


def test_ztb_mixture_rejects_zero_mass_trial_law():
    with pytest.raises(PmfError):
        ztb_mixture(OffspringPmf.from_dict({0: 0.5, 2: 0.5}), 0.5)


def test_g_bounds(half13, dirac2, half12):
    # 1 + nu(s-1) <= G(s) <= 1 + nu(s-1) + c_q m_q (1-s)^q with a fitted
    # c_q <= 10, and the same fit transfers to the F(t) = 1 - G(1-t) bounds.
    from gwising.pruned_law import fit_g_upper_constant
    s = np.linspace(0, 1, 501)
    for pmf in (half13, dirac2, half12):
        nu = pmf.mean()
        g = pmf.gf(s)
        assert np.all(g >= 1 + nu * (s - 1) - 1e-12)
        for q in (1.5, 2.0):
            c_q = fit_g_upper_constant(pmf, q)
            assert c_q <= 10.0
            m_q = pmf.q_moment(q)
            assert np.all(g <= 1 + nu * (s - 1) + c_q * m_q * (1 - s) ** q + 1e-12)
            # F bounds: upper exact, lower via C_mu = c_q m_q / nu
            t = 1.0 - s
            f = pmf.one_minus_gf_at_one_minus(t)
            assert np.all(f <= nu * t + 1e-12)
            c_mu = c_q * m_q / nu
            assert np.all(f >= nu * t * (1 - c_mu * t ** (q - 1)) - 1e-12)


def test_g_bounds_at_minimal_degree(half13, dirac2):
    # mu(d0) s^d0 <= G(s) <= mu(d0) s^d0 + s^{d0+1}
    s = np.linspace(0, 1, 301)
    for pmf in (half13, dirac2):
        d0 = int(pmf.degrees[pmf.probs > 0][0])
        m0 = pmf.mass(d0)
        g = pmf.gf(s)
        assert np.all(g >= m0 * s**d0 - 1e-15)
        assert np.all(g <= m0 * s**d0 + s ** (d0 + 1) + 1e-15)


def test_log_gf_matches_linear_and_survives_underflow(half13):
    assert half13.log_gf(math.log(0.3)) == pytest.approx(math.log(half13.gf(0.3)), abs=1e-12)
    tiny = -800.0  # log s below double underflow for s
    assert half13.log_gf(tiny) == pytest.approx(math.log(0.5) + tiny, abs=1e-9)


def test_stable_one_minus_gf(half12):
    # F(t) ~ nu t for tiny t, with full relative accuracy (naive 1 - G(1-t)
    # would cancel); F(1) = 1 for a no-zero law.
    t = 1e-12
    assert half12.one_minus_gf_at_one_minus(t) == pytest.approx(1.5 * t, rel=1e-9)
    assert half12.one_minus_gf_at_one_minus(1.0) == pytest.approx(1.0)


def test_json_round_trip(half13):
    data = half13.to_json_dict()
    assert data == {"entries": [[1, 0.5], [3, 0.5]]}
    assert OffspringPmf.from_json_dict(data) == half13


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=9),
                       st.floats(min_value=1e-3, max_value=1.0),
                       min_size=1, max_size=5),
       st.floats(min_value=0.01, max_value=1.0))
def test_ztb_mixture_properties(masses, p):
    total = sum(masses.values())
    pmf = OffspringPmf.from_dict({d: w / total for d, w in masses.items()})
    mix = ztb_mixture(pmf, p)
    assert mix.mass(0) == 0.0
    assert abs(mix.probs.sum() - 1.0) <= 1e-12
    assert mix.max_degree <= pmf.max_degree
    expected = pmf.mean() * p / (1.0 - pmf.gf(1.0 - p))
    assert mix.mean() == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=12),
                       st.floats(min_value=1e-3, max_value=1.0),
                       min_size=1, max_size=6),
       st.floats(min_value=1e-12, max_value=1.0))
def test_ztb_mixture_matches_truncated_binomial_mixture(masses, p):
    total = sum(masses.values())
    pmf = OffspringPmf.from_dict({d: w / total for d, w in masses.items()})
    mix = ztb_mixture(pmf, p)
    dense = np.zeros(pmf.max_degree)
    dense[mix.degrees - 1] = mix.probs
    oracle = ztb_mixture_by_truncated_binomials(pmf, p)
    assert np.abs(dense - oracle).max() <= MIXTURE_CONSISTENCY_TOL


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=12),
                       st.floats(min_value=1e-3, max_value=1.0),
                       min_size=1, max_size=6))
def test_random_pmf_invariants(masses):
    total = sum(masses.values())
    pmf = OffspringPmf.from_dict({d: w / total for d, w in masses.items()})
    assert abs(pmf.probs.sum() - 1.0) <= 1e-12
    assert pmf.gf(1.0) == pytest.approx(1.0, abs=1e-12)
    for q in (1.5, 2.0):
        assert pmf.q_variance(q) >= -1e-12
    grid = np.linspace(0, 1, 33)
    g = pmf.gf(grid)
    assert np.all((g >= -1e-15) & (g <= 1 + 1e-12))


# The scipy formulas that distributions.py used before it dropped scipy, kept
# here as oracles for the numpy-only replacements.

def ztb_mixture_scipy(pmf, p):
    dmax = pmf.max_degree
    raw = np.zeros(dmax)
    for big_d, mass in zip(pmf.degrees, pmf.probs):
        big_d = int(big_d)
        for d in range(1, big_d + 1):
            ell = big_d - d
            raw[d - 1] += mass * comb(big_d, ell) * (1.0 - p) ** ell * p**d
    raw /= float(pmf.one_minus_gf_at_one_minus(p))
    masses = raw / raw.sum()
    nz = masses > 0
    return np.arange(1, dmax + 1)[nz], masses[nz]


def zero_truncated_binomial_scipy(n, p):
    denom = -math.expm1(n * math.log1p(-p)) if p < 1.0 else 1.0
    return stats.binom.pmf(np.arange(1, n + 1), n, p) / denom


trial_laws = st.dictionaries(st.integers(min_value=1, max_value=30),
                             st.floats(min_value=1e-3, max_value=1.0),
                             min_size=1, max_size=6)
log_uniform_p = st.one_of(st.just(1.0), st.floats(min_value=-12.0, max_value=0.0).map(
    lambda e: 10.0**e))


@settings(max_examples=80, deadline=None)
@given(trial_laws, log_uniform_p,
       st.lists(st.one_of(log_uniform_p, st.just(1e-320)), max_size=4))
def test_ztb_mixture_matches_scipy_comb_bitwise(masses, p, more_p):
    total = sum(masses.values())
    pmf = OffspringPmf.from_dict({d: w / total for d, w in masses.items()})
    degrees, probs = ztb_mixture_scipy(pmf, p)
    law = ztb_mixture(pmf, p)
    assert np.array_equal(law.degrees, degrees)
    assert np.array_equal(law.probs, probs)
    # the array form gives, entry by entry, the scalar call's law bit for bit
    ps = [p, *more_p]
    table = ztb_mixture(pmf, np.array(ps))
    assert isinstance(table, LawTable) and len(table) == len(ps)
    for s, row in zip(ps, table):
        scalar = ztb_mixture(pmf, s)
        assert np.array_equal(row.degrees, scalar.degrees)
        assert np.array_equal(row.probs, scalar.probs)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=30),
                       st.floats(min_value=1e-3, max_value=1.0),
                       min_size=1, max_size=6),
       st.floats(min_value=-8.0, max_value=3.0))
def test_log_gf_matches_scipy_logsumexp(masses, log10_minus_log_s):
    total = sum(masses.values())
    pmf = OffspringPmf.from_dict({d: w / total for d, w in masses.items()})
    log_s = -(10.0**log10_minus_log_s)
    expected = float(logsumexp(np.log(pmf.probs) + pmf.degrees * log_s))
    # log-sum-exp errs by a few ulps of max(1, |result|): the log of a sum
    # near 1 is accurate in absolute, not relative, terms
    assert abs(pmf.log_gf(log_s) - expected) <= 4 * math.ulp(max(1.0, abs(expected)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-800.0, max_value=800.0), max_size=8))
def test_logsumexp_matches_scipy(values):
    expected = float(logsumexp(values)) if values else -math.inf
    assert gw_logsumexp(values) == pytest.approx(expected, rel=4e-16, abs=4e-16)
    assert gw_logsumexp(values + [-math.inf]) == gw_logsumexp(values)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=30), log_uniform_p)
def test_zero_truncated_binomial_matches_scipy_and_exact(n, p):
    probs = zero_truncated_binomial(n, p).probs
    exact_p = Fraction(p)
    exact_denom = 1 - (1 - exact_p) ** n
    exact = np.array([float(math.comb(n, d) * exact_p**d * (1 - exact_p) ** (n - d)
                            / exact_denom) for d in range(1, n + 1)])
    normal = exact > 1e-290  # relative accuracy is lost among subnormals
    np.testing.assert_allclose(probs[normal], exact[normal], rtol=1e-14, atol=0)
    # scipy's binom.pmf is itself off by up to about 1e-13 for p below 1e-4
    if p >= 1e-4:
        oracle = zero_truncated_binomial_scipy(n, p)
        np.testing.assert_allclose(probs[normal], oracle[normal], rtol=1e-14, atol=0)


# The float paths of gf, one_minus_gf_at_one_minus and log_gf take one numpy
# kernel call over the support and sum on Python floats.  The 0-d array path,
# and for log_gf the array expression it replaced, are the oracles: equal bit
# for bit, sign of zero included.

def log_gf_by_arrays(pmf, log_s):
    if log_s == -math.inf:
        m0 = pmf.mass(0)
        return math.log(m0) if m0 > 0 else -math.inf
    nz = pmf.probs > 0
    with np.errstate(over="ignore"):  # d log s below -max float is -inf: s^d = 0
        return gw_logsumexp(np.log(pmf.probs[nz]) + pmf.degrees[nz] * log_s)


laws_on_0_to_30 = st.dictionaries(st.integers(min_value=0, max_value=30),
                                  st.floats(min_value=1e-3, max_value=1.0),
                                  min_size=1, max_size=8)
unit_points = st.one_of(st.sampled_from([0.0, 1.0, 2.0**-1074]),
                        st.floats(min_value=0.0, max_value=1.0))
# uniform points, on which np.power(s, 2) and s * s differ in about 6% of cases
UNIFORM_POINTS = np.random.default_rng(7).random(32).tolist()


@settings(max_examples=200, deadline=None)
@given(laws_on_0_to_30, unit_points,
       st.one_of(st.just(-1.7e308), st.floats(min_value=-1e6, max_value=0.0)))
def test_scalar_generating_functions_match_array_path_bitwise(masses, x, log_s):
    total = sum(masses.values())
    pmf = OffspringPmf.from_dict({d: w / total for d, w in masses.items()})
    for fn in (pmf.gf, pmf.one_minus_gf_at_one_minus):
        for point in (x, *UNIFORM_POINTS):
            got, want = fn(point), fn(np.asarray(point))
            assert type(got) is float
            assert got.hex() == want.hex(), (fn.__name__, point)
    for ls in (math.log(x) if x > 0 else -math.inf, log_s):
        assert pmf.log_gf(ls).hex() == float(log_gf_by_arrays(pmf, ls)).hex(), ls
        assert pmf.log_gf(np.float64(ls)) == pmf.log_gf(ls)


def test_scalar_paths_raise_no_warning_at_the_edges():
    pmf = OffspringPmf.from_dict({0: 0.2, 1: 0.3, 30: 0.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # log1p(-1) = -inf; the degree-0 term is left out of F
        assert pmf.one_minus_gf_at_one_minus(1.0) == 0.3 + 0.5
        assert pmf.one_minus_gf_at_one_minus(0.0) == 0.0
        assert pmf.gf(0.0) == 0.2 and pmf.gf(1.0) == 0.2 + 0.3 + 0.5
        # 30 * -1e307 overflows to -inf: only the mass at 0 is left
        assert pmf.log_gf(np.float64(-1e307)) == math.log(0.2)
