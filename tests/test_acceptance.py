"""Acceptance suite: one test per numbered criterion, each at its stated
tolerance, printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Statistical criteria use
fixed master seeds; frozen calibration constants live in tests/_frozen.py.
"""

import json
import math

import numpy as np
import pytest

import gwising as g
from gwising.experiments import (ExperimentConfig, PSchedule, run_capacity_scan,
                                 run_magnetization_scan, transition_bound_checks)
from gwising.pruned_law import k1_bar_star, tv_crossing
from gwising.validate import (capacity_certificate, capacity_spherical, flow_energy,
                              random_small_tree, suite_lyons_vs_bruteforce,
                              suite_pruned_law_exact, suite_pruning_equivalence,
                              uniform_flow)

from _frozen import CALIBRATED, RATIO_CORPUS_SEED, RATIO_INTERVAL
from generate_frozen import ratio_corpus

BETA_16 = math.atanh(0.8)  # nu tanh(beta) = 1.6 at nu = 2

PMFS = {
    "dirac2": g.OffspringPmf.dirac(2),
    "half12": g.OffspringPmf.from_dict({1: 0.5, 2: 0.5}),
    "half13": g.OffspringPmf.from_dict({1: 0.5, 3: 0.5}),
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: recursion vs Gibbs enumeration ----------------------------


def test_criterion_01_lyons_exactness():
    out = suite_lyons_vs_bruteforce(instances=500, seed=20240801)
    report(1, out["max_error"] <= 1e-10,
           f"500 instances, max |r - r_enum| = {out['max_error']:.2e} <= 1e-10")


# -- criterion 2: pruning equivalence ----------------------------------------


def test_criterion_02_pruning_equivalence():
    out = suite_pruning_equivalence(instances=500, seed=20240802)
    report(2, out["max_error"] <= 1e-12 and out["exact_zero_off_tree"],
           f"500 instances, max ratio gap = {out['max_error']:.2e} <= 1e-12; "
           f"pruned-away vertices exactly zero: {out['exact_zero_off_tree']}")


# -- criterion 3: pruned-law exactness ----------------------------------------


def test_criterion_03_pruned_law_exactness():
    out = suite_pruned_law_exact()
    report(3, out["max_error"] <= 1e-12,
           f"{out['instances']} exhaustive shape probabilities, "
           f"max gap = {out['max_error']:.2e} <= 1e-12")


# -- criterion 4: survival iteration identities -------------------------------


def test_criterion_04_gamma_iteration_identities():
    worst = 0.0
    for name in ("dirac2", "half12", "half13"):
        pmf = PMFS[name]
        nu = pmf.mean()
        for p_n in (0.25, 0.6, 0.1):
            profile = g.gamma_profile(pmf, p_n, 12)
            g_bar, t_bar = profile.gamma[::-1], profile.one_minus_gamma[::-1]
            assert g_bar[0] == 1.0 - p_n and t_bar[0] == p_n
            # the recursion that runs: F on 1 - gamma_bar while nu (1 - gamma_bar)
            # < 1/2, then G on gamma_bar; the other side is the complement
            for k in range(1, 13):
                if nu * t_bar[k - 1] < 0.5:
                    assert t_bar[k] == pmf.one_minus_gf_at_one_minus(t_bar[k - 1])
                else:
                    assert g_bar[k] == pmf.gf(g_bar[k - 1])
                assert abs(g_bar[k] + t_bar[k] - 1.0) <= math.ulp(1.0)
    # Dirac-2 closed form (1-p)^(2^k), compared in log space below underflow
    for p_n in (0.3, 0.5):
        profile = g.gamma_profile(PMFS["dirac2"], p_n, 20)
        for k in range(21):
            expected = 2.0**k * math.log1p(-p_n)
            gap = abs(profile.log_gamma[::-1][k] - expected) / abs(expected)
            worst = max(worst, gap)
    report(4, worst <= 1e-12,
           f"iteration exact; Dirac-2 closed form rel gap {worst:.2e} <= 1e-12")


# -- criterion 5: transition bounds with frozen constants ---------------------


def test_criterion_05_phase_transition_bounds():
    schedules = [PSchedule("geometric", 1.0, 2.0**-0.5),
                 PSchedule("threshold", 1.0),
                 PSchedule("threshold_geometric", 1.0, 0.9)]
    checked = 0
    for name in ("dirac2", "half13"):
        pmf, constants = PMFS[name], CALIBRATED[name]
        for sched in schedules:
            for n in (20, 40, 60):
                p_n = sched.p(n, pmf.mean(), BETA_16)
                profile = g.gamma_profile(pmf, p_n, n)
                k1 = k1_bar_star(profile, constants["q"], constants["C_mu"])
                checks = transition_bound_checks(profile, constants, k1)
                assert all(checks.values()), (name, sched.kind, n, checks)
                checked += 1
    report(5, True, f"all window/decay bounds hold on {checked} grid points "
                    "with constants frozen at (n=30, p=2^-15)")


# -- criterion 6: moment and growth identities --------------------------------


def test_criterion_06_moment_growth_lemmas():
    worst_identity = 0.0
    for name in ("dirac2", "half13"):
        pmf, constants = PMFS[name], CALIBRATED[name]
        nu, q = pmf.mean(), constants["q"]
        m_q = pmf.q_moment(q)
        for n, p_n in ((20, 2.0**-10), (40, 2.0**-12), (60, 2.0**-15)):
            profile = g.gamma_profile(pmf, p_n, n)
            sigma, v_kn = g.moments(profile, q)
            for k in range(n + 1):
                expected = nu**k * profile.one_minus_gamma[k] / profile.one_minus_gamma[0]
                worst_identity = max(worst_identity,
                                     abs(profile.m_0k[k] / expected - 1.0))
            assert np.all(profile.nu_star >= 1.0 - 1e-12)
            assert np.all(profile.nu_star <= nu + 1e-12)
            assert np.all(sigma <= m_q + 1e-12)
            assert np.all(v_kn <= constants["C_v"] + 1e-9)
    report(6, worst_identity <= 1e-12,
           f"M*_0k identity rel gap {worst_identity:.2e} <= 1e-12; "
           "1 <= nu* <= nu, sigma* <= m_q, v* <= frozen C on the grid")


# -- criteria 7-9: capacity oracle corpus -------------------------------------


@pytest.fixture(scope="module")
def capacity_corpus():
    rng = np.random.default_rng(np.random.SeedSequence(20240807, spawn_key=(7,)))
    corpus = []
    for _ in range(50):
        tree = random_small_tree(rng, max_vertices=200, max_depth=5)
        base = float(rng.uniform(0.5, 1.5))
        per_order = {}
        for p in (1.5, 2.0, 3.0):
            exact = g.capacity_recursion(tree, base, p)[0]
            oracle = capacity_certificate(tree, base, p)
            estimate = flow_energy(tree, uniform_flow(tree), base, p)
            per_order[p] = (exact, oracle, estimate)
        corpus.append((tree, base, per_order))
    return corpus


def test_criterion_07_capacity_recursion_vs_oracle(capacity_corpus):
    worst = 0.0
    for _, _, per_order in capacity_corpus:
        for exact, (lower, upper), _ in per_order.values():
            worst = max(worst, abs(lower - exact) / exact, abs(upper - exact) / exact)
    # spherical closed form against the recursion on regular trees
    worst_sph = 0.0
    for degree, depth in ((2, 8), (3, 6)):
        sizes = [degree**k for k in range(1, depth + 1)]
        tree = g.Tree.from_offspring_counts(
            [np.full(degree**k, degree, dtype=np.int64) for k in range(depth)])
        for base in (0.5, 1.0, 1.0 / math.tanh(0.8)):
            for p in (1.5, 2.0, 3.0):
                closed = capacity_spherical(sizes, base, p)
                rec = g.capacity_recursion(tree, base, p)[0]
                worst_sph = max(worst_sph, abs(rec - closed) / closed)
    report(7, worst <= 1e-12 and worst_sph <= 1e-10,
           f"duality certificate rel gap {worst:.2e} <= 1e-12 on 150 problems; "
           f"spherical closed form rel gap {worst_sph:.2e} <= 1e-10")


def test_criterion_08_thomson_dominance(capacity_corpus):
    worst_slack = math.inf
    for _, _, per_order in capacity_corpus:
        for exact, _, estimate in per_order.values():
            worst_slack = min(worst_slack, estimate - 1.0 / exact)
    report(8, worst_slack >= -1e-10,
           f"uniform-flow estimate >= exact resistance, min slack {worst_slack:.2e}")


def test_criterion_09_capacity_monotone_in_p(capacity_corpus):
    ok = True
    for _, _, per_order in capacity_corpus:
        caps = [per_order[p][0] for p in (1.5, 2.0, 3.0)]
        ok = ok and caps[0] >= caps[1] >= caps[2]
    report(9, ok, "capa_1.5 >= capa_2 >= capa_3 on all 50 weighted trees")


# -- criterion 10: mean-capacity bound ----------------------------------------


def test_criterion_10_expected_capacity_bound():
    cfg = ExperimentConfig(pmf=PMFS["dirac2"], beta=0.8,
                           schedule=PSchedule("geometric", 1.0, 2.0**-0.5),
                           n_grid=(8, 12, 16), replicas=10**4, mode="capacity",
                           capacity_p=1.5, master_seed=20240810)
    out = run_capacity_scan(cfg)
    details = []
    ok = True
    for row in out["summary"]:
        margin = row["mean_capacity_bound"] + 3 * row["se_capacity"]
        ok = ok and row["mean_capacity"] <= margin
        details.append(f"n={row['n']}: {row['mean_capacity']:.4f} <= "
                       f"{row['mean_capacity_bound']:.4f}+3se")
    report(10, ok, "; ".join(details))


# -- criterion 11: threshold phenomenology ------------------------------------


@pytest.fixture(scope="module")
def threshold_scans():
    common = dict(pmf=PMFS["dirac2"], beta=BETA_16, n_grid=(10, 14, 18, 22),
                  replicas=2000, mode="magnetization", method="pruned",
                  master_seed=20240811)
    rows_a = run_magnetization_scan(
        ExperimentConfig(schedule=PSchedule("threshold", 1.0), **common))
    rows_b = run_magnetization_scan(
        ExperimentConfig(schedule=PSchedule("threshold_geometric", 1.0, 0.7),
                         **common))
    return rows_a, rows_b


def test_criterion_11a_threshold_schedule_is_stable(threshold_scans):
    rows_a, _ = threshold_scans
    probs = [r["prob_m_gt_eps"] for r in rows_a if r["epsilon"] == 0.05]
    spread = max(probs) - min(probs)
    report(11, spread <= 0.2,
           f"(a) P(m>0.05) = {probs} at p_n = 1.6^-n: spread {spread:.3f} within +-0.1")


def test_criterion_11b_subthreshold_schedule_dies(threshold_scans):
    _, rows_b = threshold_scans
    probs = [r["prob_m_gt_eps"] for r in rows_b if r["epsilon"] == 0.05]
    monotone = all(a >= b - 0.02 for a, b in zip(probs, probs[1:]))
    report(11, monotone and probs[-1] < 0.05,
           f"(b) P(m>0.05) = {probs} decreasing, final < 0.05")


def test_criterion_11c_decay_rate_matches_envelope(threshold_scans):
    _, rows_b = threshold_scans
    by_n = sorted({r["n"]: r["mean_r"] for r in rows_b}.items())
    ns = np.array([n for n, _ in by_n], dtype=float)
    log_means = np.log([m for _, m in by_n])
    slope = float(np.polyfit(ns, log_means, 1)[0])
    ok = abs(slope - math.log(0.7)) <= 0.2 * abs(math.log(0.7))
    report(11, ok, f"(c) fitted decay rate {slope:.4f} vs log 0.7 = "
                   f"{math.log(0.7):.4f} (within 20%)")


# -- criterion 12: magnetization/capacity ratio stability ----------------------


def test_criterion_12_ratio_interval_stability():
    lo, hi = RATIO_INTERVAL
    width = hi - lo
    wlo, whi = lo - 0.05 * width, hi + 0.05 * width
    fresh = ratio_corpus(20240812, reps=13)
    ok = bool(fresh.min() >= wlo and fresh.max() <= whi)
    report(12, ok,
           f"fresh-seed ratios in [{fresh.min():.4f}, {fresh.max():.4f}] inside "
           f"frozen [{lo:.4f}, {hi:.4f}] widened by 10%")


def test_frozen_ratio_interval_reproduces():
    # guard against a stale fixture, like test_frozen_constants_reproduce:
    # the calibration corpus gives the frozen ends up to rounding
    cal = ratio_corpus(RATIO_CORPUS_SEED, 200)
    assert (cal.min(), cal.max()) == pytest.approx(RATIO_INTERVAL, rel=1e-12, abs=0)


# -- criterion 13: total-variation crossing ------------------------------------


def test_criterion_13_tv_crossing_near_kstar():
    configs = [("dirac2", 2.0**-10, 30), ("dirac2", 2.0**-5, 20),
               ("half13", 0.01, 40), ("half12", 0.02, 24)]
    details = []
    ok = True
    for name, p_n, n in configs:
        profile = g.gamma_profile(PMFS[name], p_n, n)
        assert profile.k_star >= 10.0
        to_mu, to_dirac = g.tv_profile(profile)
        crossing = tv_crossing(to_mu, to_dirac)
        gap = abs(crossing - profile.k_star)
        ok = ok and gap <= 5.0
        details.append(f"{name}: |{crossing:.1f} - k*={profile.k_star:.1f}| = {gap:.1f}")
    report(13, ok, "; ".join(details) + " (all <= 5)")


# -- criterion 14: determinism across worker counts ----------------------------


def test_criterion_14_worker_count_determinism(tmp_path):
    from gwising.cli import parse_and_dispatch
    config = {
        "schema_version": 1, "pmf": {"entries": [[1, 0.5], [2, 0.5]]},
        "beta": 0.9, "p_schedule": {"kind": "constant", "c": 0.4},
        "n_grid": [3, 4], "replicas": 10, "mode": "magnetization",
        "master_seed": 14,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for workers in (1, 3):
        out_dir = tmp_path / f"w{workers}"
        code = parse_and_dispatch(["--quiet", "magnetization-scan",
                                   "--config", str(cfg_path),
                                   "--out", str(out_dir),
                                   "--workers", str(workers)])
        assert code == 0
        outputs.append((out_dir / "magnetization.csv").read_bytes())
    report(14, outputs[0] == outputs[1],
           "scan CSV byte-identical for 1 and 3 workers")


# -- criterion 15: the analytic bounds at criticality ---------------------------


@pytest.fixture(scope="module")
def critical_scans():
    # half-{1,2} at beta = atanh(2/3), so nu tanh(beta) = 1, with every leaf
    # marked (p_n = 1): the pruned law is the base law, and alpha_n = n^-1/2
    common = dict(pmf=PMFS["half12"], beta=math.atanh(2.0 / 3.0),
                  schedule=PSchedule("constant", 1.0), n_grid=(12, 16, 20),
                  replicas=1000, master_seed=20240815)
    rows = run_magnetization_scan(
        ExperimentConfig(mode="magnetization", method="pruned", **common))
    summary = run_capacity_scan(ExperimentConfig(mode="capacity", **common))["summary"]
    return rows, summary


def test_criterion_15a_mean_capacity_bound_at_criticality(critical_scans):
    _, summary = critical_scans
    details = []
    ok = len(summary) == 3
    for row in summary:
        margin = row["mean_capacity_bound"] + 3 * row["se_capacity"]
        ok = ok and row["mean_capacity"] <= margin
        details.append(f"n={row['n']}: {row['mean_capacity']:.4f} <= "
                       f"{row['mean_capacity_bound']:.4f}+3se")
    report(15, ok, "(a) " + "; ".join(details))


def test_criterion_15b_mean_r_bound_at_criticality(critical_scans):
    rows, _ = critical_scans
    by_n = {r["n"]: (r["mean_r"], r["mean_r_bound"]) for r in rows}
    ok = sorted(by_n) == [12, 16, 20] and all(m <= b for m, b in by_n.values())
    report(15, ok, "(b) " + "; ".join(f"n={n}: {m:.4f} <= {b:.4f}"
                                      for n, (m, b) in sorted(by_n.items())))
