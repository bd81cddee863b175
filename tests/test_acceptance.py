"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The suite exercises the
full simulator at the studied parameter point (hopping = pairing = 1/2,
ramps starting at mu = 0) and checks every headline quantitative result.
"""

import math

import numpy as np
import pytest

from tetronsim.analytics import (
    dynamic_phase_frequency,
    fit_half_lz,
    fit_linear_in_n,
    fit_power_approach,
    near_adiabatic_even_envelope,
    sudden_even_prediction,
    sudden_odd_prediction,
)
from tetronsim.dynamics import (
    SteppingPolicy,
    evolve_ramp,
    evolve_ramps,
    fock_oracle,
    fock_quench,
    sudden_quench,
)
from tetronsim.gaussian import CovarianceMatrix, overlap_sq, pfaffian4
from tetronsim.model import ChainParams, RampProtocol, resolved_basis
from tetronsim.qpwalk import WalkConfig, average_opposite, simulate_pair_walks

from reference import build_chain_bdg, ph_conjugate, qp_vacuum_covariance

W = 0.5

_ramp_cache = {}
_sudden_cache = {}


def params(n):
    return ChainParams(n, W, W)


def final_records(n, mu_fin, vs, steps=800):
    """Cached end-of-ramp records for mu_in = 0, one per rate in vs.

    The rates not cached yet run together through evolve_ramps, which
    takes one eigh per step for all of them.
    """
    missing = sorted({v for v in vs if (n, mu_fin, v, steps) not in _ramp_cache})
    if missing:
        pol = SteppingPolicy(max_dmu_per_step=mu_fin / steps)
        protocols = [RampProtocol(0.0, mu_fin, v) for v in missing]
        for v, traj in zip(missing, evolve_ramps(params(n), protocols, pol)):
            if isinstance(traj, Exception):
                raise traj
            _ramp_cache[(n, mu_fin, v, steps)] = traj[-1]
    return [_ramp_cache[(n, mu_fin, v, steps)] for v in vs]


def final_record(n, mu_fin, v, steps=800):
    return final_records(n, mu_fin, [v], steps)[0]


def sudden_record(n, mu_fin):
    key = (n, mu_fin)
    if key not in _sudden_cache:
        _sudden_cache[key] = sudden_quench(params(n), 0.0, mu_fin)
    return _sudden_cache[key]


def odd_prediction(n, mu_fin):
    """Sudden parity-sector prediction of a quench from mu = 0."""
    return sudden_odd_prediction(resolved_basis(params(n), 0.0), resolved_basis(params(n), mu_fin))


def verdict(num, name, ok, detail):
    print("[%s] criterion %d (%s): %s" % ("PASS" if ok else "FAIL", num, name, detail))
    assert ok, "criterion %d (%s): %s" % (num, name, detail)


# -------------------------------------------------------------------------
# 1. orbital method vs exact Fock oracle
# -------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    steps = 600
    worst = 0.0
    for n in (2, 3):
        for mu_fin in (0.03, 0.1):
            cov = sudden_quench(params(n), 0.0, mu_fin)
            ork = fock_quench(params(n), 0.0, mu_fin)
            worst = max(worst, abs(cov.l_odd - ork.l_odd),
                        abs(cov.l_even - ork.l_even), abs(cov.l_g - ork.l_g))
            for v in (1e-3, 1e-2, 1e-1):
                proto = RampProtocol(0.0, mu_fin, v)
                pol = SteppingPolicy(max_dmu_per_step=mu_fin / steps)
                times = np.linspace(0.0, proto.duration, 6)
                cov_t = evolve_ramp(params(n), proto, pol, sample_times=times)
                [ork_t] = fock_oracle(params(n), [proto], pol, [times])
                for a, b in zip(cov_t, ork_t):
                    worst = max(worst, abs(a.l_odd - b.l_odd),
                                abs(a.l_even - b.l_even), abs(a.l_g - b.l_g))
    verdict(1, "oracle equivalence", worst < 1e-6, "max abs difference %.3e" % worst)


# -------------------------------------------------------------------------
# 2. length scaling at intermediate rate
# -------------------------------------------------------------------------


def test_criterion_2_length_scaling():
    v, mu_fin = 2e-2, 0.03
    lengths = list(range(10, 101, 2))
    records = {n: final_record(n, mu_fin, v) for n in lengths}
    fit = fit_linear_in_n([(n, records[n].l_even) for n in lengths])
    odd = np.array([records[n].l_odd for n in lengths if n >= 20])
    spread = (odd.max() - odd.min()) / odd.mean()
    ok = fit.r_squared > 0.999 and spread < 0.05
    verdict(2, "length scaling",
            ok, "L_even R^2 = %.5f, L_odd spread = %.2f%%" % (fit.r_squared, 100 * spread))


# -------------------------------------------------------------------------
# 3. near-adiabatic log-log slope of the node-averaged total leakage
# -------------------------------------------------------------------------


def _node_averaged_slope(mu_fin, centers):
    """Average L_g over one oscillation period around each center rate.

    Four samples spaced a quarter period apart in 1/v cancel the first and
    second harmonics of the dynamic-phase oscillation exactly, leaving the
    smooth envelope.
    """
    omega = dynamic_phase_frequency(mu_fin)
    period = 2.0 * np.pi / omega
    grid = [1.0 / vc + period * np.array([-0.375, -0.125, 0.125, 0.375]) for vc in centers]
    final_records(40, mu_fin, [1.0 / u for us in grid for u in us])
    averaged = []
    for vc, us in zip(centers, grid):
        values = [final_record(40, mu_fin, 1.0 / u).l_g for u in us]
        averaged.append((vc, float(np.mean(values))))
    data = np.asarray(averaged)
    slope = np.polyfit(np.log(data[:, 0]), np.log(data[:, 1]), 1)[0]
    return float(slope)


def test_criterion_3_near_adiabatic_exponent():
    details = []
    ok = True
    for mu_fin in (0.03, 0.1):
        centers = np.geomspace(1.2e-4, 8.5e-4, 9)
        slope = _node_averaged_slope(mu_fin, centers)
        details.append("mu_fin=%g slope=%.3f" % (mu_fin, slope))
        ok = ok and abs(slope - 2.0) <= 0.15
    verdict(3, "near-adiabatic exponent", ok, "; ".join(details))


# -------------------------------------------------------------------------
# 4/5. sudden-limit closed forms
# -------------------------------------------------------------------------


def test_criterion_4_sudden_even_formula():
    worst = 0.0
    checked = 0
    for mu_fin in (0.01, 0.03):
        for n in range(10, 101, 10):
            rec = sudden_record(n, mu_fin)
            if rec.l_even >= 0.05:
                continue
            pred = sudden_even_prediction(n, mu_fin)
            worst = max(worst, abs(rec.l_even - pred) / pred)
            checked += 1
    ok = checked > 0 and worst <= 0.10
    verdict(4, "sudden even-sector formula", ok,
            "%d points, worst relative deviation %.2f%%" % (checked, 100 * worst))


def test_criterion_5_sudden_odd_formula():
    worst = 0.0
    for mu_fin in (0.01, 0.03):
        for n in range(20, 101, 10):
            rec = sudden_record(n, mu_fin)
            pred = odd_prediction(n, mu_fin)
            worst = max(worst, abs(rec.l_odd - pred) / pred)
    verdict(5, "sudden parity-sector formula", worst <= 0.01,
            "worst relative deviation %.3e" % worst)


# -------------------------------------------------------------------------
# 6. approach to the sudden limit
# -------------------------------------------------------------------------


def test_criterion_6_sudden_approach_exponent():
    details = []
    ok = True
    for mu_fin in (0.01, 0.03, 0.1):
        omega = dynamic_phase_frequency(mu_fin)
        vs = np.geomspace(6 * omega, 60 * omega, 10)
        records = final_records(40, mu_fin, vs, steps=2000)
        ref = sudden_record(40, mu_fin)
        fit_odd = fit_power_approach([(v, r.l_odd) for v, r in zip(vs, records)],
                                     l_inf=ref.l_odd)
        fit_even = fit_power_approach([(v, r.l_even) for v, r in zip(vs, records)],
                                      l_inf=ref.l_even)
        details.append("mu_fin=%g m_odd=%.3f m_even=%.3f"
                       % (mu_fin, fit_odd["slope"], fit_even["slope"]))
        ok = ok and abs(fit_odd["slope"] + 2.0) <= 0.05 and abs(fit_even["slope"] + 2.0) <= 0.05
    verdict(6, "sudden-approach exponent", ok, "; ".join(details))


# -------------------------------------------------------------------------
# 7. near-adiabatic oscillation fit
# -------------------------------------------------------------------------


def test_criterion_7_half_lz_oscillations():
    mu_fin = 0.03
    vs = np.geomspace(4e-4, 1e-3, 80)
    records = final_records(40, mu_fin, vs)
    fit_odd = fit_half_lz([(v, r.l_odd) for v, r in zip(vs, records)])
    fit_even = fit_half_lz([(v, r.l_even) for v, r in zip(vs, records)])
    omega_odd = fit_odd["omega"]
    ratio = fit_even["omega"] / omega_odd
    ok = (abs(omega_odd - 0.030) <= 0.003
          and abs(ratio - 2.0) <= 0.1
          and 1.7 <= fit_odd["m1"] <= 2.3
          and 1.7 <= fit_odd["m2"] <= 2.3)
    verdict(7, "half-LZ oscillations", ok,
            "omega_odd=%.4f, omega_even/omega_odd=%.3f, m1=%.2f, m2=%.2f"
            % (omega_odd, ratio, fit_odd["m1"], fit_odd["m2"]))


# -------------------------------------------------------------------------
# 8. near-adiabatic envelope
# -------------------------------------------------------------------------


def test_criterion_8_even_sector_envelope():
    mu_fin = 0.01
    omega_even = 2.0 * dynamic_phase_frequency(mu_fin)
    ceiling_ok = True
    worst_ratio = 0.0
    crest_ratios = []
    # coarse scan for the ceiling plus local scans around predicted crests
    v_scan = list(np.geomspace(1e-4, 1e-3, 12))
    for m in (3, 4, 5):
        v_crest = omega_even / ((2 * m + 1) * np.pi)
        v_scan.extend(np.linspace(0.88 * v_crest, 1.12 * v_crest, 9))
    crest_best = {m: 0.0 for m in (3, 4, 5)}
    v_scan = [v for v in sorted(v_scan) if 1e-4 <= v <= 1e-3]
    for v, record in zip(v_scan, final_records(40, mu_fin, v_scan)):
        l_even = record.l_even
        envelope = near_adiabatic_even_envelope(40, v)
        worst_ratio = max(worst_ratio, l_even / envelope)
        if l_even > 1.10 * envelope:
            ceiling_ok = False
        for m in (3, 4, 5):
            v_crest = omega_even / ((2 * m + 1) * np.pi)
            if 0.85 * v_crest <= v <= 1.15 * v_crest:
                crest_best[m] = max(crest_best[m], l_even / envelope)
    crest_ratios = [crest_best[m] for m in (3, 4, 5)]
    crest_ok = all(r >= 0.70 for r in crest_ratios)
    verdict(8, "even-sector envelope", ceiling_ok and crest_ok,
            "max L_even/envelope=%.3f, crest ratios=%s"
            % (worst_ratio, ["%.2f" % r for r in crest_ratios]))


# -------------------------------------------------------------------------
# 9. random-walk error model
# -------------------------------------------------------------------------


def test_criterion_9_random_walk():
    # closed form vs direct summation (average_opposite raises on mismatch)
    for length in list(range(1, 21)) + [137, 1000]:
        closed = average_opposite(length)
        assert closed == pytest.approx((1.0 - 1.0 / length) / 3.0, abs=1e-15)
    limit_err = abs(average_opposite(10 ** 6) - 1.0 / 3.0)

    exact = average_opposite(10)
    hits = 0
    for seed in range(100):
        res = simulate_pair_walks(WalkConfig(length=10, trials=10 ** 5, seed=seed))
        if abs(res.p_opposite_mc - exact) <= 2.0 * res.mc_std_error:
            hits += 1
    ok = hits >= 95 and limit_err < 1e-6
    verdict(9, "random-walk model", ok,
            "%d/100 seeds within 2 sigma, long-chain deviation %.1e" % (hits, limit_err))


# -------------------------------------------------------------------------
# 10. invariant suite on randomized inputs
# -------------------------------------------------------------------------


def test_criterion_10_invariants():
    rng = np.random.default_rng(2024)
    checks = []

    # particle-hole symmetry of every constructed matrix
    worst_ph = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        w = float(rng.uniform(0.2, 1.0))
        delta = float(rng.uniform(0.2, 1.0))
        mu = float(rng.uniform(-1.6, 1.6)) * w
        h = build_chain_bdg(ChainParams(n, w, delta), mu).matrix
        worst_ph = max(worst_ph, float(np.max(np.abs(ph_conjugate(h) + h))))
    checks.append(("ph-symmetry", worst_ph < 1e-12, "%.1e" % worst_ph))

    # Pfaffian squared equals determinant
    worst_pf = 0.0
    for _ in range(1000):
        x = rng.normal(size=(4, 4))
        a = x - x.T
        worst_pf = max(worst_pf, abs(pfaffian4(a) ** 2 - np.linalg.det(a)))
    checks.append(("pf^2=det", worst_pf < 1e-10, "%.1e" % worst_pf))

    # overlap normalization on rotated pure covariances
    base = qp_vacuum_covariance(2).matrix
    worst_norm = 0.0
    for _ in range(1000):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        m = CovarianceMatrix(q @ base @ q.T, basis="qp", n_sites=2)
        worst_norm = max(worst_norm, abs(overlap_sq(m, m) - 1.0))
    checks.append(("overlap-norm", worst_norm < 1e-8, "%.1e" % worst_norm))

    # purity drift and the leakage sum identity along a full trajectory
    proto = RampProtocol(0.0, 0.03, 1e-3)
    records = evolve_ramp(params(40), proto,
                          SteppingPolicy(max_dmu_per_step=0.03 / 800),
                          sample_times=np.linspace(0, proto.duration, 21))
    drift = max(r.purity_defect for r in records)
    checks.append(("purity-drift", drift <= 1e-6, "%.1e" % drift))
    sum_ok = all(r.l_g == r.l_odd + r.l_even for r in records)
    bounds_ok = all(-1e-9 <= r.l_odd and r.l_g <= 1 + 1e-9 for r in records)
    min_even = min(r.l_even for r in records)
    checks.append(("leakage-sum", sum_ok and bounds_ok and min_even >= -1e-9,
                   "exact identity, min l_even %.1e" % min_even))

    # length independence of the sudden parity-sector prediction
    p20 = odd_prediction(20, 0.03)
    p100 = odd_prediction(100, 0.03)
    checks.append(("odd-length-independence", abs(p20 - p100) < 1e-6,
                   "%.1e" % abs(p20 - p100)))

    ok = all(c[1] for c in checks)
    detail = ", ".join("%s=%s(%s)" % (name, "ok" if good else "FAIL", d)
                       for name, good, d in checks)
    verdict(10, "invariant suite", ok, detail)
