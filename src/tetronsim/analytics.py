"""Closed-form leakage predictions and fitting routines.

Sudden-limit formulas follow from the overlap of quasiparticle wavefunctions
before and after an instantaneous change of the chemical potential; the
near-adiabatic formulas from half Landau-Zener transition amplitudes with the
dynamic phase E_gap * mu_fin / v setting the oscillation frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import FitConvergenceError, InvalidParameterError
from .model import ModeBasis, band_gap, bulk_energy


@dataclass(frozen=True)
class FitResult:
    """Named parameters plus residual diagnostics of a least-squares fit.

    Every fit builds it with :func:`_fit_result`: ``residual_norm`` and
    ``r_squared`` are of the residuals of the fitted quantity, and ``domain``
    spans the rates or lengths of every sample passed in.
    """

    parameters: Dict[str, float]
    residual_norm: float
    r_squared: float
    domain: Tuple[float, float]

    def __getitem__(self, key: str) -> float:
        return self.parameters[key]


def sudden_even_prediction(n_sites: int, mu_fin: float) -> float:
    """Bulk-pair leakage after a quench from mu=0: (N - 2) mu_fin^2 / 8.

    The closed form holds for pairing equal to hopping, both 1/2, with the
    quench starting at mu = 0 (:func:`sudden_even_integral` takes any of
    them); the two boundary sites are excluded from the bulk count.
    """
    return (n_sites - 2) * mu_fin ** 2 / 8.0


def sudden_even_integral(n_sites: int, mu_in: float, mu_fin: float,
                         w: float, delta: float) -> float:
    """Brillouin-zone integral behind the sudden even-sector leakage.

    The mode-mixing amplitude for momentum k under a small sudden change of
    mu is beta_k = -delta_k (mu_fin - mu_in) / (2 E_bulk(k)^2) with
    delta_k = 2 Delta sin k; the leakage is the bulk-count prefactor
    (N - 2)/(2 pi) times the integral of |beta_k|^2 over the zone.
    """
    # scipy is imported here, not at module level, so importing the CLI stays light
    from scipy import integrate
    dmu = mu_fin - mu_in

    def integrand(k):
        e = bulk_energy(k, mu_in, w, delta)
        beta = -2.0 * delta * np.sin(k) * dmu / (2.0 * e ** 2)
        return beta ** 2

    val, err = integrate.quad(integrand, -np.pi, np.pi, epsabs=1e-12, epsrel=1e-10, limit=200)
    if err > 1e-8 * max(abs(val), 1.0):
        raise FitConvergenceError("quadrature did not converge: estimate %g" % err)
    return (n_sites - 2) / (2.0 * np.pi) * val


def mzm_overlap(basis_in: ModeBasis, basis_fin: ModeBasis) -> float:
    """Overlap alpha = |v_0 . v_0'| of the MZMs of two bases, the same for all four.

    u_0 = +-J v_0, so a left MZM has no overlap with the other basis's right
    one.  The sign of v_0 is a gauge choice, so only |alpha| is meaningful.
    """
    return abs(float(basis_in.v[:, 0] @ basis_fin.v[:, 0]))


def sudden_odd_prediction(basis_in: ModeBasis, basis_fin: ModeBasis) -> float:
    """Parity-sector leakage after a quench: (1 - alpha^4) / 2, the four MZMs' product.

    Raises InvalidParameterError when alpha < 0.5.
    """
    alpha = mzm_overlap(basis_in, basis_fin)
    if alpha < 0.5:
        raise InvalidParameterError(
            "MZM overlap %g < 0.5: quench too large for the sudden-limit estimate" % alpha)
    return 0.5 * (1.0 - alpha ** 4)


def near_adiabatic_even_envelope(n_sites: int, v: float) -> float:
    """Crest of the even-sector leakage oscillation at slow ramps: N v^2 / 8."""
    return n_sites * v * v / 8.0


def dynamic_phase_frequency(mu_fin: float, gap: Optional[float] = None,
                            w: float = 0.5) -> float:
    """Oscillation frequency (coefficient of 1/v) of the slow-ramp leakage.

    The accumulated dynamic phase of a singly excited level over the ramp is
    gap * mu_fin / v, so the parity-sector leakage oscillates at
    omega = gap * mu_fin; the even sector runs at twice this frequency.
    The default gap is evaluated at mid-ramp, mu = mu_fin / 2.
    """
    if gap is None:
        gap = band_gap(mu_fin / 2.0, w)
    return gap * mu_fin


def _fit_result(parameters: Dict[str, float], residuals: np.ndarray, y: np.ndarray,
                x: np.ndarray) -> FitResult:
    """A fit's summary: the residual norm, R^2 of the fitted ``y``, and the domain of ``x``.

    R^2 is 1 - SS_res / SS_tot, or 1 when ``y`` is constant.
    """
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return FitResult(parameters=parameters, residual_norm=float(np.sqrt(ss_res)),
                     r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
                     domain=(float(x.min()), float(x.max())))


def half_lz_model(v: np.ndarray, k1: float, m1: float, k2: float, m2: float,
                  omega: float) -> np.ndarray:
    """Leakage-versus-rate law in the near-adiabatic window."""
    v = np.asarray(v, dtype=float)
    return k1 * v ** m1 + k2 * v ** m2 * np.cos(omega / v)


# fit_half_lz's first stage scans omega from 0 to OMEGA_MAX in steps of OMEGA_STEP: the
# largest oscillation frequency its refinement can start from, and how finely it is found.
OMEGA_MAX = 0.2
OMEGA_STEP = 1e-4


def fit_half_lz(samples: Sequence[Tuple[float, float]]) -> FitResult:
    """Fit L(v) = k1 v^m1 + k2 v^m2 cos(omega/v) on a near-adiabatic window.

    Stage one scans omega on the uniform grid of :data:`OMEGA_STEP` up to
    :data:`OMEGA_MAX` with m1 = m2 = 2 fixed and the amplitudes solved
    linearly; stage two refines all five parameters from the best grid
    point.  Both stages are deterministic.  The residual norm and R^2 are
    those of the refined model.
    """
    # scipy is imported here, not at module level, so importing the CLI stays light
    from scipy.optimize import least_squares
    data = np.asarray(samples, dtype=float)
    if data.shape[0] < 20:
        raise FitConvergenceError("need at least 20 samples, got %d" % data.shape[0])
    v = data[:, 0]
    ell = data[:, 1]
    v2 = v ** 2
    inv_v = 1.0 / v

    best = None
    for omega in np.arange(0.0, OMEGA_MAX + OMEGA_STEP / 2, OMEGA_STEP):
        design = np.column_stack([v2, v2 * np.cos(omega * inv_v)])
        coef, *_ = np.linalg.lstsq(design, ell, rcond=None)
        resid = float(np.sum((design @ coef - ell) ** 2))
        if best is None or resid < best[0]:
            best = (resid, omega, coef)
    _, omega0, (k1_0, k2_0) = best

    if omega0 > 0 and (inv_v.max() - inv_v.min()) * omega0 < 2.0 * np.pi:
        raise FitConvergenceError("window does not resolve one oscillation period")

    def residuals(p):
        return half_lz_model(v, *p) - ell

    sol = least_squares(residuals, x0=[k1_0, 2.0, k2_0, 2.0, omega0],
                        ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=20000)
    if not sol.success:
        raise FitConvergenceError("refinement failed: %s" % sol.message)
    k1, m1, k2, m2, omega = (float(x) for x in sol.x)
    # cos is even in omega and k2 can absorb a sign; report the canonical branch
    return _fit_result({"k1": k1, "m1": m1, "k2": k2, "m2": m2, "omega": abs(omega)},
                       sol.fun, ell, v)


def fit_power_approach(samples: Sequence[Tuple[float, float]], l_inf: float) -> FitResult:
    """Log-log slope of the approach L(v) = L(inf) - k / v^|m| at high rates.

    The line is fitted to log(L(inf) - L) against log v over the samples below
    the asymptote, so the residual norm and R^2 are of that log; the domain
    spans every sample.
    """
    data = np.asarray(samples, dtype=float).reshape(-1, 2)
    v = data[:, 0]
    ell = data[:, 1]
    diff = l_inf - ell
    keep = diff > 0
    if np.count_nonzero(~keep) > 0.2 * len(diff):
        raise FitConvergenceError(
            "%d of %d samples sit above the asymptote" % (np.count_nonzero(~keep), len(diff))
        )
    if np.count_nonzero(keep) < 2:
        raise FitConvergenceError("not enough usable samples")
    x, y = np.log(v[keep]), np.log(diff[keep])
    slope, intercept = (float(c) for c in np.polyfit(x, y, 1))
    return _fit_result({"slope": slope, "intercept": intercept, "k": float(np.exp(intercept)),
                        "l_inf": l_inf}, slope * x + intercept - y, y, v)


def fit_linear_in_n(samples: Sequence[Tuple[float, float]]) -> FitResult:
    """Ordinary least squares of leakage against chain length, with its residual norm and R^2."""
    data = np.asarray(samples, dtype=float)
    if data.shape[0] < 5:
        raise FitConvergenceError("need at least 5 lengths, got %d" % data.shape[0])
    n, ell = data[:, 0], data[:, 1]
    slope, intercept = (float(c) for c in np.polyfit(n, ell, 1))
    return _fit_result({"slope": slope, "intercept": intercept}, slope * n + intercept - ell,
                       ell, n)
