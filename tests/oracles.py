"""Independent numerical oracles used by the test suite.

Everything here is written from the underlying formulas with its own
numerics (direct power sums, linear-space normalizers, library quadrature
and root finding) so it shares no code path with the package internals it
checks.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln


def oracle_log_integrands(betas, spec, sample):
    """Direct transcription of the three shape integrands, shape (3, m)."""
    b = np.asarray(betas, dtype=float)
    w = np.asarray(spec.w_rule(b), dtype=float)
    a = spec.xbar_R * np.exp(gammaln(w) - gammaln(w - 1.0 / b))
    times = np.asarray(sample.times, dtype=float)
    # power sums of the times over the largest one, so times up to 1e200 and
    # shapes up to 20 stay in range; ln A then gets the factor back
    scale = float(times.max()) if times.size else 1.0
    S = ((times[None, :] / scale) ** b[:, None]).sum(axis=1)
    K = math.log(1.0 / spec.R)
    log_A = b * math.log(scale) + np.log((a / scale) ** b + K * S)
    log_P = float(np.log(np.asarray(sample.failure_times, dtype=float)).sum()) if sample.r else 0.0
    r = sample.r
    base = r * np.log(b) + b * w * np.log(a) + b * log_P - gammaln(w)
    l0 = base - (r + w) * log_A + gammaln(r + w)
    l1 = base - (r + w - 1.0 / b) * log_A + gammaln(r + w - 1.0 / b)
    return np.vstack([l0, l1, l0 + np.log(b)])


def trapezoid_log_integrals(spec, sample, points=10**6):
    """Brute-force trapezoid values of (log I_0, log I_1, log I_2)."""
    iv = spec.interval
    betas = np.linspace(iv.beta1, iv.beta2, points)
    logf = oracle_log_integrands(betas, spec, sample)
    peak = logf.max(axis=1, keepdims=True)
    vals = np.trapezoid(np.exp(logf - peak), betas, axis=1)
    return peak[:, 0] + np.log(vals)


def gauss_legendre_log_integrals(spec, sample, panels=20_000, nodes=20):
    """Brute-force composite Gauss-Legendre values of (log I_0, log I_1, log I_2),
    for integrands too steep for the trapezoid rule."""
    iv = spec.interval
    x, wts = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(iv.beta1, iv.beta2, panels + 1)
    half = 0.5 * np.diff(edges)
    betas = (0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * x).ravel()
    logf = oracle_log_integrands(betas, spec, sample)
    peak = logf.max(axis=1, keepdims=True)
    vals = np.exp(logf - peak) @ (half[:, None] * wts).ravel()
    return peak[:, 0] + np.log(vals)


def igg_moment_quad(a, w, beta, k=0):
    """k-th moment of the inverted-generalized-gamma density by quadrature.

    Integrates in t = ln x, where the upper tail decays like
    exp(-(beta*w - k) t), so a finite window with a computable cutoff
    captures the mass to far below the comparison tolerances.
    """
    decay = beta * w - k
    if decay <= 0.0:
        raise ValueError("moment does not exist")
    t0 = math.log(a)
    t_lo = t0 - 45.0 / beta
    t_hi = t0 + 60.0 / decay + 20.0
    log_c = math.log(beta) + beta * w * t0 - math.lgamma(w)

    # ln integrand = (k+1) t + ln pdf(e^t) = log_c + (k - beta*w) t - exp(-beta (t - t0))
    def f(t):
        return math.exp(log_c + (k - beta * w) * t - math.exp(-beta * (t - t0)))

    value, _ = quad(f, t_lo, t_hi, limit=500, points=[t0, t0 + 5.0 / beta])
    return value


def shape_mle_brentq(times_all, times_failed):
    """Profile-score root by Brent's method on an independent g."""
    lx = np.log(np.asarray(times_all, dtype=float))
    mlf = float(np.mean(np.log(np.asarray(times_failed, dtype=float))))

    def g(b):
        t = b * lx
        p = np.exp(t - t.max())
        return mlf + 1.0 / b - float((p * lx).sum() / p.sum())

    return brentq(g, 1e-4, 1e4, xtol=1e-13, rtol=8.9e-16)


def joint_posterior_means_2d(spec, sample, n_beta=600, n_x=3000, x_span=(1e-4, 1e5)):
    """Posterior means by raw 2-D trapezoid over (x_R, beta).

    Integrates the unnormalized joint numerator directly, with no analytic
    reduction of the reliable-life integral; accuracy is limited by the grid
    (a few 1e-4 relative), which is enough to catch any error in the
    closed-form marginalization.
    """
    iv = spec.interval
    betas = np.linspace(iv.beta1, iv.beta2, n_beta)
    xs = np.exp(np.linspace(math.log(x_span[0]), math.log(x_span[1]), n_x))
    w = np.asarray(spec.w_rule(betas), dtype=float)
    a = spec.xbar_R * np.exp(gammaln(w) - gammaln(w - 1.0 / betas))
    times = np.asarray(sample.times, dtype=float)
    K = math.log(1.0 / spec.R)
    S = (times[None, :] ** betas[:, None]).sum(axis=1) if times.size else np.zeros_like(betas)
    A = a**betas + K * S
    r = sample.r
    log_P = float(np.log(np.asarray(sample.failure_times, dtype=float)).sum()) if r else 0.0
    lx = np.log(xs)
    log_num = (
        (r + 1.0) * np.log(betas)[:, None]
        + (betas * w * np.log(a))[:, None]
        - ((r + w) * betas + 1.0)[:, None] * lx[None, :]
        + (betas * log_P)[:, None]
        - A[:, None] * np.exp(-betas[:, None] * lx[None, :])
        - gammaln(w)[:, None]
    )
    peak = log_num.max()
    f = np.exp(log_num - peak)
    mass_x = np.trapezoid(f, xs, axis=1)
    mean_x_num = np.trapezoid(f * xs[None, :], xs, axis=1)
    total = np.trapezoid(mass_x, betas)
    return (
        float(np.trapezoid(mean_x_num, betas) / total),
        float(np.trapezoid(mass_x * betas, betas) / total),
    )


def grid_rule_violation(rule, interval):
    """First shape with the smallest margin w(beta) - 1/beta <= 0, or None.

    Scans 1025 evenly spaced points plus beta = 1 when it lies inside the
    interval (the kink of the piecewise rule).
    """
    grid = np.linspace(interval.beta1, interval.beta2, 1025)
    if interval.beta1 < 1.0 < interval.beta2:
        grid = np.sort(np.append(grid, 1.0))
    margin = rule(grid) - 1.0 / grid
    worst = int(np.argmin(margin))
    return float(grid[worst]) if margin[worst] <= 0.0 else None


def grid_w_max(rule, interval):
    """Largest weight on 33 evenly spaced shapes plus beta = 1 when inside."""
    grid = np.linspace(interval.beta1, interval.beta2, 33)
    if interval.beta1 < 1.0 < interval.beta2:
        grid = np.append(grid, 1.0)
    return float(np.max(rule(grid)))
