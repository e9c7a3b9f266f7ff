"""Poisson-basis approximation of Lipschitz functions with small coefficients.

Pipeline: interpolate the function on each local interval by a low-degree
polynomial (Chebyshev nodes give a near-best fit), convert the shifted
monomial basis into the Poisson falling-factorial basis at half rate,
truncate each block to its outer interval, and splice the blocks with
binomial mixture weights.  The result approximates 1-Lipschitz functions at
the sqrt(x / (n log n)) scale while keeping every coefficient within
O(n^(eps-1) sqrt(j)) of the plain choice f(j/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import binom_half_logpmf, poisson_pmf
from .errors import DomainError, RateMismatchError
from .intervals import IntervalScheme, build_scheme
from .moments import charlier_family

__all__ = [
    "LocalPolynomial",
    "LocalBlock",
    "PoissonPolynomial",
    "ApproxReport",
    "jackson_approx",
    "monomial_to_poisson",
    "truncate_local",
    "glue",
    "evaluate",
    "evaluate_blocked",
    "verify_bounds",
    "naive_coefficients",
    "build_poisson_approximation",
    "DEFAULT_APPROX_C1",
    "DEFAULT_APPROX_C2",
]

DEFAULT_APPROX_C1 = 4.0
DEFAULT_APPROX_C2 = 1.2
DEGREE_CAP = 60


@dataclass(frozen=True)
class LocalPolynomial:
    """Degree-D polynomial sum a_d (x - center)^d fitted on [lo, hi]."""

    m: int
    center: float
    coeffs: np.ndarray
    lo: float
    hi: float

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        xx = np.asarray(x, dtype=float) - self.center
        out = np.zeros_like(xx)
        for c in self.coeffs[::-1]:
            out = out * xx + c
        return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class LocalBlock:
    """Poisson coefficients of one local interval, at the given rate."""

    m: int
    rate: float
    offset: int
    values: np.ndarray

    def evaluate(self, x: float) -> float:
        j = np.arange(self.offset, self.offset + self.values.size)
        return float(self.values @ poisson_pmf(self.rate * x, j))


@dataclass(frozen=True)
class PoissonPolynomial:
    """Coefficient sequence over the Poisson counting basis at rate n."""

    n: int
    delta: float
    coeffs: np.ndarray                     # dense, index j = 0..len-1
    f0: float = 0.0
    blocks: tuple[LocalBlock, ...] = ()
    scheme: IntervalScheme | None = None

    @property
    def support_end(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0


@dataclass(frozen=True)
class ApproxReport:
    sup_weighted_error: float
    max_coeff_deviation: float
    support_ok: bool
    max_abs_coeff: float
    sup_error: float


def _cheb_nodes(count: int) -> np.ndarray:
    i = np.arange(count)
    return np.cos((2 * i + 1) * math.pi / (2 * count))


def _taylor_shift(coeffs: np.ndarray, s: float) -> np.ndarray:
    """Coefficients of p(v + s) given those of p(u)."""
    out = coeffs.astype(float).copy()
    d = out.size - 1
    for i in range(d + 1):
        for j in range(d - 1, i - 1, -1):
            out[j] += s * out[j + 1]
    return out


def jackson_approx(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    degree: int,
    center: float | None = None,
    m: int = 0,
) -> LocalPolynomial:
    """Near-best polynomial fit by Chebyshev-node interpolation on [lo, hi].

    Coefficients are returned in the shifted basis (x - center)^d.
    """
    if degree > DEGREE_CAP:
        raise DomainError(f"degree capped at {DEGREE_CAP}")
    if hi <= lo:
        raise DomainError("empty interval")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if degree < 1:
        probes = np.linspace(lo, hi, 5)
        vals = np.asarray([f(float(x)) for x in probes])
        if np.ptp(vals) > 1e-14:
            raise DomainError("degree 0 cannot represent a non-constant function")
        degree = 0
    nodes = _cheb_nodes(degree + 1)
    xs = mid + half * nodes
    ys = np.asarray([f(float(x)) for x in xs])
    # interpolation coefficients in the Chebyshev basis on [-1, 1]
    count = degree + 1
    tk = np.polynomial.chebyshev.chebvander(nodes, degree)  # (count, degree+1)
    cheb = (2.0 / count) * (tk.T @ ys)
    cheb[0] /= 2.0
    power_t = np.polynomial.chebyshev.cheb2poly(cheb)
    power_t = np.pad(power_t, (0, count - power_t.size))
    # substitute t = (x - mid)/half, then re-center
    power_u = power_t / half ** np.arange(count)
    c = mid if center is None else float(center)
    coeffs = _taylor_shift(power_u, c - mid)
    return LocalPolynomial(m=m, center=c, coeffs=coeffs, lo=lo, hi=hi)


def monomial_to_poisson(P: LocalPolynomial, rate: float, j_lo: int, j_hi: int) -> np.ndarray:
    """Coefficients b_j with sum_j b_j P(Poisson(rate*x) = j) == P(x).

    Uses the identity expressing falling factorials of the count as exact
    unbiased lifts of monomials; evaluated through the same stable
    three-term recurrence as the moment kernels.
    """
    if P.degree > DEGREE_CAP:
        raise DomainError(f"degree capped at {DEGREE_CAP}")
    j = np.arange(j_lo, j_hi + 1, dtype=float)
    fam = charlier_family(j, rate * P.center, P.degree)
    scale = (1.0 / rate) ** np.arange(P.degree + 1)
    return (P.coeffs * scale) @ fam


def _outer_count_range(scheme: IntervalScheme, m: int, rate: float) -> tuple[int, int]:
    """Counts j with j / rate in the m-th outer truncation interval, inclusive."""
    i = scheme.index(m)
    return (
        int(math.ceil(scheme.cut_left[i] * rate - 1e-9)),
        int(math.floor(scheme.cut_right[i] * rate + 1e-9)),
    )


def truncate_local(
    b_star: np.ndarray, m: int, scheme: IntervalScheme, rate: float, j_lo: int = 0
) -> LocalBlock:
    """Zero all coefficients outside the outer interval's count range."""
    if scheme.variant != "approximation":
        raise DomainError("truncation needs the approximation-variant scheme")
    lo, hi = _outer_count_range(scheme, m, rate)
    first = max(lo, j_lo)
    last = min(hi, j_lo + b_star.size - 1)
    if last < first:
        return LocalBlock(m=m, rate=rate, offset=0, values=np.zeros(0))
    vals = b_star[first - j_lo : last - j_lo + 1].copy()
    return LocalBlock(m=m, rate=rate, offset=first, values=vals)


def glue(
    blocks: list[LocalBlock] | tuple[LocalBlock, ...],
    n: int,
    scheme: IntervalScheme,
) -> np.ndarray:
    """Splice per-interval blocks into one coefficient sequence at rate n.

    b_j collects, over every interval m and every count k in the half-rate
    version of I_m, the binomial(j, 1/2) weight at k times the block
    coefficient at j - k.
    """
    if scheme.variant != "approximation":
        raise DomainError("gluing needs the approximation-variant scheme")
    rate = n / 2.0
    for blk in blocks:
        if abs(blk.rate - rate) > 1e-9:
            raise RateMismatchError(
                f"block for interval {blk.m} built at rate {blk.rate}, expected {rate}"
            )
    j_max = 0
    for blk in blocks:
        if blk.values.size == 0:
            continue
        _, k_hi = scheme.half_range(blk.m)
        j_max = max(j_max, k_hi + blk.offset + blk.values.size - 1)
    out = np.zeros(j_max + 1)
    for blk in blocks:
        if blk.values.size == 0:
            continue
        k_lo, k_hi = scheme.half_range(blk.m)
        k_lo = max(k_lo, 0)
        if k_hi < k_lo:
            continue
        ks = np.arange(k_lo, k_hi + 1, dtype=float)
        for li, b_l in enumerate(blk.values):
            if b_l == 0.0:
                continue
            l = blk.offset + li
            js = ks + l
            out[js.astype(int)] += b_l * np.exp(binom_half_logpmf(js, ks))
    return out


def evaluate(poly: PoissonPolynomial, x: float) -> float:
    """Direct coefficient-sum evaluation, tail-truncated below 1e-13 mass."""
    lam = poly.n * x
    if lam < 0:
        raise DomainError("x must be >= 0")
    hw = 40.0 * math.sqrt(lam + 1.0) + 40.0
    lo = max(0, int(lam - hw))
    hi = min(poly.coeffs.size - 1, int(lam + hw))
    if hi < lo:
        return 0.0
    j = np.arange(lo, hi + 1)
    return float(poly.coeffs[lo : hi + 1] @ poisson_pmf(lam, j))


def evaluate_many(poly: PoissonPolynomial, xs: np.ndarray) -> np.ndarray:
    return np.asarray([evaluate(poly, float(x)) for x in xs])


def evaluate_blocked(poly: PoissonPolynomial, x: float) -> float:
    """Identity route: half-rate interval weights times local block values."""
    if not poly.blocks or poly.scheme is None:
        raise DomainError("polynomial carries no block decomposition")
    scheme = poly.scheme
    rate = poly.n / 2.0
    lam = rate * x
    total = 0.0
    for blk in poly.blocks:
        k_lo, k_hi = scheme.half_range(blk.m)
        if k_hi < max(k_lo, 0):
            continue
        ks = np.arange(max(k_lo, 0), k_hi + 1)
        weight = float(poisson_pmf(lam, ks).sum())
        if weight == 0.0 or blk.values.size == 0:
            continue
        total += weight * blk.evaluate(x)
    cut = poly.coeffs.size - 1
    lam_full = poly.n * x
    jmax = min(cut, int(lam_full + 40.0 * math.sqrt(lam_full + 1.0) + 40.0))
    f0_weight = float(poisson_pmf(lam_full, np.arange(0, jmax + 1)).sum()) if poly.f0 else 0.0
    return total + poly.f0 * f0_weight


def naive_coefficients(f: Callable[[float], float], n: int, delta: float = 1.0) -> PoissonPolynomial:
    """The plain choice b_j = f(j/n), truncated at (1 + delta) n."""
    cut = int(math.floor((1.0 + delta) * n + 1e-9))
    j = np.arange(0, cut + 1)
    coeffs = np.asarray([f(float(t) / n) for t in j])
    return PoissonPolynomial(n=n, delta=delta, coeffs=coeffs)


def build_poisson_approximation(
    f: Callable[[float], float],
    n: int,
    delta: float = 1.0,
    c1: float = DEFAULT_APPROX_C1,
    c2: float = DEFAULT_APPROX_C2,
    scheme: IntervalScheme | None = None,
) -> PoissonPolynomial:
    """Full construction for a 1-Lipschitz f on [0, 1].

    The function is shifted so its value at 0 rides on the exact constant
    term, every local polynomial is built at rate n/2, blocks are truncated
    to their outer count ranges, spliced, and the result is cut at
    (1 + delta) n so the support bound holds by construction.
    """
    if scheme is None:
        scheme = build_scheme(n, c1, "approximation")
    if scheme.variant != "approximation":
        raise DomainError("needs the approximation-variant scheme")
    degree = max(2, int(round(c2 * math.log(n))))
    f0 = float(f(0.0))

    def g(x: float) -> float:
        return float(f(x)) - f0

    rate = n / 2.0
    blocks = []
    for m in range(1, scheme.M + 1):
        i = m - 1
        lo, hi = float(scheme.tilde_left[i]), float(scheme.tilde_right[i])
        P = jackson_approx(g, lo, hi, degree, center=float(scheme.centers[i]), m=m)
        j_lo, j_hi = _outer_count_range(scheme, m, rate)
        b_star = monomial_to_poisson(P, rate, j_lo, j_hi)
        blocks.append(truncate_local(b_star, m, scheme, rate, j_lo))

    spliced = glue(blocks, n, scheme)
    cut = int(math.floor((1.0 + delta) * n + 1e-9))
    coeffs = np.zeros(cut + 1)
    upto = min(cut + 1, spliced.size)
    coeffs[:upto] = spliced[:upto]
    coeffs += f0
    return PoissonPolynomial(
        n=n, delta=delta, coeffs=coeffs, f0=f0, blocks=tuple(blocks), scheme=scheme
    )


def verify_bounds(
    poly: PoissonPolynomial,
    f: Callable[[float], float],
    eps: float = 0.5,
    x_grid: np.ndarray | None = None,
) -> ApproxReport:
    """Measured statistics behind the approximation guarantees.

    Reports the weighted sup error sup_x |f - F| / sqrt(max(x, 1/n)/(n log n)),
    the worst coefficient deviation |b_j - f(j/n)| * n^(1-eps) / (1 + sqrt(j)),
    and whether the support cut at (1 + delta) n holds exactly.
    """
    n = poly.n
    if x_grid is None:
        x_grid = np.unique(
            np.concatenate(
                [
                    np.linspace(0.0, 1.0, 513),
                    np.geomspace(1.0 / (4 * n), 0.05, 160),
                ]
            )
        )
    f_vals = np.asarray([f(float(x)) for x in x_grid])
    F_vals = evaluate_many(poly, x_grid)
    weights = np.sqrt(np.maximum(x_grid, 1.0 / n) / (n * math.log(n)))
    sup_err = float(np.abs(f_vals - F_vals).max())
    sup_weighted = float((np.abs(f_vals - F_vals) / weights).max())
    j = np.arange(poly.coeffs.size)
    f_at_j = np.asarray([f(float(t) / n) for t in j])
    dev = np.abs(poly.coeffs - f_at_j) * n ** (1.0 - eps) / (1.0 + np.sqrt(j))
    cut = int(math.floor((1.0 + poly.delta) * n + 1e-9))
    support_ok = poly.coeffs.size - 1 <= cut or not np.any(poly.coeffs[cut + 1 :])
    return ApproxReport(
        sup_weighted_error=sup_weighted,
        max_coeff_deviation=float(dev.max()),
        support_ok=bool(support_ok),
        max_abs_coeff=float(np.abs(poly.coeffs).max()),
        sup_error=sup_err,
    )
