"""Poisson-basis approximation of Lipschitz functions with small coefficients.

Pipeline: interpolate the function on each local interval by a low-degree
polynomial (Chebyshev nodes give a near-best fit), convert the shifted
monomial basis into the Poisson falling-factorial basis at half rate,
evaluating each block only on the counts of its outer range, and splice
the blocks with binomial mixture weights.  The result approximates
1-Lipschitz functions at the sqrt(x / (n log n)) scale while keeping every
coefficient within O(n^(eps-1) sqrt(j)) of the plain choice f(j/n).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.special import gammaln

from .core import poisson_pmf_windows
from .errors import DomainError, RateMismatchError
from .intervals import IntervalScheme, build_scheme
from .moments import D_MAX, charlier_family, degree_for

__all__ = [
    "LocalPolynomial",
    "LocalBlock",
    "PoissonPolynomial",
    "ApproxReport",
    "jackson_approx",
    "monomial_to_poisson",
    "glue",
    "evaluate",
    "verify_bounds",
    "naive_coefficients",
    "build_poisson_approximation",
    "DEFAULT_APPROX_C1",
    "DEFAULT_APPROX_C2",
]

DEFAULT_APPROX_C1 = 4.0
DEFAULT_APPROX_C2 = 1.2

# Doubles in one tile's reduce buffer in `glue`, r (r + width) for r rows:
# keeps its working memory flat in n, at 128 KB per block.
_TILE_DOUBLES = 1 << 14


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
    if degree > D_MAX:
        raise DomainError(f"degree capped at {D_MAX}")
    if hi <= lo:
        raise DomainError("empty interval")
    if degree < 1:
        raise DomainError("degree must be at least 1")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
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
    if P.degree > D_MAX:
        raise DomainError(f"degree capped at {D_MAX}")
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


def glue(
    blocks: list[LocalBlock] | tuple[LocalBlock, ...],
    n: int,
    scheme: IntervalScheme,
) -> np.ndarray:
    """Splice per-interval blocks into one coefficient sequence at rate n.

    b_j collects, over every interval m, every nonzero block coefficient b_l
    and every count k in the half-rate version of I_m (j = l + k), the term
    b_l * exp(log C(j, k) - j log 2).  The log-weight is formed as in
    `core.binom_half_logpmf`: gammaln(j + 1) - gammaln(k + 1) -
    gammaln(l + 1) - j log 2, subtracted in that order, with the log-gamma
    values and j log 2 read from tables over 0..j_max.  Each block's terms
    are built in tiles whose row l is the window j = l + k_lo .. l + k_hi of
    those tables.  A tile of r rows is written into a buffer of r + 1
    rows, row l shifted right by l, below the output segment it covers in
    row 0, and one reduce over the rows replaces that segment; tiles keep
    r (r + width) within _TILE_DOUBLES values.  Each block allocates one
    tile array and one buffer, zeroed once, both sized for its full tiles; a
    tile overwrites the whole skewed band of its rows, and a short last tile
    takes the top-left corner, so the triangles beside the band stay zero.  The reduce adds rows in
    order, so every b_j sees its terms in ascending l, block by block, as
    when adding one term at a time.  Rows of b_l = 0 and the buffer's zeros
    add +0.0, which leaves the output (never -0.0) as it is, so the result
    is byte-equal to that definition.
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
    j = np.arange(j_max + 1, dtype=float)
    log_fact = gammaln(j + 1.0)
    j_log2 = j * math.log(2.0)
    for blk in blocks:
        k_lo, k_hi = scheme.half_range(blk.m)
        k_lo = max(k_lo, 0)
        width = k_hi - k_lo + 1
        nonzero = np.flatnonzero(blk.values)
        if nonzero.size == 0 or width < 1:
            continue
        fact_rows = sliding_window_view(log_fact, width)
        log2_rows = sliding_window_view(j_log2, width)
        fact_k = log_fact[k_lo : k_hi + 1]
        l_end = blk.offset + int(nonzero[-1]) + 1
        # the largest r with r (r + width) <= _TILE_DOUBLES, at least 1
        step = max(1, (math.isqrt(width * width + 4 * _TILE_DOUBLES) - width) // 2)
        tiles = np.empty((step, width))
        buf = np.zeros((step + 1, step - 1 + width))
        band = as_strided(buf[1:], shape=(step, width), strides=(buf.strides[0] + buf.itemsize, buf.itemsize))
        for l_first in range(blk.offset + int(nonzero[0]), l_end, step):
            ls = range(l_first, min(l_first + step, l_end))
            rows = len(ls)
            windows = slice(ls.start + k_lo, ls.stop + k_lo)
            tile = np.subtract(fact_rows[windows], fact_k, out=tiles[:rows])
            tile -= log_fact[ls.start : ls.stop, None]
            tile -= log2_rows[windows]
            np.exp(tile, out=tile)
            segment = out[ls.start + k_lo : ls.stop + k_hi]
            sub = buf[: rows + 1, : segment.size]
            sub[0] = segment
            b = blk.values[ls.start - blk.offset : ls.stop - blk.offset]
            np.multiply(tile, b[:, None], out=band[:rows])
            np.add.reduce(sub, axis=0, out=segment)
    return out


def evaluate(poly: PoissonPolynomial, x):
    """sum_j b_j P(Poisson(n x) = j), at one x (a float) or elementwise over an array.

    Each x sums the counts within 10 sqrt(nx + 1) + 40 of nx.  By Bernstein's
    inequality the Poisson mass beyond that window is below e^-50 on each
    side; computed exactly it is at most 4e-24 for rates nx in [1e-4, 7e4].
    """
    xs = np.asarray(x, dtype=float)
    lam = poly.n * xs.ravel()
    if not np.all(np.isfinite(lam) & (lam >= 0)):
        raise DomainError("x must be a finite number >= 0")
    hw = 10.0 * np.sqrt(lam + 1.0) + 40.0
    top = poly.coeffs.size - 1
    lo = np.clip(lam - hw, 0, top + 1).astype(np.int64)
    hi = np.clip(lam + hw, 0, top).astype(np.int64)
    windows = poisson_pmf_windows(lam, lo, hi)
    out = np.array([poly.coeffs[a : b + 1] @ pmf for a, b, pmf in zip(lo.tolist(), hi.tolist(), windows)])
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _support_cut(n: int, delta: float) -> int:
    """The last coefficient index kept, floor((1 + delta) n)."""
    if not (math.isfinite(delta) and delta >= 0):
        raise DomainError(f"delta must be a finite number >= 0, not {delta!r}")
    return int(math.floor((1.0 + delta) * n + 1e-9))


def _on_array(f: Callable, x: np.ndarray) -> np.ndarray:
    """f called once on the float array x; a scalar result (a constant f)
    fills x's shape."""
    return np.broadcast_to(np.asarray(f(x), dtype=float), x.shape).copy()


def naive_coefficients(
    f: Callable[[np.ndarray], np.ndarray], n: int, delta: float = 1.0
) -> PoissonPolynomial:
    """The plain choice b_j = f(j/n), truncated at (1 + delta) n.

    n must be an integer >= 1.  f is called once, on the float array of
    every j/n, and returns an array of its values or one value for all.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    cut = _support_cut(n, delta)
    coeffs = _on_array(f, np.arange(0, cut + 1) / n)
    return PoissonPolynomial(n=n, delta=delta, coeffs=coeffs)


def build_poisson_approximation(
    f: Callable[[float], float],
    n: int,
    delta: float = 1.0,
    c1: float = DEFAULT_APPROX_C1,
    c2: float = DEFAULT_APPROX_C2,
) -> PoissonPolynomial:
    """Full construction for a 1-Lipschitz f on [0, 1].

    The function is shifted so its value at 0 rides on the exact constant
    term, every local polynomial is built at rate n/2 on its outer count
    range only, the blocks are spliced, and the result is cut at
    (1 + delta) n so the support bound holds by construction.
    """
    cut = _support_cut(n, delta)
    scheme = build_scheme(n, c1, "approximation")
    degree = max(2, degree_for(n, c2))
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
        values = monomial_to_poisson(P, rate, j_lo, j_hi)
        blocks.append(LocalBlock(m=m, rate=rate, offset=j_lo, values=values))

    spliced = glue(blocks, n, scheme)
    coeffs = np.zeros(cut + 1)
    upto = min(cut + 1, spliced.size)
    coeffs[:upto] = spliced[:upto]
    coeffs += f0
    return PoissonPolynomial(
        n=n, delta=delta, coeffs=coeffs, f0=f0, blocks=tuple(blocks), scheme=scheme
    )


def verify_bounds(
    poly: PoissonPolynomial,
    f: Callable[[np.ndarray], np.ndarray],
    eps: float = 0.5,
) -> ApproxReport:
    """Measured statistics behind the approximation guarantees.

    Reports the weighted sup error sup_x |f - F| / sqrt(max(x, 1/n)/(n log n)),
    the worst coefficient deviation |b_j - f(j/n)| * n^(1-eps) / (1 + sqrt(j)),
    and whether the support cut at (1 + delta) n holds exactly.  poly.n must
    be an integer >= 2, so that n log n > 0.  f is called twice, each time
    on a float array (the x grid, then every j/n), and returns an array of
    its values or one value for all.
    """
    if not math.isfinite(eps):
        raise DomainError(f"eps must be finite, not {eps!r}")
    n = poly.n
    if not isinstance(n, numbers.Integral) or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n!r}")
    x_grid = np.unique(
        np.concatenate([np.linspace(0.0, 1.0, 513), np.geomspace(1.0 / (4 * n), 0.05, 160)])
    )
    f_vals = _on_array(f, x_grid)
    F_vals = evaluate(poly, x_grid)
    weights = np.sqrt(np.maximum(x_grid, 1.0 / n) / (n * math.log(n)))
    sup_err = float(np.abs(f_vals - F_vals).max())
    sup_weighted = float((np.abs(f_vals - F_vals) / weights).max())
    j = np.arange(poly.coeffs.size)
    f_at_j = _on_array(f, j / n)
    dev = np.abs(poly.coeffs - f_at_j) * n ** (1.0 - eps) / (1.0 + np.sqrt(j))
    cut = _support_cut(n, poly.delta)
    support_ok = poly.coeffs.size - 1 <= cut or not np.any(poly.coeffs[cut + 1 :])
    return ApproxReport(
        sup_weighted_error=sup_weighted,
        max_coeff_deviation=float(dev.max()),
        support_ok=bool(support_ok),
        max_abs_coeff=float(np.abs(poly.coeffs).max()),
        sup_error=sup_err,
    )
