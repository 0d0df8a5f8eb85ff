"""Boundary symbols and quadrature on the unit circle.

Everything downstream works with functions on the unit circle T (symbols)
and integrals against normalized Lebesgue measure dm = dt/(2*pi).  Symbols
are closed under conjugation, sums and products, and are evaluated
vectorized on numpy arrays.  Integrals use the uniform trapezoid rule on
M-th roots of unity, which is spectrally accurate for smooth integrands;
M is doubled adaptively until the result stabilizes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# Largest node block evaluated at once; bigger grids are accumulated in
# chunks so memory stays flat even at the M cap.
_CHUNK = 1 << 16


class QuadratureError(RuntimeError):
    """Raised when doubling the grid never stabilizes the integral."""


@dataclass(frozen=True)
class QuadratureSettings:
    """Adaptive trapezoid-rule policy.

    m_init : starting number of nodes (power of two)
    m_cap  : hard ceiling on the node count
    tol    : doubling M must move the result by less than this
             (relative to the result's magnitude) before acceptance
    """

    m_init: int = 256
    m_cap: int = 1 << 20
    tol: float = 1e-12

    def __post_init__(self):
        if self.m_init < 2 or self.m_init & (self.m_init - 1):
            raise ValueError("m_init must be a power of two >= 2")
        if self.m_cap < self.m_init:
            raise ValueError("m_cap must be >= m_init")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


DEFAULT_QUADRATURE = QuadratureSettings()


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid of m-th roots of unity with weight 1/m."""

    m: int


def unit_nodes(m: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Roots of unity exp(2*pi*i*j/m) for j in [start, stop)."""
    stop = m if stop is None else stop
    return np.exp((2j * np.pi / m) * np.arange(start, stop))


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


class Symbol:
    """A function on the unit circle, evaluated pointwise.

    Analytic symbols (trig polynomials with nonnegative frequencies,
    Blaschke products, rational functions with poles off the closed disk)
    may also be evaluated inside the disk; conjugated symbols are only
    meaningful on T itself.
    """

    def eval(self, z):
        raise NotImplementedError

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        out = self.eval(zz)
        if np.ndim(z) == 0 and np.ndim(out):
            return complex(out[()])
        return out

    def conj(self) -> "Symbol":
        return ConjSymbol(self)

    def __add__(self, other):
        return SumSymbol((self, _as_symbol(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return SumSymbol((self, ScaledSymbol(-1.0, _as_symbol(other))))

    def __rsub__(self, other):
        return SumSymbol((_as_symbol(other), ScaledSymbol(-1.0, self)))

    def __mul__(self, other):
        if np.isscalar(other):
            return ScaledSymbol(complex(other), self)
        return ProductSymbol((self, _as_symbol(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return ScaledSymbol(-1.0, self)


def _as_symbol(obj) -> Symbol:
    if isinstance(obj, Symbol):
        return obj
    if np.isscalar(obj):
        return TrigPoly({0: complex(obj)})
    raise TypeError(f"cannot interpret {obj!r} as a symbol")


class TrigPoly(Symbol):
    """Trigonometric polynomial sum_k c_k z^k with integer frequencies.

    Coefficients are stored sparsely as {k: c_k}; zero coefficients are
    dropped so the band is the honest support.
    """

    def __init__(self, coeffs: dict | None = None):
        clean = {}
        for k, c in (coeffs or {}).items():
            c = complex(c)
            if c != 0:
                clean[int(k)] = c
        self.coeffs = clean

    @classmethod
    def z(cls, power: int = 1) -> "TrigPoly":
        return cls({power: 1.0})

    @classmethod
    def one(cls) -> "TrigPoly":
        return cls({0: 1.0})

    @property
    def band(self) -> int:
        """Largest |frequency| with a nonzero coefficient."""
        return max((abs(k) for k in self.coeffs), default=0)

    def eval(self, z):
        """Horner's rule in z over the frequencies k >= 0 and in 1/z over
        k < 0: one multiplication per frequency in the band, no powers."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for k in range(max(self.coeffs, default=0), -1, -1):
            out = out * z + self.coeffs.get(k, 0.0)
        low = min(self.coeffs, default=0)
        if low < 0:
            w = 1.0 / z
            tail = np.zeros_like(out)
            for k in range(low, 0):
                tail = (tail + self.coeffs.get(k, 0.0)) * w
            out = out + tail
        return out

    def poisson(self, z: complex) -> complex:
        """Harmonic (Poisson) extension to |z| < 1 in closed form:
        sum_{k>=0} c_k z^k + sum_{k<0} c_k conj(z)^|k|."""
        z = complex(z)
        if not abs(z) < 1:
            raise ValueError("Poisson extension needs |z| < 1")
        return complex(sum(c * (z**k if k >= 0 else z.conjugate() ** -k)
                           for k, c in self.coeffs.items()))

    def conjugate(self) -> "TrigPoly":
        """Structure-preserving conjugate on T: c_k -> conj(c_{-k})."""
        return TrigPoly({-k: np.conj(c) for k, c in self.coeffs.items()})

    def conj(self) -> "TrigPoly":
        return self.conjugate()

    def is_analytic(self) -> bool:
        return all(k >= 0 for k in self.coeffs)

    def __add__(self, other):
        if isinstance(other, TrigPoly):
            out = dict(self.coeffs)
            for k, c in other.coeffs.items():
                out[k] = out.get(k, 0.0) + c
            return TrigPoly(out)
        if np.isscalar(other):
            return self + TrigPoly({0: other})
        return super().__add__(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TrigPoly) or np.isscalar(other):
            return self + (-1.0) * _as_trig(other)
        return super().__sub__(other)

    def __mul__(self, other):
        if np.isscalar(other):
            return TrigPoly({k: complex(other) * c for k, c in self.coeffs.items()})
        if isinstance(other, TrigPoly):
            out: dict[int, complex] = {}
            for k1, c1 in self.coeffs.items():
                for k2, c2 in other.coeffs.items():
                    out[k1 + k2] = out.get(k1 + k2, 0.0) + c1 * c2
            return TrigPoly(out)
        return super().__mul__(other)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __rsub__(self, other):
        if np.isscalar(other):
            return _as_trig(other) - self
        return super().__rsub__(other)

    def __repr__(self):
        terms = ", ".join(f"{k}: {c:.6g}" for k, c in sorted(self.coeffs.items()))
        return f"TrigPoly({{{terms}}})"


def _as_trig(obj) -> TrigPoly:
    if isinstance(obj, TrigPoly):
        return obj
    return TrigPoly({0: complex(obj)})


class RationalSymbol(Symbol):
    """Quotient of two trig polynomials with no poles on T.

    Poles strictly inside or outside the circle are fine (the symbol is
    only integrated over T); a denominator root within `pole_margin` of
    the circle is rejected at construction.
    """

    pole_margin = 1e-9

    def __init__(self, numerator: TrigPoly, denominator: TrigPoly):
        self.numerator = _as_trig(numerator)
        self.denominator = _as_trig(denominator)
        if not self.denominator.coeffs:
            raise ZeroDivisionError("zero denominator")
        for root in _trig_roots(self.denominator):
            if abs(abs(root) - 1.0) < self.pole_margin:
                raise ValueError(f"denominator root {root:.6g} lies on the unit circle")

    def eval(self, z):
        return self.numerator.eval(z) / self.denominator.eval(z)


def _trig_roots(p: TrigPoly) -> np.ndarray:
    """Roots (in C \\ {0}) of a trig polynomial, via companion matrix."""
    kmin = min(p.coeffs)
    kmax = max(p.coeffs)
    poly = np.zeros(kmax - kmin + 1, dtype=complex)
    for k, c in p.coeffs.items():
        poly[kmax - k] = c  # z^{-kmin} * p(z), highest power first
    if len(poly) == 1:
        return np.array([], dtype=complex)
    roots = np.roots(poly)
    return roots[np.abs(roots) > 0]


class ConjSymbol(Symbol):
    """Pointwise complex conjugate of a symbol (boundary values only)."""

    def __init__(self, inner: Symbol):
        self.inner = inner

    def eval(self, z):
        return np.conj(self.inner.eval(z))

    def conj(self) -> Symbol:
        return self.inner


class SumSymbol(Symbol):
    def __init__(self, terms):
        self.terms = tuple(terms)

    def eval(self, z):
        out = np.zeros(np.shape(z), dtype=complex)
        for t in self.terms:
            out = out + t.eval(z)
        return out


class ProductSymbol(Symbol):
    def __init__(self, factors):
        self.factors = tuple(factors)

    def eval(self, z):
        out = np.ones(np.shape(z), dtype=complex)
        for f in self.factors:
            out = out * f.eval(z)
        return out


class ScaledSymbol(Symbol):
    def __init__(self, scale: complex, inner: Symbol):
        self.scale = complex(scale)
        self.inner = inner

    def eval(self, z):
        return self.scale * self.inner.eval(z)


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------


def _grid_sum(block, m: int):
    """Sum of block(nodes) over the m-th roots of unity, in chunks of at
    most _CHUNK nodes taken in order from the node 1."""
    total = None
    for start in range(0, m, _CHUNK):
        part = block(unit_nodes(m, start, min(start + _CHUNK, m)))
        total = part if total is None else total + part
    return total


def _grid_mean(sample, m: int):
    """Mean of sample(nodes) over the m-th roots of unity."""
    total = _grid_sum(lambda nodes: np.asarray(sample(nodes), dtype=complex).sum(axis=-1), m)
    return total / m


def _adaptive_levels(level, quad: QuadratureSettings):
    """Double M until two consecutive levels of `level(m)` agree.

    Agreement is within quad.tol relative to the magnitude of the result;
    the finer value is returned together with the accepted grid.  Raises
    QuadratureError when the cap is reached without stabilizing, which in
    this setting almost always means a pole sits too close to T for the
    requested tolerance.
    """
    m, prev = quad.m_init, None
    while m <= quad.m_cap:
        cur = level(m)
        if prev is not None:
            scale = max(1.0, float(np.max(np.abs(cur))))
            if float(np.max(np.abs(cur - prev))) <= quad.tol * scale:
                return cur, QuadratureGrid(m)
        prev = cur
        m *= 2
    raise QuadratureError(
        f"integral did not stabilize below tol={quad.tol:g} at M={quad.m_cap}; "
        "a pole or near-singularity is too close to the unit circle")


def adaptive_boundary_mean(sample, quad: QuadratureSettings = DEFAULT_QUADRATURE):
    """Integrate sample(nodes) over T against dm with adaptive refinement.

    `sample` must accept an array of boundary nodes and return values with
    the node axis last (scalar integrands return shape (n,), vector
    integrands (d, n), ...).
    """
    return _adaptive_levels(lambda m: _grid_mean(sample, m), quad)


def boundary_mean(symbol: Symbol, quad: QuadratureSettings = DEFAULT_QUADRATURE) -> complex:
    """Integral of a symbol over T against dm."""
    val, _ = adaptive_boundary_mean(lambda nodes: symbol(nodes), quad)
    return complex(val)


def inner_product(f: Symbol, g: Symbol, quad: QuadratureSettings = DEFAULT_QUADRATURE) -> complex:
    """L2(T) inner product (f, g) = int f * conj(g) dm."""
    val, _ = adaptive_boundary_mean(lambda nodes: f(nodes) * np.conj(g(nodes)), quad)
    return complex(val)


def boundary_norm(f: Symbol, quad: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    val = inner_product(f, f, quad)
    return float(np.sqrt(max(val.real, 0.0)))


def fourier_coefficient(f: Symbol, k: int, quad: QuadratureSettings = DEFAULT_QUADRATURE) -> complex:
    """k-th Fourier coefficient int f(xi) xi^{-k} dm(xi).

    The starting grid is enlarged so that |k| < M/2 always holds
    (otherwise the coefficient would alias onto a lower frequency), and
    the cap must leave room for one doubling of it.
    """
    m_start = quad.m_init
    while m_start <= 2 * abs(k):
        m_start *= 2
    if 2 * m_start > quad.m_cap:
        raise QuadratureError(f"frequency {k} exceeds the aliasing limit at M={quad.m_cap}")
    val, _ = adaptive_boundary_mean(lambda nodes: f(nodes) * nodes ** (-k),
                                    QuadratureSettings(m_start, quad.m_cap, quad.tol))
    return complex(val)


def matrix_integral(row_sample, col_sample, weight, quad: QuadratureSettings = DEFAULT_QUADRATURE):
    """Matrix of integrals G[j, k] = int conj(r_j) * w * c_k dm.

    row_sample(nodes) -> (n_rows, n) samples of the row family,
    col_sample(nodes) -> (n_cols, n) samples of the column family,
    weight -> scalar weight function on nodes (or None for 1).

    Row samples enter conjugated, so G is the Gram matrix of the column
    family against the row family in L2(T, w dm).  Node blocks are
    accumulated as matrix products, so memory stays O(n_rows * chunk).
    """

    def block(nodes):
        rows = np.conj(np.asarray(row_sample(nodes)))
        cols = np.asarray(col_sample(nodes))
        if weight is not None:
            cols = cols * np.asarray(weight(nodes))
        return rows @ cols.T

    return _adaptive_levels(lambda m: _grid_sum(block, m) / m, quad)


def poisson_extension(f: Symbol, z: complex, quad: QuadratureSettings = DEFAULT_QUADRATURE) -> complex:
    """Harmonic extension of boundary values of f to |z| < 1: in closed
    form for a trig polynomial, by adaptive quadrature of the Poisson
    integral for every other symbol."""
    if isinstance(f, TrigPoly):
        return f.poisson(z)
    z = complex(z)
    if not abs(z) < 1:
        raise ValueError("Poisson extension needs |z| < 1")

    def sample(nodes):
        kern = (1.0 - abs(z) ** 2) / np.abs(nodes - z) ** 2
        return f(nodes) * kern

    val, _ = adaptive_boundary_mean(sample, quad)
    return complex(val)
