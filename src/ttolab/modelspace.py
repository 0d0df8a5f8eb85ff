"""Model spaces of finite Blaschke products.

The model space attached to a finite Blaschke product theta is the
orthogonal complement of theta * H^2 inside H^2; for degree d it is a
d-dimensional space of rational functions.  We work in the classical
orthonormal basis built from the ordered zero list: the k-th element is
a normalized Cauchy kernel at the k-th zero times the Blaschke factors
of all earlier zeros.  All poles lie outside the closed disk, so basis
elements evaluate anywhere on it.
"""
from __future__ import annotations

import numpy as np

from .blaschke import BlaschkeProduct
from .harmonic import (DEFAULT_QUADRATURE, QuadratureSettings, Symbol,
                       adaptive_boundary_mean, matrix_integral)


class ModelSpaceError(RuntimeError):
    """Basis construction failed its orthonormality validation."""


def tm_samples(zeros, nodes) -> np.ndarray:
    """Sample all basis elements at once: out[k] = e_k(nodes).

    One division per zero, O(d * n) total: q = running / (1 - conj(lam) z)
    serves both e_k = s_k q and the update running <- (|lam|/lam) (lam - z) q
    by the zero's Blaschke factor.  A zero at the origin has e_k = running
    and factor z.
    """
    nodes = np.asarray(nodes, dtype=complex)
    d = len(zeros)
    out = np.empty((d,) + nodes.shape, dtype=complex)
    running = np.ones_like(nodes)
    q = np.empty_like(nodes)
    for k, lam in enumerate(zeros):
        lam = complex(lam)
        if lam == 0:
            out[k] = running
            running *= nodes
            continue
        np.multiply(nodes, -lam.conjugate(), out=q)
        q += 1.0
        np.divide(running, q, out=q)
        np.multiply(q, (1.0 - abs(lam) ** 2) ** 0.5, out=out[k, ...])
        np.subtract(lam, nodes, out=running)
        running *= q
        running *= abs(lam) / lam
    return out


def compressed_shift(zeros) -> np.ndarray:
    """Matrix of the compressed shift S_theta = A_z in the basis {e_k}.

    With s = sqrt(1 - |lam|^2): S[k, k] = lam_k and, for j > k,
    S[j, k] = s_j s_k u_k prod_{k<l<j} |lam_l| with u_k = -lam_k/|lam_k|
    (u_k = 1 when lam_k = 0, where the Blaschke factor is z itself).
    The matrix is lower triangular; no quadrature is involved.
    """
    lam = np.asarray(zeros, dtype=complex).reshape(-1)
    d = lam.size
    mod = np.abs(lam)
    s = np.sqrt(1.0 - mod**2)
    u = np.where(mod > 0, -np.exp(1j * np.angle(lam)), 1.0)
    shift = np.diag(lam)
    for k in range(d - 1):
        # prod_{k<l<j} |lam_l| for j = k+1 .. d-1
        gaps = np.concatenate(([1.0], np.cumprod(mod[k + 1:d - 1])))
        shift[k + 1:, k] = s[k + 1:] * (s[k] * u[k]) * gaps
    return shift


class BasisCombination(Symbol):
    """Linear combination sum_k c_k e_k, evaluated via the fast sampler."""

    def __init__(self, zeros, coeffs):
        self.zeros = tuple(zeros)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.shape != (len(self.zeros),):
            raise ValueError("coefficient count must match basis size")

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        samples = tm_samples(self.zeros, z.ravel())
        return (self.coeffs @ samples).reshape(z.shape)


class ModelSpaceBasis:
    """Orthonormal basis of the model space of a finite Blaschke product.

    Construction validates the Gram matrix against the identity by
    adaptive quadrature and remembers the grid size at which it
    stabilized, which later operator builds use as a starting hint.
    """

    def __init__(self, theta: BlaschkeProduct, quad: QuadratureSettings = DEFAULT_QUADRATURE,
                 gram_tol: float = 1e-10):
        self.theta = theta
        self.quad = quad
        self.size = theta.degree
        if self.size == 0:
            self.grid = None
            self.gram_defect = 0.0
            return
        gram, grid = matrix_integral(self.sample, self.sample, None, quad)
        defect = float(np.max(np.abs(gram - np.eye(self.size))))
        if defect > gram_tol:
            raise ModelSpaceError(
                f"basis Gram matrix deviates from identity by {defect:.3e} "
                f"(tolerance {gram_tol:g}) at M={grid.m}; refine the quadrature")
        self.grid = grid
        self.gram_defect = defect

    def sample(self, nodes) -> np.ndarray:
        return tm_samples(self.theta.zeros, nodes)

    def combination(self, coeffs) -> BasisCombination:
        return BasisCombination(self.theta.zeros, coeffs)

    @property
    def m_hint(self) -> int:
        """Starting grid for further integrals against this basis: one level
        below the size at which the Gram matrix stabilized, so the adaptive
        loop still gets a confirming comparison."""
        if self.grid is None:
            return self.quad.m_init
        return max(self.quad.m_init, self.grid.m // 2)

    def space_tag(self) -> str:
        return f"K[{self.theta.label()}]"

    def conjugate_space_tag(self) -> str:
        """Tag of the Hankel codomain conj(z * K), spanned by conj(z e_j)."""
        return f"conj_zK[{self.theta.label()}]"

    def project(self, f: Symbol) -> np.ndarray:
        """Coefficients (f, e_k) of the orthogonal projection onto the space."""
        if self.size == 0:
            return np.zeros(0, dtype=complex)

        def sample(nodes):
            return f(nodes)[None, :] * np.conj(self.sample(nodes))

        coeffs, _ = adaptive_boundary_mean(sample, self.quad, m_start=self.m_hint)
        return coeffs


def build_basis(theta: BlaschkeProduct, quad: QuadratureSettings = DEFAULT_QUADRATURE,
                gram_tol: float = 1e-10) -> ModelSpaceBasis:
    return ModelSpaceBasis(theta, quad, gram_tol)


def vanishing_at_origin_subspace(basis: ModelSpaceBasis) -> np.ndarray:
    """Orthonormal coordinate basis (columns) of the subspace of functions
    vanishing at the origin; its dimension is one less than the space."""
    from scipy import linalg as sla

    at_zero = basis.sample(np.array([0.0 + 0.0j]))[:, 0]
    return sla.null_space(at_zero[None, :].conj())


class ReproducingKernel(Symbol):
    """Reproducing kernel of the model space at an interior point."""

    def __init__(self, theta: BlaschkeProduct, lam: complex):
        lam = complex(lam)
        if not abs(lam) < 1:
            raise ValueError("kernel point must lie inside the open disk")
        self.theta = theta
        self.lam = lam
        self._tl = complex(theta(lam))

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        return (1.0 - np.conj(self._tl) * self.theta.eval(z)) / (1.0 - np.conj(self.lam) * z)

    def norm(self) -> float:
        return float(np.sqrt((1.0 - abs(self._tl) ** 2) / (1.0 - abs(self.lam) ** 2)))


class ConjugateKernel(Symbol):
    """Difference-quotient kernel (theta(z) - theta(lam)) / (z - lam).

    The singularity at z = lam is removable; evaluation switches to the
    analytic derivative of theta when z comes within 1e-6 of lam.
    """

    def __init__(self, theta: BlaschkeProduct, lam: complex):
        lam = complex(lam)
        if not abs(lam) < 1:
            raise ValueError("kernel point must lie inside the open disk")
        self.theta = theta
        self.lam = lam
        self._tl = complex(theta(lam))

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        w = z - self.lam
        near = np.abs(w) < 1e-6
        safe = np.where(near, 1.0, w)
        out = (self.theta.eval(z) - self._tl) / safe
        if np.any(near):
            mid = self.lam + 0.5 * np.where(near, w, 0.0)
            out = np.where(near, self.theta.derivative(mid), out)
        return out

    def norm(self) -> float:
        """Exact L2 norm: ((1 - |theta(lam)|^2) / (1 - |lam|^2))^(1/2)."""
        return float(np.sqrt((1.0 - abs(self._tl) ** 2) / (1.0 - abs(self.lam) ** 2)))


def reproducing_kernel(theta: BlaschkeProduct, lam: complex) -> ReproducingKernel:
    return ReproducingKernel(theta, lam)


def conjugate_kernel(theta: BlaschkeProduct, lam: complex) -> ConjugateKernel:
    return ConjugateKernel(theta, lam)
