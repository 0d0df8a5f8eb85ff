"""Spectra, Schatten norms, and boundary-clustering experiments.

At finite degree every truncated Toeplitz operator is a matrix, so its
spectrum is a finite eigenvalue set; the interesting phenomena live in
families: as zeros of the inner part pile up at a boundary point, the
eigenvalues of the compressed symbol cluster at the symbol's boundary
values there.  This module packages the per-matrix reports and the two
family experiments (eigenvalue clustering and almost-eigenvector decay).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import BlaschkeProduct, boundary_zero_closure, union_roots
from .harmonic import DEFAULT_QUADRATURE, QuadratureSettings, Symbol
from .modelspace import build_basis
from .truncops import (OperatorMatrix, TestVectorEstimate, test_vector_ratio,
                       toeplitz_matrix)


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray
    singular_values: np.ndarray
    schatten: dict


def spectral_report(op: OperatorMatrix, p_list=(1.0, 2.0)) -> SpectralReport:
    """Eigenvalues (square matrices only), singular values, Schatten norms."""
    entries = op.entries
    if entries.shape[0] == entries.shape[1] and entries.size:
        eigs = np.linalg.eigvals(entries)
        eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    else:
        eigs = np.zeros(0, dtype=complex)
    sv = op.singular_values()
    schatten = {float(p): op.schatten_norm(p) for p in p_list}
    return SpectralReport(eigs, sv, schatten)


def matched_distance(computed, target) -> float:
    """Largest pointwise gap under the optimal matching of two equal-size
    multisets of complex numbers (robust eigenvalue comparison)."""
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(computed, dtype=complex).ravel()
    b = np.asarray(target, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError("multisets must have equal size")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@dataclass(frozen=True)
class ClusterSummary:
    center: complex
    count: int
    radius: float


@dataclass(frozen=True)
class ClusterReport:
    """Eigenvalue geometry of one member of a growing family."""

    size: int                      # number of zeros used
    eigenvalues: np.ndarray
    clusters: tuple
    targets: np.ndarray            # symbol values at boundary accumulation points
    target_distances: np.ndarray   # per-target distance to the nearest eigenvalue

    @property
    def worst_target_distance(self) -> float:
        return float(np.max(self.target_distances)) if self.target_distances.size else 0.0


def _single_linkage(points: np.ndarray, delta: float):
    near = np.triu(np.abs(points[:, None] - points[None, :]) <= delta, 1)
    groups = {}
    for i, root in enumerate(union_roots(len(points), zip(*np.nonzero(near)))):
        groups.setdefault(root, []).append(i)
    out = []
    for idx in groups.values():
        pts = points[idx]
        center = complex(pts.mean())
        out.append(ClusterSummary(center, len(idx), float(np.max(np.abs(pts - center)))))
    out.sort(key=lambda c: (c.center.real, c.center.imag))
    return tuple(out)


def essential_spectrum_experiment(zero_generator, phi: Symbol, n_list,
                                  delta: float = 0.05,
                                  quad: QuadratureSettings | None = None,
                                  gram_tol: float = 1e-7):
    """Eigenvalue clustering along a nested family of Blaschke products.

    zero_generator(n) yields the n-th zero (n = 1, 2, ...).  For each N
    in n_list the compressed symbol is built on the degree-N product and
    its eigenvalues are clustered at resolution delta.  The comparison
    targets are the symbol's boundary values at the accumulation points
    of the full zero family (estimated from the largest member).
    """
    n_list = sorted(int(n) for n in n_list)
    n_max = n_list[-1]
    zeros = [zero_generator(n) for n in range(1, n_max + 1)]
    limits = boundary_zero_closure(zeros)
    targets = np.asarray(phi(limits), dtype=complex) if limits.size else np.zeros(0, complex)

    reports = []
    for n in n_list:
        basis = build_basis(BlaschkeProduct(zeros[:n]), quad or DEFAULT_QUADRATURE, gram_tol)
        eigs = np.linalg.eigvals(toeplitz_matrix(phi, basis).entries)
        eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
        clusters = _single_linkage(eigs, delta)
        if targets.size:
            dists = np.array([np.min(np.abs(eigs - t)) for t in targets])
        else:
            dists = np.zeros(0)
        reports.append(ClusterReport(n, eigs, clusters, targets, dists))
    return reports


@dataclass(frozen=True)
class DecayRow:
    """One row of the almost-eigenvector decay table."""

    n: int
    lam: complex
    estimate: TestVectorEstimate

    @property
    def combined_bound(self) -> float:
        e = self.estimate
        return float(np.sqrt(2.0 * (e.poisson_bound + e.multiplier_bound)))


def test_vector_decay_experiment(zero_generator, phi1, phi2, zeta: complex,
                                 n_max: int = 12,
                                 quad: QuadratureSettings | None = None,
                                 gram_tol: float = 1e-7):
    """Decay of the almost-eigenvector ratio along a nested zero family.

    Row n uses the degree-n product on the first n zeros and tests the
    difference-quotient kernel at the newest zero.  When the symbol's
    anti-analytic part has boundary value zeta at the accumulation point,
    the ratio must decay to zero.
    """
    rows = []
    zeros: list[complex] = []
    for n in range(1, n_max + 1):
        zeros.append(complex(zero_generator(n)))
        basis = build_basis(BlaschkeProduct(zeros), quad or DEFAULT_QUADRATURE, gram_tol)
        est = test_vector_ratio(basis, phi1, phi2, zeros[-1], zeta)
        rows.append(DecayRow(n, zeros[-1], est))
    return rows


def geometric_zero_generator(ratio: float = 0.5, angle_rate: float = 0.0):
    """Zeros marching to the boundary: 1 - ratio^n, optionally rotated by
    angle_rate / n radians (accumulation at 1 either way)."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")

    def gen(n: int) -> complex:
        r = 1.0 - ratio**n
        if angle_rate == 0.0:
            return complex(r)
        return r * np.exp(1j * angle_rate / n)

    return gen
