"""Truncated Toeplitz and Hankel operators in model-space coordinates.

A bounded symbol phi induces the truncated Toeplitz operator (compress
multiplication by phi to the model space) and the truncated Hankel
operator (multiply, then project onto the conjugate space conj(z * K)).
Both are represented as dense matrices in the orthonormal model-space
basis; the Hankel codomain is spanned by conj(z e_j), fixed once and for
all so that different construction routes can be compared entrywise.

Three routes build the matrices.  Trigonometric polynomials are
compressed in closed form through the compressed shift and the Taylor
rows that the basis computes once and keeps.  Integrals whose two
factors lie in one model space K_Theta are finite sums over Clark's
exact rule of Theta (`modelspace.clark_rule`): the Hankel matrix of
conj(u) for a model-space function u (the standard symbol among them,
whose theta^2 basis brings its rule and samples along), and the two
factors of the Hankel-Toeplitz link for a trigonometric polynomial.
Every other symbol is integrated by adaptive quadrature at the basis's
own settings (`ModelSpaceBasis.quad`), and the quadrature builders stay
as the independent check on the other two routes.  A quadrature call
samples the basis once per node block, for the rows, the columns and a
symbol that combines the basis's own elements.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blaschke import BlaschkeProduct
from .harmonic import (DEFAULT_QUADRATURE, ConjSymbol, QuadratureSettings,
                       RationalSymbol, Symbol, TrigPoly, matrix_integral,
                       poisson_extension, unit_nodes)
from .modelspace import (BasisCombination, ConjugateKernel, ModelSpaceBasis,
                         _product_from_last_row, _symbol_from_samples,
                         build_basis, clark_rule,
                         conjugate_kernel, subspace_pairing,
                         vanishing_at_origin_subspace)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator matrix with typed domain/codomain tags.

    Tags are plain strings derived from the underlying Blaschke product;
    composition refuses mismatched tags, which catches most
    wrong-space bugs at desk scale.  The matrix takes over the array it
    is given and makes it read-only, so its singular values are computed
    once, on first use, and cannot go stale.
    """

    entries: np.ndarray
    domain: str
    codomain: str
    provenance: str = ""

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2:
            raise ValueError("operator entries must form a 2-d array")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self):
        return self.entries.shape

    @cached_property
    def _singular_values(self) -> np.ndarray:
        if 0 in self.entries.shape:
            sv = np.zeros(0)
        else:
            sv = np.linalg.svd(self.entries, compute_uv=False)
        sv.flags.writeable = False
        return sv

    def singular_values(self) -> np.ndarray:
        """Singular values in descending order (read-only)."""
        return self._singular_values

    def norm(self) -> float:
        """Operator (spectral) norm."""
        sv = self.singular_values()
        return float(sv[0]) if sv.size else 0.0

    def schatten_norm(self, p: float) -> float:
        sv = self.singular_values()
        if not p > 0:
            raise ValueError("Schatten exponent must be positive")
        if np.isinf(p):
            return float(sv[0]) if sv.size else 0.0
        return float(np.sum(sv**p) ** (1.0 / p))

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self after other (matrix product), with tag checking."""
        if self.domain != other.codomain:
            raise ValueError(
                f"composition mismatch: {self.domain!r} != {other.codomain!r}")
        return OperatorMatrix(self.entries @ other.entries, other.domain,
                              self.codomain, f"({self.provenance})∘({other.provenance})")

    def __matmul__(self, other):
        return self.compose(other)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.entries.conj().T, self.codomain, self.domain,
                              f"adjoint({self.provenance})")

    def inverse(self) -> "OperatorMatrix":
        return OperatorMatrix(np.linalg.inv(self.entries), self.codomain,
                              self.domain, f"inverse({self.provenance})")

    def to_dict(self) -> dict:
        m, n = self.entries.shape
        return {
            "shape": [m, n],
            "domain": self.domain,
            "codomain": self.codomain,
            "provenance": self.provenance,
            "entries": [[[v.real, v.imag] for v in row] for row in self.entries],
        }


def toeplitz_matrix(phi: Symbol, basis: ModelSpaceBasis) -> OperatorMatrix:
    """Matrix of the truncated Toeplitz operator of phi on the model space.

    A trigonometric polynomial is compressed in closed form,
    A_phi = sum_{k>=0} c_k S^k + sum_{k>0} c_{-k} (S^*)^k with S the
    compressed shift; every other symbol goes through
    `toeplitz_by_quadrature`.
    """
    if not isinstance(phi, TrigPoly):
        return toeplitz_by_quadrature(phi, basis)
    shift = basis.shift
    entries = np.zeros_like(shift)
    power = np.eye(basis.size, dtype=complex)
    for k in range(phi.band + 1):
        entries += phi.coeffs.get(k, 0.0) * power
        if k:
            entries += phi.coeffs.get(-k, 0.0) * power.conj().T
        power = shift @ power
    tag = basis.space_tag()
    return OperatorMatrix(entries, tag, tag, "toeplitz:compressed-shift")


def toeplitz_by_quadrature(phi: Symbol, basis: ModelSpaceBasis) -> OperatorMatrix:
    """Toeplitz matrix with entry (j, k) the inner product of phi * e_k
    against e_j, the integrals evaluated together by adaptive quadrature
    at the basis's settings.  Works for any bounded symbol and is the
    independent check on the closed form."""
    sample = _block_sampler(basis)
    entries, _ = matrix_integral(sample, sample, _block_symbol(phi, basis, sample), basis.quad)
    tag = basis.space_tag()
    return OperatorMatrix(entries, tag, tag, "toeplitz:boundary-quadrature")


def _block_sampler(basis: ModelSpaceBasis):
    """`basis.sample` for one quadrature call, keeping its last node block:
    `matrix_integral` samples the rows and the columns of a block at the
    same nodes, so the second request is served from the first."""
    kept = [None, None]

    def sample(nodes):
        if nodes is not kept[0]:
            kept[:] = nodes, basis.sample(nodes)
        return kept[1]

    return sample


def _block_symbol(phi: Symbol, basis: ModelSpaceBasis, sample):
    """phi for one quadrature call on the basis: read off the samples that
    `sample`, the call's block sampler, keeps where `_symbol_from_samples`
    can read it (a combination sampled on theta's own zeros, or its
    conjugate); any other symbol is phi itself."""
    read = _symbol_from_samples(phi, basis.theta.zeros)
    if read is None:
        return phi
    return lambda nodes: read(sample(nodes), nodes)


def _conjugate_row_sample(sample):
    """Samples of conj(conj(z e_j)) = z e_j, the Hankel codomain rows, from
    a sampler of the e_j."""

    def rows(nodes):
        return np.conj(nodes[None, :] * sample(nodes))

    return rows


def hankel_matrix(phi: Symbol, basis: ModelSpaceBasis) -> OperatorMatrix:
    """Matrix of the truncated Hankel operator of phi.

    The operator sends the model space into conj(z * K); in the bases
    {e_k} -> {conj(z e_j)} the entry (j, k) is int phi e_k z e_j dm.
    For a trigonometric polynomial that is sum_m c_{-m} times the
    coefficient of z^{m-1} in e_j e_k, assembled in closed form from the
    Taylor coefficients t_n = conj(S^n k_0) of the basis (k_0 holds
    conj(e_j(0)), the projection of 1).  The conjugate of a model-space
    function (`BasisCombination`) goes through Clark's rule
    (`_conjugate_combination_hankel`); every other symbol goes through
    `hankel_by_quadrature`.
    """
    if isinstance(phi, ConjSymbol) and isinstance(phi.inner, BasisCombination):
        return _conjugate_combination_hankel(phi.inner, basis)
    if not isinstance(phi, TrigPoly):
        return hankel_by_quadrature(phi, basis)
    depth = max(0, -min(phi.coeffs, default=0))
    taylor = basis.taylor_rows(depth)
    # Gamma = T^T H T with the coefficient Hankel matrix H[a, b] = c_{-(a+b+1)}
    coeffs = np.array([[phi.coeffs.get(-(a + b + 1), 0.0) for b in range(depth)]
                       for a in range(depth)], dtype=complex).reshape(depth, depth)
    entries = taylor.T @ coeffs @ taylor
    return OperatorMatrix(entries, basis.space_tag(), basis.conjugate_space_tag(),
                          "hankel:compressed-shift")


def _conjugate_combination_hankel(u: BasisCombination,
                                  basis: ModelSpaceBasis) -> OperatorMatrix:
    """Hankel matrix of conj(u), u = sum_i c_i f_i in K_{B_Z} with Z = u.zeros,
    by Clark's rule.

    Entry (j, k) is (z e_j e_k, u).  For e_j, e_k in K_theta the product
    z e_j e_k lies in K_{theta^2}, so the rule of theta^2 B_Z integrates
    the entry exactly; when Z is theta^2's own zero list, as for the
    standard symbol, the rule of theta^2 does.  A combination that keeps
    its theta^2 basis, checked at least as tightly as `basis`, brings that
    rule and the basis sampled at its atoms: theta^2's zero list begins
    with theta's, so the first d rows are the samples of `basis`.
    """
    square = basis.theta.square().zeros
    kept = u.basis
    if u.zeros == square and kept is not None and kept.gram_tol <= basis.gram_tol:
        atoms, weights = kept.rule
        samples, values = kept.rule_samples[:basis.size], u.coeffs @ kept.rule_samples
    else:
        zeros = square if u.zeros == square else square + u.zeros
        atoms, weights = clark_rule(BlaschkeProduct(zeros), basis.gram_tol)
        samples, values = basis.sample(atoms), u(atoms)
    entries = (samples * (weights * atoms * np.conj(values))) @ samples.T
    return OperatorMatrix(entries, basis.space_tag(), basis.conjugate_space_tag(),
                          "hankel:clark-rule")


def hankel_by_quadrature(phi: Symbol, basis: ModelSpaceBasis) -> OperatorMatrix:
    """Hankel matrix with entry (j, k) = int phi e_k z e_j dm evaluated by
    adaptive quadrature at the basis's settings.  Works for any bounded
    symbol and is the independent check on the closed form."""
    sample = _block_sampler(basis)
    entries, _ = matrix_integral(_conjugate_row_sample(sample), sample,
                                 _block_symbol(phi, basis, sample), basis.quad)
    return OperatorMatrix(entries, basis.space_tag(), basis.conjugate_space_tag(),
                          "hankel:boundary-quadrature")


def conjugate_multiplier_matrix(basis: ModelSpaceBasis) -> OperatorMatrix:
    """Matrix of multiplication by conj(theta): model space -> conj(z * K).

    This map is a surjective isometry (it implements the canonical
    conjugation up to the fixed codomain basis), so the matrix is unitary.
    """
    sample = _block_sampler(basis)
    entries, _ = matrix_integral(_conjugate_row_sample(sample), sample,
                                 basis.theta.conj(), basis.quad)
    return OperatorMatrix(entries, basis.space_tag(), basis.conjugate_space_tag(),
                          "conj-theta-multiplier")


def conjugate_multiplier_by_rule(basis: ModelSpaceBasis) -> OperatorMatrix:
    """`conjugate_multiplier_matrix` by theta's own Clark rule.

    Entry (j, k) is (e_j, C e_k) with C e_k = theta conj(z e_k) in K_theta;
    theta = 1 on the rule's atoms, so the entry is
    sum_i w_i xi_i e_j(xi_i) e_k(xi_i).
    """
    atoms, weights = basis.rule
    samples = basis.rule_samples
    entries = (samples * (weights * atoms)) @ samples.T
    return OperatorMatrix(entries, basis.space_tag(), basis.conjugate_space_tag(),
                          "conj-theta-multiplier:clark-rule")


def lifted_toeplitz_by_rule(phi: TrigPoly, basis: ModelSpaceBasis) -> OperatorMatrix:
    """Toeplitz matrix of theta * phi for a trigonometric polynomial phi, by
    Clark's rule.

    For n >= 0, theta z^n e_k lies in theta H^2, orthogonal to K_theta, so
    only the terms c_{-m} of phi survive: entry (j, k) is
    sum_{m>=1} c_{-m} (theta e_k, z^m e_j).  Both factors lie in
    K_{z^B theta^2} for B = -min frequency, whose rule sums the entry
    exactly.  theta = gamma B at the atoms comes from the last row of the
    basis sampled there.
    """
    depth = max(0, -min(phi.coeffs, default=0))
    theta = basis.theta
    atoms, weights = clark_rule(BlaschkeProduct((0.0,) * depth + theta.square().zeros),
                                basis.gram_tol)
    co_analytic = TrigPoly({k: c for k, c in phi.coeffs.items() if k < 0})
    samples = basis.sample(atoms)
    theta_at = theta.gamma * _product_from_last_row(theta.zeros, samples, atoms)
    entries = (np.conj(samples) * (weights * theta_at * co_analytic(atoms))) @ samples.T
    tag = basis.space_tag()
    return OperatorMatrix(entries, tag, tag, "toeplitz:clark-rule")


def hankel_toeplitz_defect(phi: Symbol, basis: ModelSpaceBasis) -> float:
    """Norm of Hankel(phi) - conj(theta) * Toeplitz(theta * phi).

    The two constructions agree identically for bounded symbols; the
    returned defect is a pure consistency measurement of the pipeline.
    For a trigonometric polynomial the Hankel matrix is the Taylor-row
    closed form and both factors of the right side come from Clark
    rules, which share no code with it.  The link depends on theta alone,
    so it always comes from theta's rule; for other symbols the lifted
    Toeplitz factor is integrated by quadrature.
    """
    gamma = hankel_matrix(phi, basis)
    link = conjugate_multiplier_by_rule(basis)
    if isinstance(phi, TrigPoly):
        lifted = lifted_toeplitz_by_rule(phi, basis)
    else:
        lifted = toeplitz_matrix(basis.theta * phi, basis)
    diff = gamma.entries - (link @ lifted).entries
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


def rank_one_symbol(theta: BlaschkeProduct, lam: complex) -> Symbol:
    """Symbol theta / (z - lam) whose truncated Toeplitz operator is the
    rank-one map h -> (h, k_lam) ktilde_lam."""
    lam = complex(lam)
    if not abs(lam) < 1:
        raise ValueError("lam must lie inside the open disk")
    return theta * RationalSymbol(TrigPoly.one(), TrigPoly({0: -lam, 1: 1.0}))


def rank_one_matrix(lam: complex, basis: ModelSpaceBasis) -> OperatorMatrix:
    """Rank-one operator h -> (h, k_lam) ktilde_lam, built without quadrature:
    an outer product of the closed-form coordinates of the
    difference-quotient kernel with point evaluations of the basis."""
    col = conjugate_kernel(basis.theta, lam).coordinates()
    row = basis.sample(np.array([complex(lam)]))[:, 0]
    tag = basis.space_tag()
    return OperatorMatrix(np.outer(col, row), tag, tag, "rank-one:kernel-outer-product")


@dataclass
class StandardSymbol:
    """Projection of a symbol onto conj(K_{theta^2} ∩ z H^2).

    The subspace has dimension 2 deg(theta) - 1 and consists of the
    conjugates of model-space functions (for theta^2) vanishing at the
    origin.  Truncated Hankel operators see only this part of the symbol.
    """

    theta: BlaschkeProduct
    coeffs: np.ndarray           # coordinates in the orthonormal subspace basis
    subspace: np.ndarray         # columns: subspace basis in K_{theta^2} coordinates
    symbol: Symbol = field(repr=False)

    def __call__(self, z):
        return self.symbol(z)

    @property
    def dimension(self) -> int:
        return self.subspace.shape[1]


def standard_symbol(phi: Symbol, theta: BlaschkeProduct,
                    quad: QuadratureSettings = DEFAULT_QUADRATURE) -> StandardSymbol:
    """Standard representative of phi modulo symbols with zero Hankel part.

    Its coordinates are the pairings ∫ phi g_m dm = (phi, conj(g_m)) with
    the basis g_m of K_{theta^2} ∩ zH^2, a closed form in the Taylor rows
    for a trigonometric polynomial and quadrature otherwise
    (`modelspace.subspace_pairing`).  The realised symbol keeps the
    theta^2 basis, whose Clark rule and samples then serve its Hankel
    matrix (`hankel_matrix`).
    """
    return standard_symbol_on(phi, theta, build_basis(theta.square(), quad))


def standard_symbol_on(phi: Symbol, theta: BlaschkeProduct,
                       square_basis: ModelSpaceBasis) -> StandardSymbol:
    """`standard_symbol` on a prebuilt basis of K_{theta^2}, so that callers
    with many symbols and one theta build that basis once."""
    U = vanishing_at_origin_subspace(square_basis)
    coeffs = subspace_pairing(phi, square_basis, U)
    # realized symbol: sum_m coeffs[m] conj(g_m) = conj(combination)
    combo = square_basis.combination(U @ np.conj(coeffs))
    return StandardSymbol(theta, coeffs, U, ConjSymbol(combo))


def zero_symbol_test(phi: Symbol, basis: ModelSpaceBasis, tol: float = 1e-10):
    """Decide whether the truncated Hankel operator of phi vanishes.

    Returns (is_zero, norm) where norm is the operator norm of the
    Hankel matrix; phi annihilates exactly when it lies in the direct sum
    of conj(theta^2 H^2) and H^2 (bounded parts).
    """
    norm = hankel_matrix(phi, basis).norm()
    return norm < tol, norm


@dataclass(frozen=True)
class TestVectorEstimate:
    """Almost-eigenvector diagnostics for a difference-quotient kernel."""

    ratio: float            # |(A - zeta) ktilde| / |ktilde|
    poisson_bound: float    # 8 * poisson integral of |phi1 - zeta1|^2 at lam
    multiplier_bound: float  # 8 |theta(lam)|^2 sup|phi2|^2 + |phi2(lam) - zeta2|^2
    zeta1: complex
    zeta2: complex


def test_vector_ratio(basis: ModelSpaceBasis, phi1: Symbol | None,
                      phi2: Symbol | None, lam: complex, zeta: complex,
                      zeta1: complex | None = None) -> TestVectorEstimate:
    """How nearly the kernel at lam is a zeta-eigenvector of the operator.

    The symbol splits as phi = phi1 + phi2 with phi2 analytic; zeta
    splits accordingly as zeta1 + zeta2.  When zeta1 is not supplied it
    defaults to the harmonic extension of phi1 at lam.  The two
    diagnostic bounds control the contributions of the split parts.
    Poisson integrals run at the basis's quadrature settings.
    """
    quad = basis.quad
    theta = basis.theta
    lam = complex(lam)
    zeta = complex(zeta)
    if phi1 is None and phi2 is None:
        raise ValueError("at least one of phi1, phi2 is required")
    if isinstance(phi2, TrigPoly) and not phi2.is_analytic():
        raise ValueError("phi2 must be analytic (nonnegative frequencies)")

    if zeta1 is None:
        zeta1 = poisson_extension(phi1, lam, quad) if phi1 is not None else 0.0
    zeta1 = complex(zeta1)
    zeta2 = zeta - zeta1

    phi = _combine(phi1, phi2)
    matrix = toeplitz_matrix(phi, basis)
    coeffs = ConjugateKernel(theta, lam).coordinates()
    shifted = matrix.entries @ coeffs - zeta * coeffs
    ratio = float(np.linalg.norm(shifted) / np.linalg.norm(coeffs))

    if phi1 is not None:
        gap = phi1 - zeta1
        poisson_bound = 8.0 * float(np.real(poisson_extension(gap * gap.conj(), lam, quad)))
    else:
        poisson_bound = 8.0 * abs(zeta1) ** 2

    if phi2 is not None:
        sup2 = float(np.max(np.abs(phi2(unit_nodes(1 << 13)))))
        at_lam = complex(phi2(lam))
        multiplier_bound = (8.0 * abs(complex(theta(lam))) ** 2 * sup2**2
                            + abs(at_lam - zeta2) ** 2)
    else:
        multiplier_bound = abs(zeta2) ** 2

    return TestVectorEstimate(ratio, poisson_bound, multiplier_bound, zeta1, zeta2)


def _combine(phi1, phi2):
    if phi1 is None:
        return phi2
    if phi2 is None:
        return phi1
    return phi1 + phi2
