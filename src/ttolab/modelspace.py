"""Model spaces of finite Blaschke products.

The model space attached to a finite Blaschke product theta is the
orthogonal complement of theta * H^2 inside H^2; for degree d it is a
d-dimensional space of rational functions.  We work in the classical
orthonormal basis built from the ordered zero list: the k-th element is
a normalized Cauchy kernel at the k-th zero times the Blaschke factors
of all earlier zeros.  All poles lie outside the closed disk, so basis
elements evaluate anywhere on it.

Inner products of model-space functions are finite sums: Clark's exact
d-node rule (`clark_rule`) integrates f conj(g) for f, g in K_Theta over
the level set {Theta = 1}.  Pairings of trigonometric polynomials with
subspaces of functions vanishing at the origin are closed forms in the
Taylor rows of the basis (`subspace_pairing`).  Projections of other
functions, and pairings of other symbols, use adaptive quadrature at the
basis's own settings (`ModelSpaceBasis.quad`).

A `ModelSpaceBasis` computes what it derives from theta once and keeps
it: the compressed shift, the Clark rule formed from it, the basis
sampled at the rule's atoms, and the Taylor rows, which grow when a call
needs more of them.  e(0) is the sampler's own recurrence at the origin,
computed in one scalar pass over the zeros.  A combination made by the
basis keeps the basis, so its values at the atoms need no second sampling.
A basis whose zero list begins with theta's, as theta^2's does, holds
theta's basis as its leading block: `leading(theta)` reads it off as a
view (`LeadingBasis`) with no Clark rule of its own.
"""
from __future__ import annotations

import cmath
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .blaschke import BlaschkeProduct
from .harmonic import (DEFAULT_QUADRATURE, ConjSymbol, QuadratureSettings,
                       Symbol, TrigPoly, adaptive_boundary_mean)


class ModelSpaceError(RuntimeError):
    """Basis construction failed its orthonormality validation."""


def tm_samples(zeros, nodes) -> np.ndarray:
    """Sample all basis elements at once: out[k] = e_k(nodes).

    One division per zero, O(d * n) total: q = running / (1 - conj(lam) z)
    serves both e_k = s_k q and the update running <- e^{-i arg lam} (lam - z) q
    by the zero's Blaschke factor (the phase is unimodular even for a
    subnormal lam, where |lam|/lam is not).  A zero at the origin has
    e_k = running and factor z.
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
        running *= cmath.rect(1.0, -cmath.phase(lam))
    return out


def _samples_at_origin(zeros) -> np.ndarray:
    """`tm_samples(zeros, [0])[:, 0]` bit for bit, in one scalar pass.

    At z = 0 the sampler's denominator 1 - conj(lam) z is exactly 1 + 0j,
    so its running product is P_{k+1} = (lam_k P_k) u_k with P_0 = 1,
    u_k = e^{-i arg lam_k}, and e_k(0) = s_k P_k with s_k = sqrt(1 - |lam_k|^2);
    a zero at the origin gives e_k(0) = P_k and factor 0.  Each step is the
    sampler's operation in the sampler's order, with s_k and u_k formed
    as there, division by the denominator included, so the values round,
    and zero parts take their signs, as the sampler's do.  Nehari's Newton
    step counts depend on that rounding.
    """
    out = np.empty(len(zeros), dtype=complex)
    running = 1.0 + 0j
    for k, lam in enumerate(zeros):
        lam = complex(lam)
        if lam == 0:
            out[k] = running
            running *= 0j
            continue
        q = running / 1.0          # the sampler's division by 1 - conj(lam) 0
        out[k] = q * (1.0 - abs(lam) ** 2) ** 0.5
        running = lam * q * cmath.rect(1.0, -cmath.phase(lam))
    return out


def compressed_shift(zeros) -> np.ndarray:
    """Matrix of the compressed shift S_theta = A_z in the basis {e_k}.

    With s = sqrt(1 - |lam|^2): S[k, k] = lam_k and, for j > k,
    S[j, k] = s_j s_k u_k prod_{k<l<j} |lam_l| with u_k = -lam_k/|lam_k|
    (u_k = 1 when lam_k = 0, where the Blaschke factor is z itself).
    The matrix is lower triangular; no quadrature is involved.
    """
    lam = np.asarray(zeros, dtype=complex).reshape(-1)
    mod = np.abs(lam)
    s = np.sqrt(1.0 - mod**2)
    u = np.where(mod > 0, -np.exp(1j * np.angle(lam)), 1.0)
    k = np.arange(lam.size)
    j = k[:, None]
    # gaps[j, k] = prod_{k<l<j} |lam_l|: a running product of |lam_{j-1}| down each column
    above = np.concatenate(([1.0], mod[:-1]))[:, None]
    gaps = np.cumprod(np.where(j - 1 > k, above, 1.0), axis=0)
    return np.where(j > k, s[:, None] * (s * u) * gaps, np.diag(lam))


def _origin_kernels(theta: BlaschkeProduct):
    """k_0 = conj(e(0)), the coordinates of C k_0 and theta(0), in closed
    form from the moduli of the zeros.

    b_l(0) = |lam_l|, so e_j(0) = s_j prod_{l<j} |lam_l| and theta(0) =
    gamma prod |lam_l|; at the origin `ConjugateKernel.coordinates` is
    gamma u_k s_k prod_{j>k} |lam_j| with u_k = -e^{-i arg lam_k} (1 for a
    zero at the origin) and s_k = sqrt(1 - |lam_k|^2).
    """
    lam = np.asarray(theta.zeros, dtype=complex)
    mod = np.abs(lam)
    s = np.sqrt(1.0 - mod**2)
    heads = np.cumprod(np.append(1.0, mod))
    tails = np.append(np.cumprod(mod[::-1])[-2::-1], 1.0)      # prod_{j>k} |lam_j|
    u = np.where(mod > 0, -np.exp(-1j * np.angle(lam)), 1.0)
    return s * heads[:-1], theta.gamma * u * s * tails, theta.gamma * heads[-1]


def _clark_atoms(theta: BlaschkeProduct, shift: np.ndarray | None = None) -> np.ndarray:
    """The d points of {theta = 1} as eigenvalues of the Clark unitary
    U = S + (1 - conj(theta(0)))^{-1} k_0 (x) C k_0 (Clark 1972).

    S is the compressed shift (built here unless passed in), k_0 = conj(e(0))
    the reproducing kernel at the origin and C k_0 the conjugate kernel
    there, so that (f, C k_0) = (z f, theta); both are closed forms in the
    moduli of the zeros (`_origin_kernels`).  In exact arithmetic U is
    unitary; the returned eigenvalues are not normalised, so callers can
    check how far they drift off the circle.
    """
    if shift is None:
        shift = compressed_shift(theta.zeros)
    k0, ck0, at_origin = _origin_kernels(theta)
    scale = 1.0 / (1.0 - np.conj(at_origin))
    unitary = shift + scale * np.outer(k0, np.conj(ck0))
    return np.linalg.eigvals(unitary)


class ClarkRule(NamedTuple):
    """Clark's exact d-node rule of a Blaschke product Theta of degree d:
    (f, g) = sum_i weights[i] f(atoms[i]) conj(g(atoms[i])) for f, g in
    K_Theta."""

    atoms: np.ndarray     # the d points of {Theta = 1}
    weights: np.ndarray   # 1 / |Theta'| at each atom


def clark_rule(theta: BlaschkeProduct, gram_tol: float = 1e-10) -> ClarkRule:
    """The rule of theta from the eigenvalues of its Clark unitary
    (`_clark_atoms`).  Raises ModelSpaceError when an eigenvalue lies
    further than gram_tol off the unit circle: the unitary was then not
    formed to that accuracy, and neither would the rule be."""
    return _checked_rule(theta, _clark_atoms(theta), gram_tol)


def _checked_rule(theta: BlaschkeProduct, atoms: np.ndarray, gram_tol: float) -> ClarkRule:
    drift = float(np.max(np.abs(np.abs(atoms) - 1.0)))
    if drift > gram_tol:
        raise ModelSpaceError(
            f"Clark unitary has eigenvalues {drift:.3e} off the unit circle "
            f"(tolerance {gram_tol:g})")
    atoms = atoms / np.abs(atoms)
    return ClarkRule(atoms, 1.0 / theta.boundary_derivative_modulus(atoms))


def _product_from_last_row(zeros, samples, nodes) -> np.ndarray:
    """The product B of the normalised Blaschke factors of zeros at nodes,
    from their basis samples (`tm_samples(zeros, nodes)`).

    The last row is e_{d-1} = s q with q = running / (1 - conj(lam) z) for
    the last zero lam and s = sqrt(1 - |lam|^2), and the sampler's running
    product after lam is B = u (lam - z) q with u = e^{-i arg lam}; so
    B = e_{d-1} u (lam - z) / s, or z e_{d-1} when lam = 0.  B = 1 when
    there are no zeros.
    """
    if not zeros:
        return np.ones(np.shape(nodes), dtype=complex)
    lam = complex(zeros[-1])
    if lam == 0:
        return nodes * samples[-1]
    unit = cmath.rect(1.0, -cmath.phase(lam)) / (1.0 - abs(lam) ** 2) ** 0.5
    return samples[-1] * (lam - nodes) * unit


class BasisCombination(Symbol):
    """Linear combination sum_k c_k e_k, evaluated via the fast sampler.

    A combination made by `ModelSpaceBasis.combination` keeps that basis
    (`basis`, None otherwise), and with it the basis's Clark rule and its
    samples at the rule's atoms.  On a doubled zero list Z + Z, as of
    theta^2, the elements past the first half are B e_k with e_k the basis
    of Z and B the product of its factors (K_{B^2} = K_B + B K_B), so a
    combination samples Z once instead of Z + Z: `_sampled_zeros` is the
    list it samples, and `_from_samples` its values from those samples.
    """

    def __init__(self, zeros, coeffs, basis: "ModelSpaceBasis | None" = None):
        self.zeros = tuple(zeros)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.basis = basis
        if self.coeffs.shape != (len(self.zeros),):
            raise ValueError("coefficient count must match basis size")
        half = len(self.zeros) // 2
        doubled = half and self.zeros[:half] == self.zeros[half:]
        self._sampled_zeros = self.zeros[:half] if doubled else self.zeros

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        nodes = z.ravel()
        samples = tm_samples(self._sampled_zeros, nodes)
        return self._from_samples(samples, nodes).reshape(z.shape)

    def _from_samples(self, samples, nodes) -> np.ndarray:
        """The combination at nodes (one axis) from the samples
        `tm_samples(self._sampled_zeros, nodes)`."""
        d = len(self._sampled_zeros)
        if d == len(self.zeros):
            return self.coeffs @ samples
        product = _product_from_last_row(self._sampled_zeros, samples, nodes)
        return self.coeffs[:d] @ samples + product * (self.coeffs[d:] @ samples)


def _symbol_from_samples(phi: Symbol, zeros):
    """How phi is read off basis samples on zeros, if it can be: for a
    combination sampled on zeros (of the basis of theta or of theta^2, for
    zeros theta's), or the conjugate of one, the function
    (samples, nodes) -> phi at nodes from samples = tm_samples(zeros, nodes),
    equal bit for bit to phi(nodes); None for any other symbol."""
    inner = phi.inner if isinstance(phi, ConjSymbol) else phi
    if not (isinstance(inner, BasisCombination) and inner._sampled_zeros == tuple(zeros)):
        return None

    def values(samples, nodes):
        out = inner._from_samples(samples, nodes)
        return out if inner is phi else np.conj(out)

    return values


def _frozen(array: np.ndarray) -> np.ndarray:
    """The array itself, made read-only: later calls read it as kept."""
    array.flags.writeable = False
    return array


class ModelSpaceBasis:
    """Orthonormal basis of the model space of a finite Blaschke product.

    Construction checks the Gram matrix against the identity by Clark's
    exact d-node rule, with no grid: for f, g in the model space,
    (f, g) = sum_xi f(xi) conj(g(xi)) / |theta'(xi)| over the level set
    {theta = 1}, and that level set is the spectrum of the Clark unitary
    built from the closed-form compressed shift (see `clark_rule`).

    Everything the basis derives from theta is computed once and kept:
    `shift` the compressed shift S_theta, `rule` the Clark rule formed from
    it, `rule_samples` the basis sampled at the rule's atoms (row k holds
    e_k), `gram` the Gram matrix and `gram_defect` its largest deviation
    from the identity; `at_origin` (e(0)) and the rows of `taylor_rows`
    are computed on first use and kept.  The shift, the rule samples, e(0)
    and the Taylor rows are read-only.  `project` integrates other
    functions against the basis by adaptive quadrature at `quad`, the
    settings that every quadrature route built on the basis reads.
    """

    def __init__(self, theta: BlaschkeProduct, quad: QuadratureSettings = DEFAULT_QUADRATURE,
                 gram_tol: float = 1e-10):
        self.theta = theta
        self.quad = quad
        self.gram_tol = gram_tol
        self.size = theta.degree
        self.shift = _frozen(compressed_shift(theta.zeros))
        self.rule = ClarkRule(np.zeros(0, dtype=complex), np.zeros(0))
        self.rule_samples = np.zeros((0, 0), dtype=complex)
        self.gram = np.zeros((0, 0), dtype=complex)
        self.gram_defect = 0.0
        self._taylor = np.zeros((0, self.size), dtype=complex)
        if self.size == 0:
            return
        self.rule = _checked_rule(theta, _clark_atoms(theta, self.shift), gram_tol)
        samples = self.sample(self.rule.atoms)
        # gram[j, k] = (e_k, e_j), the orientation of harmonic.matrix_integral
        gram = (np.conj(samples) * self.rule.weights) @ samples.T
        defect = float(np.max(np.abs(gram - np.eye(self.size))))
        if defect > gram_tol:
            raise ModelSpaceError(
                f"basis Gram matrix deviates from identity by {defect:.3e} "
                f"(tolerance {gram_tol:g}) under the {self.size}-node Clark rule")
        self.rule_samples = _frozen(samples)
        self.gram = gram
        self.gram_defect = defect

    def sample(self, nodes) -> np.ndarray:
        return tm_samples(self.theta.zeros, nodes)

    def taylor_rows(self, count: int) -> np.ndarray:
        """Taylor coefficients of the basis: row n holds the coefficient of
        z^n in every e_j, for n < count.

        Row n is t_n = conj(S^n k_0), with S the compressed shift and k_0
        the coordinates conj(e_j(0)) of the projection of 1 onto K_theta,
        so t_0 = e(0) and t_n = conj(S conj(t_{n-1})).  Rows already
        computed are kept; a longer request continues from the last.
        """
        have = self._taylor.shape[0]
        if count > have:
            rows = np.empty((count, self.size), dtype=complex)
            rows[:have] = self._taylor
            if have == 0:
                rows[0] = self.at_origin
            for n in range(max(have, 1), count):
                rows[n] = np.conj(self.shift @ np.conj(rows[n - 1]))
            self._taylor = _frozen(rows)
        return self._taylor[:count]

    @cached_property
    def at_origin(self) -> np.ndarray:
        """e(0): every basis element at the origin (read-only), equal bit
        for bit to the sampler's value there (`tm_samples` at z = 0)."""
        return _frozen(_samples_at_origin(self.theta.zeros))

    def combination(self, coeffs) -> BasisCombination:
        return BasisCombination(self.theta.zeros, coeffs, self)

    def leading(self, theta: BlaschkeProduct) -> "LeadingBasis":
        """The basis of theta as the leading block of this one
        (`LeadingBasis`), for a theta whose zeros are, bit for bit, the
        first zeros of this basis's list, as theta's are of theta^2's.
        Raises ValueError for any other theta."""
        head = self.theta.zeros[:theta.degree]
        if (np.asarray(theta.zeros, dtype=complex).tobytes()
                != np.asarray(head, dtype=complex).tobytes()):
            raise ValueError(f"the zeros of {theta.label()} do not begin "
                             f"those of {self.theta.label()}")
        return LeadingBasis(self, theta)

    def space_tag(self) -> str:
        return f"K[{self.theta.label()}]"

    def conjugate_space_tag(self) -> str:
        """Tag of the Hankel codomain conj(z * K), spanned by conj(z e_j)."""
        return f"conj_zK[{self.theta.label()}]"

    def project(self, f: Symbol) -> np.ndarray:
        """Coefficients (f, e_k) of the orthogonal projection onto the space,
        by quadrature: no command calls it, it is the route a projection
        from values at the zeros is to be checked against."""
        if self.size == 0:
            return np.zeros(0, dtype=complex)

        def sample(nodes):
            return f(nodes)[None, :] * np.conj(self.sample(nodes))

        coeffs, _ = adaptive_boundary_mean(sample, self.quad)
        return coeffs


def _no_rule(view: "LeadingBasis"):
    raise TypeError(
        f"{view.space_tag()} is a leading block of {view.parent.space_tag()}, whose "
        f"Clark rule is not its own; a rule-based builder needs build_basis(theta)")


class LeadingBasis(ModelSpaceBasis):
    """The basis of theta read off a basis whose zero list begins with
    theta's (`ModelSpaceBasis.leading`), as theta^2's does.

    e_k depends only on the first k + 1 zeros, so theta's basis is the
    parent's first d elements, and the parent's Gram check has validated
    them.  The view is keyed by theta, whose constant and labels its tags
    carry; it keeps the parent's quadrature settings and gram_tol.  Its
    shift is the d x d block of the parent's, e(0) the first d entries of
    the parent's, its Taylor rows are formed from those two and it samples
    theta's zeros: each equal bit for bit to `build_basis(theta)`'s.
    theta's Clark rule is not the parent's, so the view has none: the rule,
    the rule samples and the Gram matrix raise TypeError, and combinations
    made by the view keep no basis.
    """

    rule = rule_samples = gram = gram_defect = property(_no_rule)

    def __init__(self, parent: ModelSpaceBasis, theta: BlaschkeProduct):
        self.parent = parent
        self.theta = theta
        self.quad = parent.quad
        self.gram_tol = parent.gram_tol
        self.size = theta.degree
        self.shift = _frozen(np.ascontiguousarray(parent.shift[:self.size, :self.size]))
        self._taylor = np.zeros((0, self.size), dtype=complex)

    @cached_property
    def at_origin(self) -> np.ndarray:
        return self.parent.at_origin[:self.size]

    def combination(self, coeffs) -> BasisCombination:
        return BasisCombination(self.theta.zeros, coeffs)


def build_basis(theta: BlaschkeProduct, quad: QuadratureSettings = DEFAULT_QUADRATURE,
                gram_tol: float = 1e-10) -> ModelSpaceBasis:
    return ModelSpaceBasis(theta, quad, gram_tol)


def vanishing_at_origin_subspace(basis: ModelSpaceBasis) -> np.ndarray:
    """Orthonormal coordinate basis (columns) of the subspace of functions
    vanishing at the origin; its dimension is one less than the space.

    The columns are the last right singular vectors of the row conj(e(0)):
    they are orthonormal and orthogonal to conj(e(0)), that is
    sum_j v_j e_j(0) = 0.  This is the basis `scipy.linalg.null_space`
    returns, in its row-major layout (products with it round the same way).
    """
    vh = np.linalg.svd(np.conj(basis.at_origin)[None, :], full_matrices=True)[2]
    return np.ascontiguousarray(vh[1:].conj().T)


def subspace_pairing(phi: Symbol, basis: ModelSpaceBasis, subspace: np.ndarray) -> np.ndarray:
    """Pairings ∫ phi g_m dm with g_m = sum_i subspace[i, m] e_i, for
    columns spanning functions that vanish at the origin.

    For a trigonometric polynomial phi = sum c_n z^n only the negative
    frequencies pair with g_m in zH^2, and ∫ z^-n g_m dm is the n-th
    Taylor coefficient of g_m, so the pairing is
    subspace^T sum_{n>=1} c_-n t_n with t_n the Taylor rows of the basis.
    Every other symbol goes through `subspace_pairing_by_quadrature`.
    """
    if not isinstance(phi, TrigPoly):
        return subspace_pairing_by_quadrature(phi, basis, subspace)
    depth = max(0, -min(phi.coeffs, default=0))
    rows = basis.taylor_rows(depth + 1)[1:]
    weights = np.array([phi.coeffs.get(-n, 0.0) for n in range(1, depth + 1)],
                       dtype=complex)
    return subspace.T @ (weights @ rows)


def subspace_pairing_by_quadrature(phi: Symbol, basis: ModelSpaceBasis,
                                   subspace: np.ndarray) -> np.ndarray:
    """∫ phi g_m dm by adaptive quadrature at the basis's settings: works
    for any bounded symbol and is the independent check on the closed
    form."""

    def sample(nodes):
        return phi(nodes)[None, :] * (subspace.T @ basis.sample(nodes))

    q, _ = adaptive_boundary_mean(sample, basis.quad)
    return np.asarray(q, dtype=complex).ravel()


class _KernelAt(Symbol):
    """A kernel of the model space at an interior point lam.  theta(lam) is
    evaluated on first use: the closed-form coordinates do not need it."""

    def __init__(self, theta: BlaschkeProduct, lam: complex):
        lam = complex(lam)
        if not abs(lam) < 1:
            raise ValueError("kernel point must lie inside the open disk")
        self.theta = theta
        self.lam = lam

    @cached_property
    def _tl(self) -> complex:
        return complex(self.theta(self.lam))

    def norm(self) -> float:
        """Exact L2 norm: ((1 - |theta(lam)|^2) / (1 - |lam|^2))^(1/2)."""
        return float(np.sqrt((1.0 - abs(self._tl) ** 2) / (1.0 - abs(self.lam) ** 2)))


class ReproducingKernel(_KernelAt):
    """Reproducing kernel of the model space at an interior point."""

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        return (1.0 - np.conj(self._tl) * self.theta.eval(z)) / (1.0 - np.conj(self.lam) * z)


class ConjugateKernel(_KernelAt):
    """Difference-quotient kernel (theta(z) - theta(lam)) / (z - lam).

    The singularity at z = lam is removable; evaluation switches to the
    analytic derivative of theta when z comes within 1e-6 of lam.
    """

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

    def coordinates(self) -> np.ndarray:
        """Coefficients (ktilde_lam, e_k) in the basis of theta's zero order,
        in closed form: (C e_k)(lam) = gamma u_k s_k prod_{j>k} b_j(lam)
        / (1 - conj(lam_k) lam), with C the conjugation of the model space,
        s_k = sqrt(1 - |lam_k|^2) and u_k = -e^{-i arg lam_k} (1 for a zero
        at the origin, whose factor is z).  No singularity at the zeros.
        """
        zeros = np.asarray(self.theta.zeros, dtype=complex)
        mod = np.abs(zeros)
        unit = np.exp(-1j * np.angle(zeros))
        denom = 1.0 - np.conj(zeros) * self.lam
        factors = np.where(mod > 0, unit * (zeros - self.lam) / denom, self.lam)
        tail = np.append(np.cumprod(factors[::-1])[-2::-1], 1.0)   # prod_{j>k} b_j(lam)
        u = np.where(mod > 0, -unit, 1.0)
        return self.theta.gamma * u * np.sqrt(1.0 - mod**2) * tail / denom


def reproducing_kernel(theta: BlaschkeProduct, lam: complex) -> ReproducingKernel:
    return ReproducingKernel(theta, lam)


def conjugate_kernel(theta: BlaschkeProduct, lam: complex) -> ConjugateKernel:
    return ConjugateKernel(theta, lam)
