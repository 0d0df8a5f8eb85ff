"""Cross-module invariant suites behind the `verify` subcommand.

Each suite draws its own deterministic random stream, exercises one
structural identity on a handful of fresh instances, and yields one
deviation per check.  A suite is that generator plus one `_SUITES` row
(name, suite, tolerance, detail); `run_verification` keeps the worst
deviation, counts the checks and reports a suite that raises as failed
with its message.  The suites are smoke-level by design; the large
sweeps live in the acceptance tests.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .clark import (clark_measure, clark_pair, clark_reconstruct, clark_unitary,
                    commutator_route_defect, cross_route_equivalence,
                    expected_mass, hilbert_route_defect,
                    hilbert_transform_matrix, poisson_identity_defect)
from .config import RunConfig
from .corpus import (random_blaschke, random_conjugate_square_symbol,
                     random_interior_points, random_trig_poly,
                     random_unimodular, random_zero_hankel_symbol, spawn_rngs)
from .harmonic import ConjSymbol, boundary_norm, inner_product, matrix_integral
from .modelspace import (BasisCombination, build_basis, conjugate_kernel,
                         reproducing_kernel, subspace_pairing,
                         subspace_pairing_by_quadrature)
from .nehari import dual_basis, nehari_gap
from .spectra import matched_distance
from .truncops import (conjugate_multiplier_by_rule,
                       conjugate_multiplier_matrix, hankel_by_quadrature,
                       hankel_matrix, hankel_toeplitz_defect,
                       lifted_toeplitz_by_rule, rank_one_matrix,
                       rank_one_symbol, standard_symbol, standard_symbol_on,
                       toeplitz_by_quadrature, toeplitz_matrix,
                       zero_symbol_test)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    checks: int
    detail: str
    seconds: float

    def row(self) -> dict:
        # timing is excluded: reports must be byte-identical across reruns
        return {"name": self.name, "passed": self.passed, "worst": self.worst,
                "tolerance": self.tolerance, "checks": self.checks,
                "detail": self.detail}


def _sweep(config: RunConfig, rng, degrees):
    """The sweep's random products, one per degree, each drawn only when
    the loop reaches it, so draws made in the loop body come before the
    next product's."""
    for degree in degrees:
        yield random_blaschke(rng, degree, config.sweep.max_zero_modulus,
                              config.sweep.min_zero_gap)


def _special_zeros(theta: BlaschkeProduct) -> BlaschkeProduct:
    """theta with the factor z at degree 2 and a repeated zero at degree 3."""
    zeros = list(theta.zeros)
    if theta.degree == 2:
        zeros[0] = 0.0
    elif theta.degree == 3:
        zeros[2] = zeros[0]
    return BlaschkeProduct(zeros)


def _suite_basis(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (1, 2, 3, 4, 5)):
        basis = build_basis(theta, quad, config.tolerances.identity)
        # the basis is validated by Clark's exact rule; the trapezoid Gram
        # matrix keeps a quadrature-side check on the same basis
        integrated, _ = matrix_integral(basis.sample, basis.sample, None, quad)
        yield basis.gram_defect
        yield float(np.max(np.abs(integrated - np.eye(theta.degree))))


def _suite_kernels(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (2, 3, 4)):
        basis = build_basis(theta, quad)
        coeffs = rng.standard_normal(theta.degree) + 1j * rng.standard_normal(theta.degree)
        f = basis.combination(coeffs)
        for lam in random_interior_points(rng, 3, 0.8):
            kern = reproducing_kernel(theta, lam)
            yield abs(inner_product(f, kern, quad) - complex(f(lam)))
            yield abs(boundary_norm(kern, quad) - kern.norm())
            ck = conjugate_kernel(theta, lam)
            yield abs(boundary_norm(ck, quad) - ck.norm())


def _suite_toeplitz_algebra(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (2, 3, 4)):
        basis = build_basis(theta, quad)
        f = random_trig_poly(rng, 2, analytic=True)
        g = random_trig_poly(rng, 2, analytic=True)
        # by quadrature: the closed form is a polynomial in S and would
        # make this identity hold by construction
        lhs = toeplitz_by_quadrature(f * g, basis)
        rhs = toeplitz_by_quadrature(f, basis) @ toeplitz_by_quadrature(g, basis)
        yield float(np.max(np.abs(lhs.entries - rhs.entries)))


def _suite_link(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (1, 2, 3, 4)):
        basis = build_basis(theta, quad)
        phi = random_trig_poly(rng, 3)
        yield hankel_toeplitz_defect(phi, basis)


def _suite_rank_one(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (2, 3)):
        basis = build_basis(theta, quad)
        for lam in random_interior_points(rng, 2, 0.8):
            direct = toeplitz_matrix(rank_one_symbol(theta, lam), basis)
            outer = rank_one_matrix(lam, basis)
            yield float(np.max(np.abs(direct.entries - outer.entries)))
            ck = conjugate_kernel(theta, lam)
            t_lam = complex(theta(lam))
            target = (1.0 - abs(t_lam) ** 2) / (1.0 - abs(lam) ** 2)
            yield abs(ck.norm() ** 2 - target)


def _suite_clark_poisson(config: RunConfig, rng):
    for theta in _sweep(config, rng, (1, 3, 5)):
        alpha = random_unimodular(rng)
        measure = clark_measure(theta, alpha)
        pts = random_interior_points(rng, 25, 0.9)
        yield poisson_identity_defect(measure, theta, pts)
        yield abs(measure.mass - expected_mass(theta, alpha))


def _suite_clark_embedding(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (2, 4)):
        basis = build_basis(theta, quad)
        alpha = random_unimodular(rng)
        unitary = clark_unitary(basis, clark_measure(theta, alpha))
        yield unitary.unitarity_defect()
        coeffs = rng.standard_normal(theta.degree) + 1j * rng.standard_normal(theta.degree)
        f = basis.combination(coeffs)
        traces = unitary.matrix.entries @ coeffs
        weights = np.asarray(unitary.measure.weights)
        pts = random_interior_points(rng, 20, 0.9)
        rebuilt = clark_reconstruct(unitary.measure, theta,
                                    traces / np.sqrt(weights), pts)
        yield float(np.max(np.abs(rebuilt - f(pts))))


def _suite_hilbert_kernel(config: RunConfig, rng):
    for theta in _sweep(config, rng, (2, 3, 4)):
        basis = build_basis(theta, config.quadrature.settings())
        alpha = random_unimodular(rng)
        plus, minus = clark_pair(theta, alpha)
        h = hilbert_transform_matrix(plus, minus).entries
        eye = h.conj().T @ h
        yield float(np.max(np.abs(eye - np.eye(theta.degree))))
        yield hilbert_route_defect(basis, plus, minus)


def _suite_cross_route(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (1, 2, 3)):
        basis = build_basis(theta, quad)
        alpha = random_unimodular(rng)
        phi = random_conjugate_square_symbol(rng, theta)
        report = cross_route_equivalence(phi, basis, alpha)
        yield from (report.deviation, report.singular_gap, report.embedding_defect)
        # the pass cross_route_equivalence solved, parked on theta
        yield commutator_route_defect(phi, *clark_pair(theta, alpha))


def _suite_spectral_mapping(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (2, 3, 4)):
        basis = build_basis(theta, quad)
        phi = random_trig_poly(rng, 3, analytic=True)
        # by quadrature: the closed form phi(S) is triangular with diagonal
        # phi(zeros), which would make this check a tautology
        eigs = np.linalg.eigvals(toeplitz_by_quadrature(phi, basis).entries)
        targets = np.asarray(phi(np.asarray(theta.zeros)), dtype=complex)
        yield matched_distance(eigs, targets)


def _suite_compressed_shift(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in map(_special_zeros, _sweep(config, rng, (1, 2, 3, 4, 5, 6))):
        basis = build_basis(theta, quad)
        phi = random_trig_poly(rng, 4)
        for closed, integrated in ((toeplitz_matrix, toeplitz_by_quadrature),
                                   (hankel_matrix, hankel_by_quadrature)):
            diff = closed(phi, basis).entries - integrated(phi, basis).entries
            yield float(np.max(np.abs(diff)))


def _suite_standard_symbol(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (1, 2, 3)):
        basis = build_basis(theta, quad)
        dead = random_zero_hankel_symbol(rng, theta, band=2)
        _, norm = zero_symbol_test(dead, basis, config.tolerances.identity)
        yield norm
        phi = random_trig_poly(rng, 3)
        std = standard_symbol(phi, theta, quad)
        diff = (hankel_matrix(phi, basis).entries
                - hankel_matrix(std.symbol, basis).entries)
        yield float(np.linalg.norm(diff, 2))


def _suite_nehari(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (1, 2)):
        phi = random_trig_poly(rng, 2)
        gap = nehari_gap(phi, theta, grid_m=2048, quad=quad,
                         slack=config.tolerances.nehari_slack)
        yield max(gap.hankel_norm - gap.dual.value, 0.0)


def _suite_nehari_pairing(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in _sweep(config, rng, (2, 3, 4)):
        zeros = list(theta.zeros)
        if theta.degree == 3:
            zeros[0] = 0.0           # the factor z
        dual = dual_basis(BlaschkeProduct(zeros).square(), quad)
        phi = random_trig_poly(rng, 4)
        diff = (subspace_pairing(phi, dual.basis, dual.coeffs)
                - subspace_pairing_by_quadrature(phi, dual.basis, dual.coeffs))
        yield float(np.max(np.abs(diff)))


def _suite_clark_rule(config: RunConfig, rng):
    quad = config.quadrature.settings()
    for theta in map(_special_zeros, _sweep(config, rng, (1, 2, 3, 4, 5, 6))):
        basis = build_basis(theta, quad)
        phi = random_trig_poly(rng, 3)
        square = build_basis(theta.square(), quad)
        std = standard_symbol_on(phi, theta, square)
        integrated = subspace_pairing_by_quadrature(phi, square, std.subspace)
        other = random_blaschke(rng, 2, config.sweep.max_zero_modulus,
                                config.sweep.min_zero_gap).zeros
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        # the rule of theta^2 for the standard symbol, of theta^2 B_Z otherwise
        conjugates = (std.symbol, ConjSymbol(BasisCombination(other, c)))
        pairs = [(hankel_matrix(u, basis).entries,
                  hankel_by_quadrature(u, basis).entries) for u in conjugates]
        pairs.append((lifted_toeplitz_by_rule(phi, basis).entries,
                      toeplitz_by_quadrature(theta * phi, basis).entries))
        pairs.append((conjugate_multiplier_by_rule(basis).entries,
                      conjugate_multiplier_matrix(basis).entries))
        pairs.append((std.coeffs, integrated))
        for rule, reference in pairs:
            yield float(np.max(np.abs(rule - reference)))


# verify gates the closed forms and exact rules tighter than the identity tolerance
_EXACT_ROUTE_TOL = 1e-12

# name, suite, tolerance (a `tolerances` field or a number), detail
_SUITES = [
    ("basis-orthonormality", _suite_basis, "identity",
     "Takenaka-Malmquist Gram matrix vs identity, Clark rule and quadrature"),
    ("kernel-reproducing", _suite_kernels, "identity",
     "reproducing property and kernel norm formulas"),
    ("toeplitz-analytic-multiplicativity", _suite_toeplitz_algebra, "identity",
     "multiplicativity of compressions of analytic symbols"),
    ("hankel-toeplitz-link", _suite_link, "identity",
     "Hankel matrix vs conjugate-multiplied Toeplitz route"),
    ("rank-one-identity", _suite_rank_one, "identity",
     "rank-one compression vs kernel outer product"),
    ("clark-poisson", _suite_clark_poisson, "spectral",
     "Herglotz transform vs atomic Poisson sums and mass"),
    ("clark-embedding", _suite_clark_embedding, "spectral",
     "boundary-trace unitarity and interior reconstruction"),
    ("hilbert-kernel-route", _suite_hilbert_kernel, "identity",
     "atomic Hilbert kernel unitarity and unitary factorization"),
    ("cross-route-hankel", _suite_cross_route, "spectral",
     "quadrature route vs atomic commutator route"),
    ("spectral-mapping", _suite_spectral_mapping, "spectral",
     "eigenvalues of analytic compressions vs symbol at zeros"),
    ("standard-symbol", _suite_standard_symbol, "identity",
     "zero-symbol annihilation and standard representatives"),
    ("nehari-bound", _suite_nehari, "nehari_slack",
     "operator norm below dual distance estimate"),
    ("compressed-shift-route", _suite_compressed_shift, "identity",
     "compressed-shift closed form vs quadrature for A and Gamma"),
    ("nehari-pairing-route", _suite_nehari_pairing, _EXACT_ROUTE_TOL,
     "Taylor-row closed form vs quadrature for the Nehari pairing"),
    ("clark-rule-route", _suite_clark_rule, _EXACT_ROUTE_TOL,
     "Clark-rule builders vs quadrature for Gamma, A, the link and the standard symbol"),
]


@dataclass
class VerificationReport:
    seed: int
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "passed": self.passed,
                "suites": [r.row() for r in self.results]}


def suite_names():
    return [row[0] for row in _SUITES]


def run_verification(config: RunConfig, only=None) -> VerificationReport:
    # streams over every suite, so that --only replays a full run's instances
    rngs = spawn_rngs(config.sweep.seed, suite_names())
    chosen = [row for row in _SUITES if only is None or row[0] in only]
    results = []
    for name, suite, tol, detail in chosen:
        if isinstance(tol, str):
            tol = getattr(config.tolerances, tol)
        start = time.perf_counter()
        try:
            deviations = list(suite(config, rngs[name]))
            worst, checks = max([0.0] + deviations), len(deviations)
            passed = worst <= tol
        except Exception as exc:   # deliberate: a crash is a suite failure
            worst, checks, passed = float("inf"), 0, False
            detail = f"error: {exc}"
        results.append(SuiteResult(name, passed, float(worst), tol, checks,
                                   detail, time.perf_counter() - start))
    return VerificationReport(config.sweep.seed, results)
