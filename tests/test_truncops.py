import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttolab import clark, harmonic, modelspace, spectra, truncops
from ttolab.blaschke import BlaschkeProduct
from ttolab.corpus import random_blaschke, random_trig_poly
from ttolab.harmonic import (RationalSymbol, TrigPoly, adaptive_boundary_mean,
                             matrix_integral)
from ttolab.modelspace import ConjugateKernel, build_basis, conjugate_kernel
from ttolab.truncops import (
    conjugate_multiplier_by_rule,
    conjugate_multiplier_matrix,
    hankel_by_quadrature,
    hankel_matrix,
    hankel_toeplitz_defect,
    lifted_toeplitz_by_rule,
    rank_one_matrix,
    rank_one_symbol,
    standard_symbol,
    toeplitz_by_quadrature,
    toeplitz_matrix,
    zero_symbol_test,
)
from ttolab.truncops import test_vector_ratio as vector_ratio


@pytest.fixture(scope="module")
def power_basis():
    return build_basis(BlaschkeProduct([0, 0, 0, 0]))


@pytest.fixture(scope="module")
def generic_basis():
    return build_basis(BlaschkeProduct([0.3, -0.4j, 0.1 + 0.5j]))


def classical_toeplitz(phi: TrigPoly, n: int) -> np.ndarray:
    mat = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i, j] = phi.coeffs.get(i - j, 0.0)
    return mat


def classical_hankel(phi: TrigPoly, n: int) -> np.ndarray:
    # row basis conj(z e_i): entry (i, j) = phihat(-1 - i - j)
    mat = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i, j] = phi.coeffs.get(-1 - i - j, 0.0)
    return mat


def test_toeplitz_matches_symbol_coefficients(power_basis):
    phi = TrigPoly({-2: 1.0j, -1: 0.5, 0: -1.0, 1: 2.0, 3: 0.25})
    mat = toeplitz_matrix(phi, power_basis)
    assert np.max(np.abs(mat.entries - classical_toeplitz(phi, 4))) < 1e-12


def test_hankel_matches_symbol_coefficients(power_basis):
    phi = TrigPoly({-7: 2.0, -4: 1.0 - 1.0j, -1: 0.5, 0: 3.0, 2: -1.0})
    mat = hankel_matrix(phi, power_basis)
    assert np.max(np.abs(mat.entries - classical_hankel(phi, 4))) < 1e-12


# degenerate zero sets: the origin, repeats, subnormal moduli and moduli up to 0.99
_ZERO = st.one_of(
    st.just(0j),
    st.builds(lambda r, t: r * np.exp(1j * t),
              st.floats(0.0, 0.99), st.floats(0.0, 2 * np.pi)))


@st.composite
def _zero_sets(draw):
    zeros = draw(st.lists(_ZERO, min_size=1, max_size=5))
    repeats = draw(st.lists(st.integers(0, len(zeros) - 1), max_size=2))
    return zeros + [zeros[i] for i in repeats]


_COEFF = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(max_examples=40, deadline=None)
@given(zeros=_zero_sets(),
       coeffs=st.dictionaries(st.integers(-4, 4), _COEFF, min_size=1, max_size=6))
def test_closed_form_matches_quadrature(zeros, coeffs):
    basis = build_basis(BlaschkeProduct(zeros))
    phi = TrigPoly(coeffs)
    for closed, integrated in ((toeplitz_matrix, toeplitz_by_quadrature),
                               (hankel_matrix, hankel_by_quadrature)):
        a = closed(phi, basis).entries
        b = integrated(phi, basis).entries
        assert np.max(np.abs(a - b)) < 1e-11


@settings(max_examples=40, deadline=None)
@given(zeros=_zero_sets())
def test_clark_rule_gram_matches_quadrature(zeros):
    basis = build_basis(BlaschkeProduct(zeros))
    integrated, _ = matrix_integral(basis.sample, basis.sample, None)
    assert np.max(np.abs(basis.gram - integrated)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(zeros=_zero_sets(), at_zero=st.booleans(),
       r=st.floats(0.0, 0.9), t=st.floats(0.0, 2 * np.pi))
def test_kernel_coordinates_match_projection(zeros, at_zero, r, t):
    theta = BlaschkeProduct(zeros)
    lam = zeros[-1] if at_zero else r * np.exp(1j * t)
    kernel = ConjugateKernel(theta, lam)
    closed = kernel.coordinates()
    projected = build_basis(theta).project(kernel)
    # the adaptive quadrature accepts at 1e-12 relative to the result
    assert np.max(np.abs(closed - projected)) < 1e-12 * max(1.0, np.max(np.abs(closed)))


def test_route_follows_symbol_type(generic_basis):
    poly = TrigPoly({-2: 1.0, 1: 0.5j})
    assert toeplitz_matrix(poly, generic_basis).provenance == "toeplitz:compressed-shift"
    assert hankel_matrix(poly, generic_basis).provenance == "hankel:compressed-shift"
    rational = RationalSymbol(TrigPoly.one(), TrigPoly({0: 2.0, 1: -1.0}))
    for phi in (rational, generic_basis.theta * poly, poly.conj() * rational):
        assert toeplitz_matrix(phi, generic_basis).provenance == "toeplitz:boundary-quadrature"
        assert hankel_matrix(phi, generic_basis).provenance == "hankel:boundary-quadrature"
    assert toeplitz_by_quadrature(poly, generic_basis).provenance == \
        "toeplitz:boundary-quadrature"
    assert hankel_by_quadrature(poly, generic_basis).provenance == \
        "hankel:boundary-quadrature"


def test_negated_trig_poly_keeps_the_closed_form(generic_basis):
    # -p and c - p are trig polynomials, so they keep the closed-form route
    poly = TrigPoly({-2: 1.0, 1: 0.5j})
    nodes = harmonic.unit_nodes(8)
    for phi, values in ((-poly, -poly(nodes)), (1.0 - poly, 1.0 - poly(nodes))):
        assert isinstance(phi, TrigPoly)
        assert np.allclose(phi(nodes), values)
        assert toeplitz_matrix(phi, generic_basis).provenance == "toeplitz:compressed-shift"
        assert hankel_matrix(phi, generic_basis).provenance == "hankel:compressed-shift"


def test_hankel_kills_analytic_part(power_basis):
    phi = TrigPoly({0: 5.0, 1: -2.0, 3: 1.0j})
    assert hankel_matrix(phi, power_basis).norm() < 1e-12


def test_analytic_multiplicativity(generic_basis):
    # by quadrature: the closed form is a polynomial in S, multiplicative by construction
    f = TrigPoly({0: 1.0, 1: -0.5j})
    g = TrigPoly({1: 2.0, 2: 0.3})
    left = toeplitz_by_quadrature(f * g, generic_basis)
    right = (toeplitz_by_quadrature(f, generic_basis)
             @ toeplitz_by_quadrature(g, generic_basis))
    assert np.max(np.abs(left.entries - right.entries)) < 1e-10


def test_toeplitz_adjoint_symbol(generic_basis):
    # by quadrature: the closed form builds A_conj(phi) as the adjoint by construction
    phi = TrigPoly({-1: 1.0j, 2: 0.5})
    a = toeplitz_by_quadrature(phi, generic_basis)
    b = toeplitz_by_quadrature(phi.conjugate(), generic_basis)
    assert np.max(np.abs(a.adjoint().entries - b.entries)) < 1e-10


def test_hankel_toeplitz_link(generic_basis):
    phi = TrigPoly({-3: 1.0, -1: -2.0j, 1: 0.7})
    assert hankel_toeplitz_defect(phi, generic_basis) < 1e-11


def test_hankel_toeplitz_link_of_rational_symbol(generic_basis):
    # the lifted factor by quadrature, the link by theta's rule
    phi = RationalSymbol(TrigPoly({0: 1.0, -1: -0.3j, 2: 0.4}), TrigPoly({0: 2.0, -1: 0.5}))
    assert hankel_matrix(phi, generic_basis).norm() > 0.1
    assert hankel_toeplitz_defect(phi, generic_basis) < 1e-11


def test_rank_one_identity(generic_basis):
    lam = 0.25 - 0.35j
    theta = generic_basis.theta
    direct = toeplitz_matrix(rank_one_symbol(theta, lam), generic_basis)
    outer = rank_one_matrix(lam, generic_basis)
    assert np.max(np.abs(direct.entries - outer.entries)) < 1e-11
    # the operator norm equals ||k_lam|| * ||ktilde_lam|| = ||k_lam||^2
    expect = (1 - abs(theta(lam)) ** 2) / (1 - abs(lam) ** 2)
    assert abs(direct.norm() - expect) < 1e-10


def test_zero_symbol(generic_basis):
    theta = generic_basis.theta
    square = theta.square()
    phi = (square * TrigPoly({1: 1.0, 2: -0.5})).conj() + TrigPoly({0: 1.0, 3: 2.0})
    is_zero, norm = zero_symbol_test(phi, generic_basis)
    assert is_zero, f"hankel norm {norm}"


def test_standard_symbol_equivalence(generic_basis):
    phi = TrigPoly({-5: 1.0, -2: 2.0j, 0: -1.0, 2: 0.5})
    phi_s = standard_symbol(phi, generic_basis.theta, quad=generic_basis.quad)
    gap = hankel_matrix(phi, generic_basis).entries \
        - hankel_matrix(phi_s, generic_basis).entries
    assert np.max(np.abs(gap)) < 1e-10


def test_operator_matrix_algebra(generic_basis):
    phi = TrigPoly({-1: 1.0, 1: 1.0})
    a = toeplitz_matrix(phi, generic_basis)
    sv = a.singular_values()
    assert np.all(np.diff(sv) <= 0)
    assert abs(a.norm() - sv[0]) < 1e-14
    assert abs(a.schatten_norm(2.0) - np.sqrt(np.sum(sv**2))) < 1e-12
    # composition checks the tags: Gamma_phi maps K into conj(zK)
    with pytest.raises(ValueError, match="composition mismatch"):
        a @ hankel_matrix(phi, generic_basis)


def test_test_vector_ratio_small_near_boundary():
    lam = 1 - 2.0**-9
    theta = BlaschkeProduct([1 - 2.0**-n for n in range(1, 10)])
    basis = build_basis(theta, gram_tol=1e-7)
    phi1 = TrigPoly({-1: 1.0})
    est = vector_ratio(basis, phi1, None, lam, zeta=np.conj(lam), zeta1=np.conj(lam))
    # kernel at the innermost zero is nearly an eigenvector
    assert est.ratio < 0.1
    assert est.ratio <= np.sqrt(2 * (est.poisson_bound + est.multiplier_bound)) + 1e-12


def test_test_vector_bounds_match_quadrature(generic_basis):
    lam = 0.4 - 0.3j
    phi1 = TrigPoly({-2: 0.5j, -1: 1.0, 1: 0.3})
    est = vector_ratio(generic_basis, phi1, None, lam, zeta=0.7)

    def poisson_mean(f):
        def sample(nodes):
            return f(nodes) * (1 - abs(lam) ** 2) / np.abs(nodes - lam) ** 2
        return complex(adaptive_boundary_mean(sample)[0])

    assert abs(est.zeta1 - poisson_mean(phi1)) < 1e-12
    bound = 8 * poisson_mean(lambda nodes: np.abs(phi1(nodes) - est.zeta1) ** 2).real
    assert abs(est.poisson_bound - bound) < 1e-12 * bound


def test_quadrature_fallbacks_use_the_basis_settings(monkeypatch):
    # a basis carries the one quadrature policy of everything built on it
    quad = harmonic.QuadratureSettings(m_init=128, m_cap=1 << 18, tol=1e-11)
    basis = build_basis(BlaschkeProduct([0.3, -0.4j, 0.1 + 0.5j]), quad)
    handed = []
    for module in (harmonic, modelspace, truncops):
        for name in ("matrix_integral", "adaptive_boundary_mean"):
            if hasattr(module, name):
                def recorded(*args, _original=getattr(module, name), **kwargs):
                    bound = inspect.signature(_original).bind(*args, **kwargs)
                    bound.apply_defaults()
                    handed.append(bound.arguments["quad"])
                    return _original(*args, **kwargs)
                monkeypatch.setattr(module, name, recorded)
    rational = RationalSymbol(TrigPoly.one(), TrigPoly({0: 2.0, 1: -1.0}))
    subspace = modelspace.vanishing_at_origin_subspace(basis)
    calls = {
        "toeplitz_by_quadrature": lambda: toeplitz_by_quadrature(rational, basis),
        "hankel_by_quadrature": lambda: hankel_by_quadrature(rational, basis),
        "conjugate_multiplier_matrix": lambda: conjugate_multiplier_matrix(basis),
        "subspace_pairing_by_quadrature":
            lambda: modelspace.subspace_pairing_by_quadrature(rational, basis, subspace),
        "subspace_pairing": lambda: modelspace.subspace_pairing(rational, basis, subspace),
        "test_vector_ratio": lambda: vector_ratio(basis, rational, None, 0.2j, 0.5),
    }
    for name, call in calls.items():
        handed.clear()
        call()
        assert handed, name
        assert all(settings is quad for settings in handed), name


def test_boundary_family_needs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called on the boundary path")

    for module in (harmonic, modelspace, truncops):
        for name in ("matrix_integral", "adaptive_boundary_mean"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    # zeros 1 - 2^-k up to k = 24, beyond the quadrature cap M = 2^20
    zeros = [1 - 2.0**-k for k in range(1, 25)]
    basis = build_basis(BlaschkeProduct(zeros), gram_tol=1e-7)
    est = vector_ratio(basis, TrigPoly({-1: 1.0}), None, zeros[-1], 1.0)
    assert abs(est.zeta1 - zeros[-1]) < 1e-12
    assert 0 < est.ratio < 0.05
    assert est.ratio <= np.sqrt(2 * (est.poisson_bound + est.multiplier_bound))


def test_interior_pipeline_needs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called on the interior path")

    monkeypatch.setattr(harmonic, "_adaptive_levels", refuse)
    theta = BlaschkeProduct([0.3, -0.4j, 0.0, 0.3])
    basis = build_basis(theta)
    phi = TrigPoly({-3: 1.0, -1: -2.0j, 0: 0.5, 2: 0.7})
    std = standard_symbol(phi, theta)
    gamma = hankel_matrix(std.symbol, basis)
    assert gamma.provenance == "hankel:clark-rule"
    assert np.max(np.abs(gamma.entries - hankel_matrix(phi, basis).entries)) < 1e-12
    assert hankel_toeplitz_defect(phi, basis) < 1e-12


def test_pipeline_builds_each_structure_once(monkeypatch):
    # one operation of the S^p pipeline: the spectral report of a Toeplitz
    # matrix, the Hankel-Toeplitz link, the cross-route check, Gamma, the
    # standard symbol and its Gamma, the square's Clark measure and three
    # Schatten norms
    calls = {"_clark_atoms": 0, "compressed_shift": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(modelspace, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(modelspace, name, counted)
    decomposed = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        decomposed.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    theta = BlaschkeProduct([0.3, -0.4j, 0.0, 0.5 + 0.5j], gamma=np.exp(0.7j))
    phi = TrigPoly({-3: 1.0, -1: -2.0j, 0: 0.5, 2: 0.7})
    c = np.linspace(1.0, 2.0, 8) + 1j * np.linspace(-1.0, 0.5, 8)
    psi = harmonic.ConjSymbol(modelspace.BasisCombination(theta.square().zeros, c))
    basis = build_basis(theta)
    spectra.spectral_report(toeplitz_matrix(TrigPoly({0: 1.0, 1: 0.5j, 3: 0.2}), basis))
    hankel_toeplitz_defect(phi, basis)
    clark.cross_route_equivalence(psi, basis, 1j)
    gamma = hankel_matrix(phi, basis)
    std = standard_symbol(phi, theta)
    hankel_matrix(std.symbol, basis)
    clark.square_clark_measure(theta, 1j)
    [gamma.schatten_norm(p) for p in (0.5, 1.0, 2.0)]
    # the shifts and rules of theta, theta^2 and z^3 theta^2 (the lifted factor)
    assert calls == {"_clark_atoms": 3, "compressed_shift": 3}
    # the Toeplitz matrix, Gamma, the cross-route check's two matrices and
    # the row e(0) of the theta^2 basis, each decomposed once
    assert len(decomposed) == 5
    assert len({id(a) for a in decomposed}) == 5


def test_standard_symbol_hankel_from_kept_basis(monkeypatch):
    # the standard symbol brings its theta^2 basis's rule and samples; a
    # combination without a basis builds the rule of theta^2 (gamma = 1)
    for gamma in (1.0, np.exp(0.7j)):
        theta = BlaschkeProduct([0.3, -0.4j, 0.0, 0.3], gamma=gamma)
        basis = build_basis(theta)
        std = standard_symbol(TrigPoly({-3: 1.0, -1: -2.0j, 0: 0.5, 2: 0.7}), theta)
        kept = std.symbol.inner
        assert kept.basis is not None
        bare = modelspace.BasisCombination(kept.zeros, kept.coeffs)
        gamma_kept = hankel_matrix(std.symbol, basis)
        gamma_bare = hankel_matrix(harmonic.ConjSymbol(bare), basis)
        assert gamma_kept.provenance == gamma_bare.provenance == "hankel:clark-rule"
        assert np.max(np.abs(gamma_kept.entries - gamma_bare.entries)) < 1e-14
    # a basis checked more loosely than the codomain's is not trusted: the
    # Hankel matrix then forms a rule of its own
    loose = build_basis(theta.square(), gram_tol=1e-6).combination(kept.coeffs)
    strict = build_basis(theta, gram_tol=1e-12)
    rules = []
    atoms = modelspace._clark_atoms
    monkeypatch.setattr(modelspace, "_clark_atoms", lambda t: rules.append(t) or atoms(t))
    hankel_matrix(std.symbol, basis)
    assert rules == []
    gamma_loose = hankel_matrix(harmonic.ConjSymbol(loose), strict)
    assert len(rules) == 1
    assert np.max(np.abs(gamma_loose.entries - gamma_bare.entries)) < 1e-14


def test_operator_matrix_is_read_only_and_decomposed_once(monkeypatch, generic_basis):
    op = toeplitz_matrix(TrigPoly({-1: 1.0, 0: 0.5, 2: 0.25j}), generic_basis)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.entries = np.eye(3)
    svd, count = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: count.append(1) or svd(*a, **k))
    sv = op.singular_values()
    assert op.norm() == sv[0] and op.schatten_norm(np.inf) == sv[0]
    assert abs(op.schatten_norm(2.0) - np.linalg.norm(op.entries)) < 1e-14
    assert op.schatten_norm(1.0) == pytest.approx(np.sum(sv), rel=1e-15)
    assert len(count) == 1 and not sv.flags.writeable


def test_rule_builders_match_quadrature(generic_basis):
    theta = generic_basis.theta
    phi = TrigPoly({-4: 0.5, -1: 1.0j, 0: 2.0, 3: -1.0})
    for rule, reference in (
            (lifted_toeplitz_by_rule(phi, generic_basis),
             toeplitz_by_quadrature(theta * phi, generic_basis)),
            (conjugate_multiplier_by_rule(generic_basis),
             conjugate_multiplier_matrix(generic_basis))):
        assert (rule.domain, rule.codomain) == (reference.domain, reference.codomain)
        assert np.max(np.abs(rule.entries - reference.entries)) < 1e-13
    # the conjugate of a combination with zeros of its own: the rule of theta^2 B_Z
    u = harmonic.ConjSymbol(modelspace.BasisCombination([0.5, -0.2 + 0.6j], [1.0, 2.0j]))
    rule = hankel_matrix(u, generic_basis)
    assert rule.provenance == "hankel:clark-rule"
    reference = hankel_by_quadrature(u, generic_basis)
    assert np.max(np.abs(rule.entries - reference.entries)) < 1e-13


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
def test_toeplitz_builders_are_complex_symmetric(degree):
    # C f = theta zbar conj(f) is a conjugation on K_theta and every
    # truncated Toeplitz operator is C-symmetric, C A C = A^* (Garcia-Putinar,
    # Trans. AMS 2006); M = conj(entries) is the matrix of C: C f = M conj(a)
    rng = np.random.default_rng(degree)
    basis = build_basis(random_blaschke(rng, degree))
    phi = random_trig_poly(rng, 3)
    m = np.conj(conjugate_multiplier_by_rule(basis).entries)
    assert np.max(np.abs(m @ np.conj(m) - np.eye(degree))) < 1e-13
    for op in (toeplitz_matrix(phi, basis), toeplitz_by_quadrature(phi, basis),
               lifted_toeplitz_by_rule(phi, basis)):
        a = op.entries
        assert np.max(np.abs(m @ np.conj(a) @ np.conj(m) - a.conj().T)) < 1e-13


def test_test_vector_requires_some_symbol(generic_basis):
    with pytest.raises(ValueError):
        vector_ratio(generic_basis, None, None, 0.3, zeta=0.0)


def test_quadrature_builders_sample_once_per_block(monkeypatch, generic_basis):
    # each node block samples the basis once, for its rows, its columns and
    # a symbol that combines the basis's own elements (on theta's zeros or
    # theta^2's), and the entries are those of separate samplers
    basis = generic_basis
    rational = RationalSymbol(TrigPoly.one(), TrigPoly({0: 2.0, 1: -1.0}))
    c = np.linspace(1.0, 2.0, 6) + 1j * np.linspace(-1.0, 0.5, 6)
    square = harmonic.ConjSymbol(modelspace.BasisCombination(basis.theta.square().zeros, c))
    own = modelspace.BasisCombination(basis.theta.zeros, c[:3])

    def rows(nodes):
        return np.conj(nodes[None, :] * basis.sample(nodes))

    separate = {
        "toeplitz": lambda: matrix_integral(basis.sample, basis.sample, rational, basis.quad),
        "toeplitz-own": lambda: matrix_integral(basis.sample, basis.sample, own, basis.quad),
        "hankel": lambda: matrix_integral(rows, basis.sample, rational, basis.quad),
        "hankel-square": lambda: matrix_integral(rows, basis.sample, square, basis.quad),
        "multiplier": lambda: matrix_integral(rows, basis.sample, basis.theta.conj(),
                                              basis.quad),
    }
    builders = {
        "toeplitz": lambda: toeplitz_by_quadrature(rational, basis),
        "toeplitz-own": lambda: toeplitz_by_quadrature(own, basis),
        "hankel": lambda: hankel_by_quadrature(rational, basis),
        "hankel-square": lambda: hankel_by_quadrature(square, basis),
        "multiplier": lambda: conjugate_multiplier_matrix(basis),
    }
    expected = {name: call()[0] for name, call in separate.items()}
    counts = {"blocks": 0, "samplings": 0}

    def counted(original, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harmonic, "unit_nodes", counted(harmonic.unit_nodes, "blocks"))
    monkeypatch.setattr(modelspace, "tm_samples", counted(modelspace.tm_samples, "samplings"))
    for name, build in builders.items():
        counts.update(blocks=0, samplings=0)
        entries = build().entries
        assert counts["blocks"] > 1, name
        assert counts["samplings"] == counts["blocks"], name
        assert np.array_equal(entries, expected[name]), name


@pytest.mark.parametrize("zeros, gamma", [([0.3, -0.4j, 0.1 + 0.5j], 1.0),
                                          ([0.0, 0.5j, 0.5j, -0.2], np.exp(0.7j)),
                                          ([1.0 - 2.0**-k for k in range(1, 13)], -1j)],
                         ids=["generic", "origin-repeated", "boundary"])
def test_lifted_rule_takes_theta_from_the_basis_row(zeros, gamma):
    # theta = gamma B at the lifted rule's atoms, B from the last sampled row
    theta = BlaschkeProduct(zeros, gamma)
    basis = build_basis(theta, gram_tol=1e-7)
    for depth in (0, 3):
        atoms, _ = modelspace.clark_rule(
            BlaschkeProduct((0.0,) * depth + theta.square().zeros), 1e-7)
        from_row = theta.gamma * modelspace._product_from_last_row(
            theta.zeros, basis.sample(atoms), atoms)
        assert np.max(np.abs(from_row - theta(atoms))) <= 1e-14
