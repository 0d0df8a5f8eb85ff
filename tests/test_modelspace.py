import numpy as np
import pytest

from ttolab import modelspace
from ttolab.blaschke import BlaschkeProduct
from ttolab.harmonic import TrigPoly, inner_product, unit_nodes
from ttolab.modelspace import (
    ModelSpaceError,
    build_basis,
    clark_rule,
    compressed_shift,
    conjugate_kernel,
    reproducing_kernel,
    tm_samples,
    vanishing_at_origin_subspace,
)


THETA = BlaschkeProduct([0.3, -0.5j, 0.2 + 0.4j])


def gram(basis, m=1 << 12):
    nodes = unit_nodes(m)
    samples = basis.sample(nodes)
    return samples @ samples.conj().T / m


def test_basis_orthonormal():
    basis = build_basis(THETA)
    defect = np.max(np.abs(gram(basis) - np.eye(basis.size)))
    assert defect < 1e-12


def test_monomial_basis_is_power_basis():
    basis = build_basis(BlaschkeProduct([0, 0, 0]))
    nodes = unit_nodes(8)
    for j in range(3):
        assert np.allclose(basis.combination(np.eye(3)[j])(nodes), nodes**j)


def test_sampler_matches_direct_formula(rng):
    # e_k = s_k / (1 - conj(lam_k) z) * prod_{l<k} b_l, with a zero at the
    # origin and one 2^-16 from the circle
    zeros = [0.3 - 0.2j, 0.0, (1 - 2.0**-16) * np.exp(0.7j), -0.5j, 0.0, 0.9]
    inside = 0.95 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * np.pi * rng.uniform(size=64))
    near = np.exp(1j * (0.7 + np.linspace(-1e-4, 1e-4, 33)))
    nodes = np.concatenate([inside, unit_nodes(64), near, [0.0]])
    got = tm_samples(zeros, nodes)
    # rounding in 1 - conj(lam) z is amplified by |lam z| / |1 - conj(lam) z|
    cond = 1.0 + sum(np.abs(lam * nodes) / np.abs(1 - np.conj(lam) * nodes) for lam in zeros)
    for k, lam in enumerate(zeros):
        direct = (np.sqrt(1 - abs(lam) ** 2) / (1 - np.conj(lam) * nodes)
                  * BlaschkeProduct(zeros[:k])(nodes))
        bound = 4 * len(zeros) * np.finfo(float).eps * cond * np.abs(direct)
        assert np.all(np.abs(got[k] - direct) <= bound)


def test_basis_size_matches_degree():
    for d in range(1, 6):
        theta = BlaschkeProduct([0.1 * k for k in range(d)])
        assert build_basis(theta).size == d


def test_reproducing_property(rng):
    basis = build_basis(THETA)
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    f = basis.combination(coeffs)
    for lam in (0.2, -0.3 + 0.4j, 0.7j):
        k = reproducing_kernel(THETA, lam)
        val = inner_product(f, k)
        assert abs(val - f(lam)) < 1e-10


def test_kernel_norm_formula():
    lam = 0.4 - 0.2j
    k = reproducing_kernel(THETA, lam)
    expect = (1 - abs(THETA(lam)) ** 2) / (1 - abs(lam) ** 2)
    assert abs(k.norm() ** 2 - expect) < 1e-12
    kt = conjugate_kernel(THETA, lam)
    assert abs(kt.norm() ** 2 - expect) < 1e-12


def test_conjugate_kernel_boundary_relation():
    # on the circle the two kernels are related by ktilde = theta zbar conj(k)
    lam = 0.3 + 0.3j
    nodes = unit_nodes(64)
    k = reproducing_kernel(THETA, lam)
    kt = conjugate_kernel(THETA, lam)
    rhs = THETA(nodes) * np.conj(nodes) * np.conj(k(nodes))
    assert np.max(np.abs(kt(nodes) - rhs)) < 1e-12


def test_projection_recovers_member(rng):
    basis = build_basis(THETA)
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    f = basis.combination(coeffs)
    assert np.max(np.abs(basis.project(f) - coeffs)) < 1e-10


def test_projection_kills_theta_multiples():
    basis = build_basis(THETA)
    g = THETA * TrigPoly({2: 1.0})  # theta * z^2 lies in theta H^2
    assert np.max(np.abs(basis.project(g))) < 1e-10


def test_vanishing_subspace():
    basis = build_basis(THETA)
    cols = vanishing_at_origin_subspace(basis)
    assert cols.shape == (basis.size, basis.size - 1)
    # orthonormal columns spanning functions that vanish at the origin
    assert np.max(np.abs(cols.conj().T @ cols - np.eye(basis.size - 1))) < 1e-12
    for j in range(cols.shape[1]):
        f = basis.combination(cols[:, j])
        assert abs(f(0.0)) < 1e-12


@pytest.mark.parametrize("zeros", [(0.3, -0.5j, 0.0), (0.5, 0.5, -0.2 + 0.6j, 0.9j), (0.0,)])
def test_vanishing_subspace_is_scipy_null_space(zeros):
    # the same orthonormal basis, not only the same span: the Nehari and
    # standard-symbol reports depend on it through last-digit arithmetic
    from scipy.linalg import null_space

    basis = build_basis(BlaschkeProduct(list(zeros)))
    at_zero = basis.sample(np.array([0.0 + 0.0j]))[:, 0]
    ref = null_space(at_zero[None, :].conj())
    cols = vanishing_at_origin_subspace(basis)
    assert cols.flags["C_CONTIGUOUS"] == ref.flags["C_CONTIGUOUS"]
    assert np.max(np.abs(cols - ref), initial=0.0) < 1e-15


def test_degree_zero_gives_trivial_space():
    basis = build_basis(BlaschkeProduct([]))
    assert basis.size == 0
    assert basis.gram_defect == 0.0


def test_gram_tolerance_enforced():
    with pytest.raises(ModelSpaceError):
        build_basis(THETA, gram_tol=1e-30)


def test_broken_sampler_fails_validation(monkeypatch):
    sampler = modelspace.tm_samples

    def broken(zeros, nodes):
        out = sampler(zeros, nodes)
        out[1] *= 1 + 1e-6
        return out

    monkeypatch.setattr(modelspace, "tm_samples", broken)
    with pytest.raises(ModelSpaceError):
        build_basis(THETA)


def test_clark_rule_refuses_drifting_atoms(monkeypatch):
    rule = clark_rule(THETA)
    assert np.max(np.abs(THETA(rule.atoms) - 1.0)) < 1e-13
    assert abs(rule.weights.sum() - build_basis(THETA).rule.weights.sum()) < 1e-15
    atoms = modelspace._clark_atoms
    monkeypatch.setattr(modelspace, "_clark_atoms", lambda theta: atoms(theta) * (1 + 1e-8))
    with pytest.raises(ModelSpaceError, match="off the unit circle"):
        clark_rule(THETA)
    assert clark_rule(THETA, gram_tol=1e-7).atoms.size == THETA.degree


def test_basis_keeps_shift_and_taylor_rows():
    basis = build_basis(THETA)
    assert np.array_equal(basis.shift, compressed_shift(THETA.zeros))
    short = basis.taylor_rows(3).copy()
    longer = basis.taylor_rows(7)
    # extending the kept rows gives the rows of a fresh computation
    assert np.array_equal(longer, build_basis(THETA).taylor_rows(7))
    assert np.array_equal(longer[:3], short)
    assert np.shares_memory(basis.taylor_rows(5), longer)
    assert basis.taylor_rows(0).shape == (0, 3)
    for kept in (basis.shift, longer, basis.rule_samples):
        assert not kept.flags.writeable
    # row n holds the z^n Taylor coefficients of the basis
    m = 1 << 10
    coefficients = np.fft.fft(basis.sample(unit_nodes(m)), axis=1) / m
    assert np.max(np.abs(longer - coefficients[:, :7].T)) < 1e-14
    assert np.array_equal(basis.rule_samples, basis.sample(basis.rule.atoms))


def test_subnormal_zero_keeps_factor_unimodular():
    lam = 5e-324 * np.exp(2.5j)
    theta = BlaschkeProduct([lam, 0.5])
    assert abs(abs(theta(1j)) - 1.0) < 1e-15
    nodes = unit_nodes(16)
    assert np.allclose(np.abs(modelspace.tm_samples([lam, 0.5], nodes)[1]),
                       np.sqrt(0.75) / np.abs(1 - 0.5 * nodes), rtol=1e-15)
    assert build_basis(theta).gram_defect < 1e-14


@pytest.mark.parametrize("zeros", [[0.3, -0.5j, 0.2 + 0.4j],
                                   [0.0, 0.6, 0.0, -0.3j],
                                   [0.5 + 0.5j, 0.5 + 0.5j, -0.2],
                                   [5e-324 * np.exp(2.5j), 0.7j, 1e-310],
                                   [0.999999 * np.exp(1.0j), -0.9]])
def test_origin_kernels_match_conjugate_kernel(zeros):
    theta = BlaschkeProduct(zeros, gamma=np.exp(0.4j))
    k0, ck0, at_origin = modelspace._origin_kernels(theta)
    assert np.max(np.abs(ck0 - conjugate_kernel(theta, 0.0).coordinates())) <= 1e-15
    assert np.max(np.abs(k0 - np.conj(tm_samples(theta.zeros, np.zeros(1))[:, 0]))) <= 1e-15
    assert abs(at_origin - complex(theta(0.0))) <= 1e-15


def _doubled_cases():
    rng = np.random.default_rng(5)
    cases = {}
    for d in (1, 3, 6):
        r = 0.95 * np.sqrt(rng.uniform(size=d))
        cases[f"random-{d}"] = list(r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, d)))
    cases["origin"] = [0.3 - 0.2j, 0.0, -0.5j]
    cases["repeated"] = [0.5j, 0.5j, -0.2, 0.6]
    for n in (8, 16, 24, 32, 40):
        cases[f"boundary-{n}"] = [1.0 - 2.0**-k for k in range(1, n + 1)]
    return cases


@pytest.mark.parametrize("zeros", list(_doubled_cases().values()), ids=list(_doubled_cases()))
def test_doubled_list_combination_samples_the_half_once(monkeypatch, zeros):
    # on Z + Z a combination samples Z once: c[:d] e + B (c[d:] e) with B
    # from the last row, against the full sampling of Z + Z
    rng = np.random.default_rng(len(zeros))
    doubled = tuple(zeros) + tuple(zeros)
    c = rng.standard_normal(len(doubled)) + 1j * rng.standard_normal(len(doubled))
    nodes = np.concatenate([
        np.exp(1j * rng.uniform(0.0, 2 * np.pi, 200)),
        np.exp(1j * np.array([0.0, 1e-12, -1e-9, 1e-5])),      # on T near 1
        1.0 - np.logspace(-14, -1, 30),                          # inside D near 1
        0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 100)),
    ])
    full = c @ tm_samples(doubled, nodes)
    sampled = []
    original = modelspace.tm_samples
    monkeypatch.setattr(modelspace, "tm_samples",
                        lambda z, n: sampled.append(len(z)) or original(z, n))
    values = modelspace.BasisCombination(doubled, c)(nodes)
    assert sampled == [len(zeros)]
    assert np.max(np.abs(values - full)) <= 1e-13 * np.max(np.abs(full))


def _origin_cases():
    rng = np.random.default_rng(23)
    cases = {"degree-0": []}
    for i in range(40):
        d = 1 + i % 12
        r = rng.uniform(size=d) ** rng.uniform(0.3, 3.0)
        cases[f"generic-{i}"] = list(r * np.exp(1j * rng.uniform(-np.pi, np.pi, d)))
    generic = cases["generic-11"]
    cases["origin-first"] = [0.0] + generic
    cases["origin-middle"] = generic[:5] + [0.0] + generic[5:]
    cases["origin-repeated"] = [0.0, 0.0] + generic[:4] + [0.0, 0.0] + generic[4:]
    cases["real-axis"] = [-0.5, 0.3, -0.0, 0.7, -0.9]
    cases["subnormal"] = [5e-324 * np.exp(2.5j), 0.5, 5e-324 * np.exp(2.5j), 0.0, -0.3j]
    cases["near-circle"] = [(1.0 - 1e-12) * np.exp(1j * t) for t in (0.0, 1.0, -2.5)] + [0.4]
    cases["boundary-40"] = [1.0 - 2.0**-k for k in range(1, 41)]
    for name in ("generic-7", "origin-middle", "subnormal", "boundary-40"):
        cases[f"square-{name}"] = list(BlaschkeProduct(cases[name]).square().zeros)
    return cases


@pytest.mark.parametrize("zeros", list(_origin_cases().values()), ids=list(_origin_cases()))
def test_origin_values_are_the_samplers_bit_for_bit(zeros):
    # the Newton step counts of the Nehari tests pin the sampler's rounding,
    # so e(0) must be the sampler's value at 0 in every bit, signed zeros too
    zeros = BlaschkeProduct(zeros).zeros
    got = modelspace._samples_at_origin(zeros)
    want = tm_samples(zeros, np.zeros(1, dtype=complex))[:, 0]
    assert got.shape == want.shape
    assert np.array_equal(got.view(float), want.view(float))


@pytest.mark.parametrize("zeros", [THETA.zeros, [0.0, 0.6, 0.0, -0.3j], THETA.square().zeros])
def test_basis_at_origin_is_the_sampler_at_origin(zeros):
    basis = build_basis(BlaschkeProduct(zeros))
    want = basis.sample(np.zeros(1, dtype=complex))[:, 0]
    assert np.array_equal(basis.at_origin.view(float), want.view(float))
    assert not basis.at_origin.flags.writeable
