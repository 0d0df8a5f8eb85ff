import numpy as np
import pytest

from ttolab.harmonic import (
    QuadratureError,
    QuadratureSettings,
    RationalSymbol,
    TrigPoly,
    adaptive_boundary_mean,
    boundary_mean,
    boundary_norm,
    fourier_coefficient,
    inner_product,
    poisson_extension,
    unit_nodes,
)


def test_unit_nodes_lie_on_circle():
    nodes = unit_nodes(16)
    assert nodes.shape == (16,)
    assert np.allclose(np.abs(nodes), 1.0)
    assert nodes[0] == 1.0 + 0.0j
    # quarter turn
    assert np.isclose(nodes[4], 1j)


def test_unit_nodes_chunking():
    full = unit_nodes(8)
    lo = unit_nodes(8, 0, 4)
    hi = unit_nodes(8, 4, 8)
    assert np.allclose(np.concatenate([lo, hi]), full)


def test_trig_poly_algebra():
    z = TrigPoly.z()
    zbar = z.conjugate()
    prod = z * zbar
    assert prod.coeffs == {0: 1.0 + 0.0j}
    f = TrigPoly({0: 2.0, 3: 1.0 - 1.0j})
    g = f - TrigPoly({3: 1.0 - 1.0j})
    assert g.coeffs == {0: 2.0 + 0.0j}
    assert f.band == 3
    assert f.is_analytic()
    assert not zbar.is_analytic()


def test_trig_poly_eval_matches_series(rng):
    coeffs = {-2: 0.5j, 0: 1.0, 3: -0.25}
    f = TrigPoly(coeffs)
    nodes = unit_nodes(32)
    direct = sum(c * nodes**k for k, c in coeffs.items())
    assert np.allclose(f(nodes), direct)


@pytest.mark.parametrize("r", [1.0, 0.9])
def test_trig_poly_horner_matches_term_by_term(r):
    rng = np.random.default_rng(31)
    z = r * unit_nodes(256)
    for _ in range(200):
        band = int(rng.integers(0, 12))
        freqs = rng.integers(-band, band + 1, size=int(rng.integers(0, 2 * band + 2)))
        f = TrigPoly({int(k): complex(*rng.standard_normal(2)) for k in freqs})
        direct = sum((c * z**k for k, c in f.coeffs.items()), np.zeros(z.shape, complex))
        scale = sum((abs(c) * r**k for k, c in f.coeffs.items()), 1.0)
        assert np.max(np.abs(f(z) - direct)) <= 1e-13 * scale


def test_boundary_mean_of_powers():
    for k in (-3, -1, 1, 2, 5):
        assert abs(boundary_mean(TrigPoly.z(k))) < 1e-14
    assert abs(boundary_mean(TrigPoly.one()) - 1.0) < 1e-14


def test_inner_product_orthonormality():
    for j in range(-2, 3):
        for k in range(-2, 3):
            val = inner_product(TrigPoly.z(j), TrigPoly.z(k))
            expect = 1.0 if j == k else 0.0
            assert abs(val - expect) < 1e-13


def test_fourier_coefficient_extraction():
    f = TrigPoly({-1: 2.0j, 0: -1.0, 4: 3.0})
    assert abs(fourier_coefficient(f, -1) - 2.0j) < 1e-13
    assert abs(fourier_coefficient(f, 0) + 1.0) < 1e-13
    assert abs(fourier_coefficient(f, 4) - 3.0) < 1e-13
    assert abs(fourier_coefficient(f, 2)) < 1e-13


def test_fourier_coefficient_needs_two_alias_free_levels():
    # |k| = 300 needs M = 1024 to start; a cap of 1024 leaves no doubling
    f = TrigPoly({300: 1.0})
    assert abs(fourier_coefficient(f, 300, QuadratureSettings(m_cap=2048)) - 1.0) < 1e-13
    with pytest.raises(QuadratureError, match="aliasing"):
        fourier_coefficient(f, 300, QuadratureSettings(m_cap=1024))


def test_boundary_norm():
    f = TrigPoly({0: 3.0, 2: 4.0})
    assert abs(boundary_norm(f) - 5.0) < 1e-12


def test_rational_symbol_geometric_series():
    # 1 / (1 - a zbar) has mean 1 for |a| < 1 (geometric expansion)
    a = 0.7
    denom = TrigPoly({0: 1.0, -1: -a})
    sym = RationalSymbol(TrigPoly.one(), denom)
    assert abs(boundary_mean(sym) - 1.0) < 1e-12
    # and its k-th nonpositive Fourier coefficient is a^{-k}
    assert abs(fourier_coefficient(sym, -2) - a**2) < 1e-12


def test_rational_symbol_rejects_pole_on_circle():
    with pytest.raises(ValueError):
        RationalSymbol(TrigPoly.one(), TrigPoly({0: 1.0, 1: -1.0}))


def test_adaptive_mean_converges_on_peaked_integrand():
    # Poisson kernel at |z| = 0.995 integrates to 1 but needs many nodes
    z = 0.995

    def sample(nodes):
        return (1 - z**2) / np.abs(nodes - z) ** 2

    val, grid = adaptive_boundary_mean(sample, QuadratureSettings(tol=1e-12))
    assert abs(val - 1.0) < 1e-10
    assert grid.m > 256


def test_adaptive_mean_raises_past_cap():
    # white-noise "integrand" never stabilizes; cap must trip
    state = np.random.default_rng(0)

    def sample(nodes):
        return state.uniform(size=len(nodes))

    with pytest.raises(QuadratureError):
        adaptive_boundary_mean(sample, QuadratureSettings(m_cap=1 << 12))


def test_poisson_extension_analytic_and_conjugate():
    z = 0.3 - 0.4j
    f = TrigPoly({2: 1.5})
    assert abs(poisson_extension(f, z) - 1.5 * z**2) < 1e-12
    g = TrigPoly({-1: 1.0})
    assert abs(poisson_extension(g, z) - np.conj(z)) < 1e-12


def test_symbol_arithmetic_wrappers():
    z = TrigPoly.z()
    h = 2.0 * z + 1.0
    nodes = unit_nodes(8)
    assert np.allclose(h(nodes), 2.0 * nodes + 1.0)
    assert np.allclose((-h)(nodes), -(2.0 * nodes + 1.0))
    assert np.allclose(h.conj()(nodes), np.conj(2.0 * nodes + 1.0))
