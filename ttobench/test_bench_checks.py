"""Each benchmark check passes a right result and flags a wrong one.

    python3 -m pytest -q ttobench/test_bench_checks.py
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402

FAMILY = [1.0 - 2.0 ** -k for k in range(1, 7)]


def test_essential_flags_a_perturbed_eigenvalue():
    eigs = np.conj(FAMILY)
    assert checks.check_essential(FAMILY, eigs) == []
    bad = eigs.copy()
    bad[2] += 1e-6
    assert checks.check_essential(FAMILY, bad)
    assert checks.check_essential(FAMILY, eigs[:-1])


def test_spectral_mapping_flags_a_perturbed_eigenvalue():
    zeros = [0.3, -0.2 + 0.5j]
    coeffs = {0: 1.0, 2: 0.5 - 1j}
    eigs = checks.trig_eval(coeffs, np.array(zeros))
    assert checks.check_spectral_mapping(zeros, coeffs, eigs) == []
    assert checks.check_spectral_mapping(zeros, coeffs, eigs + [0.0, 1e-6])


def test_decay_flags_wrong_extension_and_slow_decay():
    lam = FAMILY[-1]
    assert checks.check_decay(6, lam, 0.17, np.conj(lam), 0.05, 0.01) == []
    assert checks.check_decay(6, lam, 0.17, lam + 1e-6, 0.05, 0.01)
    assert checks.check_decay(6, lam, 0.5, np.conj(lam), 0.05, 0.01)      # above the estimate
    assert checks.check_decay(12, lam, 0.06, np.conj(lam), 0.05, 0.01)    # not below 0.05


@pytest.mark.parametrize("zeros, atoms", [([0.0], [1.0]), ([0.0, 0.0], [1.0, -1.0])])
def test_clark_flags_a_wrong_weight_or_atom(zeros, atoms):
    # theta = z^d at alpha = 1: atoms are the d-th roots of unity, weights 1/d
    d = len(zeros)
    weights = np.full(d, 1.0 / d)
    points = np.array([0.0, 0.5, -0.3 + 0.4j, 0.8j])
    assert checks.check_clark(zeros, 1.0, atoms, weights, points) == []
    wrong = weights.copy()
    wrong[0] *= 1.1
    assert checks.check_clark(zeros, 1.0, atoms, wrong, points)
    moved = np.array(atoms, dtype=complex) * np.exp(1e-6j)
    assert checks.check_clark(zeros, 1.0, moved, weights, points)


def test_square_clark_flags_a_wrong_weight():
    # theta = z, alpha = i: theta^2 = alpha^2 = -1 at +-i, weights 1/2
    atoms, weights = np.array([1j, -1j]), np.array([0.5, 0.5])
    assert checks.check_square_clark([0.0], 1j, atoms, weights) == []
    assert checks.check_square_clark([0.0], 1j, atoms, np.array([0.5, 0.6]))


def test_matrix_identities_flag_a_perturbed_entry():
    a = np.array([[1.0, 2.0j], [0.5, -1.0]])
    b = a.copy()
    b[1, 0] += 1e-6
    assert checks.check_cross_route(a, a) == [] and checks.check_cross_route(a, b)
    assert checks.check_standard_symbol(a, a) == [] and checks.check_standard_symbol(a, b)
    assert checks.check_link(1e-14) == [] and checks.check_link(1e-6)
    assert checks.check_link(float("nan"))


def test_schatten_flags_wrong_norms():
    a = np.diag([2.0, 1.0])
    right = {0.5: (np.sqrt(2.0) + 1.0) ** 2, 1.0: 3.0, 2.0: np.sqrt(5.0)}
    assert checks.check_schatten(a, right) == []
    assert checks.check_schatten(a, {**right, 2.0: 2.3})
    assert checks.check_schatten(a, {**right, 0.5: 2.9})


def test_besov_flags_a_broken_homogeneity():
    norms = {0.5: 2.0, 1.0: 1.5, 2.0: 1.0}
    scale = 3.0 - 4.0j
    right = {p: 5.0 * v for p, v in norms.items()}
    assert checks.check_besov(norms, right, scale) == []
    assert checks.check_besov(norms, {**right, 1.0: 7.6}, scale)


def test_nehari_flags_a_dual_value_above_the_sup_norm():
    shift = {-1: 1.0}                       # ||conj(z)||_inf = 1
    assert checks.sup_norm_bound(shift) >= 1.0
    assert checks.check_nehari_gap(shift, 1.0, 1.0) == []
    assert checks.check_nehari_gap(shift, 1.0, 1.01)
    assert checks.check_nehari_gap(shift, 1.1, 1.0)


def test_shift_triple_flags_a_wrong_entry():
    assert checks.check_shift_triple(1.0, 1.0, 1.0) == []
    assert checks.check_shift_triple(1.0, 1.001, 1.0)
    assert checks.check_shift_triple(1.0, 1.0, None)


def test_certificate_flags_a_wrong_value_or_table():
    # the zero competitor f = 0 has sup gap |conj(z)| = 1, the distance
    rows = [(r, 1.0, 1.0 - r * r) for r in (0.9, 0.99)]
    args = ({}, {}, [0.0, 0.0], 256)
    assert checks.check_certificate(1.0, *args, rows) == []
    assert checks.check_certificate(0.9, *args, rows)
    assert checks.check_certificate(1.0, *args, rows + [(0.5, 0.8, 0.75)])
    assert checks.check_certificate(1.0, *args, [(0.9, 1.0, 0.2)])


def test_tracer_counts_levels_and_final_grid():
    tracer_module = pytest.importorskip("tracer")
    ttolab = pytest.importorskip("ttolab")
    basis = ttolab.build_basis(ttolab.BlaschkeProduct([0.5, -0.3j]))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.active = True
        _, grid = ttolab.harmonic.matrix_integral(basis.sample, basis.sample, None, basis.quad)
        tracer.active = False
    finally:
        tracer.uninstall()
    counts = tracer.counts[0]
    levels = int(counts["harmonic.quad_levels"])
    assert counts["harmonic.quad_calls"] == 1
    assert counts["harmonic.quad_final_m_max"] == grid.m
    assert levels >= 2 and grid.m == basis.quad.m_init * 2 ** (levels - 1)
    assert counts["harmonic.quad_nodes"] == basis.quad.m_init * (2 ** levels - 1)
    assert counts["modelspace.sample_evals"] == 2 * 2 * counts["harmonic.quad_nodes"]
    assert not hasattr(ttolab.harmonic.matrix_integral, "__wrapped__")
