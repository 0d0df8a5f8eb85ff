import numpy as np

from ttolab.blaschke import BlaschkeProduct
from ttolab.harmonic import TrigPoly
from ttolab.modelspace import build_basis
from ttolab.spectra import (
    _single_linkage,
    essential_spectrum_experiment,
    geometric_zero_generator,
    matched_distance,
    spectral_report,
)
from ttolab.spectra import test_vector_decay_experiment as decay_experiment
from ttolab.truncops import toeplitz_matrix


def test_matched_distance_permutation_invariant():
    a = np.array([0.0, 1.0, 2.0 + 1j])
    b = np.array([2.0 + 1j, 0.0, 1.0])
    assert matched_distance(a, b) < 1e-15


def test_matched_distance_worst_pair():
    assert abs(matched_distance([0.0, 1.0], [0.0, 2.0]) - 1.0) < 1e-15
    # optimal assignment, not greedy: {0,1} vs {0.6, -0.4}
    d = matched_distance([0.0, 1.0], [0.6, -0.4])
    assert abs(d - 0.4) < 1e-12


def test_spectral_mapping_analytic_symbol(rng):
    zeros = np.array([0.3, -0.2 + 0.4j, 0.5j])
    theta = BlaschkeProduct(zeros)
    basis = build_basis(theta)
    phi = TrigPoly({0: 1.0, 1: -2.0j, 2: 0.5})
    rep = spectral_report(toeplitz_matrix(phi, basis))
    assert matched_distance(rep.eigenvalues, phi(zeros)) < 1e-10


def test_schatten_norms_consistent():
    theta = BlaschkeProduct([0.3, -0.4j])
    basis = build_basis(theta)
    op = toeplitz_matrix(TrigPoly({-1: 1.0, 1: 1.0}), basis)
    rep = spectral_report(op, p_list=(1.0, 2.0, np.inf))
    sv = op.singular_values()
    assert abs(rep.schatten[1.0] - np.sum(sv)) < 1e-12
    assert abs(rep.schatten[2.0] - np.sqrt(np.sum(sv**2))) < 1e-12
    assert abs(rep.schatten[float(np.inf)] - sv[0]) < 1e-14


def test_eigenvalues_sorted_deterministically():
    theta = BlaschkeProduct([0.2, -0.3, 0.1j])
    basis = build_basis(theta)
    op = toeplitz_matrix(TrigPoly({1: 1.0}), basis)
    a = spectral_report(op).eigenvalues
    b = spectral_report(op).eigenvalues
    assert np.array_equal(a, b)
    keys = np.lexsort((a.imag, a.real))
    assert np.array_equal(keys, np.arange(len(a)))


def test_essential_experiment_converges():
    gen = geometric_zero_generator(0.5)
    phi = TrigPoly({-1: 1.0})
    rows = essential_spectrum_experiment(gen, phi, [2, 4, 6, 8], quad=None)
    dists = [r.worst_target_distance for r in rows]
    # the boundary accumulation point is 1, phi(1) = 1; eigenvalues crowd it
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.2


def test_decay_rows_respect_bound():
    gen = geometric_zero_generator(0.5)
    rows = decay_experiment(gen, TrigPoly({-1: 1.0}), None, zeta=1.0, n_max=8)
    assert len(rows) == 8
    for row in rows:
        assert row.estimate.ratio <= row.combined_bound + 1e-9
    # ratio halves roughly like 2^{-n/2}
    assert rows[-1].estimate.ratio < rows[0].estimate.ratio / 4


def test_geometric_zero_generator():
    gen = geometric_zero_generator(0.5)
    assert abs(gen(1) - 0.5) < 1e-15
    assert abs(gen(3) - 0.875) < 1e-15
    spun = geometric_zero_generator(0.5, angle_rate=np.pi / 2)
    assert abs(spun(2) - 0.75 * np.exp(1j * np.pi / 4)) < 1e-14


def test_single_linkage_chains_close_points():
    points = np.array([0.0, 0.04, 0.08, 1.0, 1.0 + 0.03j])
    clusters = _single_linkage(points, 0.05)
    assert [c.count for c in clusters] == [3, 2]
    assert abs(clusters[0].center - 0.04) < 1e-15
