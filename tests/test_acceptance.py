"""End-to-end acceptance gate.

Each test covers one advertised guarantee at its stated tolerance and
instance count, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion.  Random instances are drawn from fixed
seeds; reruns are exact.
"""

import numpy as np
import pytest

from ttolab.besov import conjecture_probe, oscillation, Arc
from ttolab.blaschke import BlaschkeProduct
from ttolab.clark import (
    clark_measure,
    clark_reconstruct,
    clark_unitary,
    cross_route_equivalence,
    hilbert_transform_matrix,
    poisson_identity_defect,
)
from ttolab.cli import main as cli_main
from ttolab.corpus import (
    random_conjugate_square_symbol,
    random_interior_points,
    random_trig_poly,
    random_unimodular,
    random_zero_hankel_symbol,
    random_zeros,
    spawn_rngs,
)
from ttolab.harmonic import DEFAULT_QUADRATURE, QuadratureSettings, TrigPoly
from ttolab.modelspace import build_basis
from ttolab.nehari import NehariError, nehari_gap
from ttolab.spectra import (
    essential_spectrum_experiment,
    geometric_zero_generator,
    matched_distance,
    spectral_report,
)
from ttolab.spectra import test_vector_decay_experiment as decay_experiment
from ttolab.truncops import (
    hankel_matrix,
    hankel_toeplitz_defect,
    rank_one_matrix,
    rank_one_symbol,
    standard_symbol,
    toeplitz_by_quadrature,
    toeplitz_matrix,
)

SEED = 20250815


def _report(tag, worst, bound):
    line = f"[{tag}] worst={worst:.3e} bound={bound:g}"
    print(line)
    assert worst < bound, line


def _random_theta(rng, max_degree=8, low=1):
    degree = int(rng.integers(low, max_degree + 1))
    return BlaschkeProduct(random_zeros(rng, degree))


def test_c01_clark_consistency():
    rng = spawn_rngs(SEED, ["clark-consistency"])["clark-consistency"]
    worst_poisson = worst_unitary = worst_rebuild = 0.0
    for _ in range(50):
        theta = _random_theta(rng, max_degree=10)
        basis = build_basis(theta)
        points = random_interior_points(rng, 100)
        coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        f = basis.combination(coeffs)
        f_points = f(points)
        for _ in range(4):
            alpha = random_unimodular(rng)
            mu = clark_measure(theta, alpha)
            worst_poisson = max(worst_poisson,
                                poisson_identity_defect(mu, theta, points))
            worst_unitary = max(worst_unitary,
                                clark_unitary(basis, mu).unitarity_defect())
            rebuilt = clark_reconstruct(mu, theta, f(mu.atoms), points)
            scale = max(1.0, float(np.max(np.abs(f_points))))
            worst_rebuild = max(worst_rebuild,
                                float(np.max(np.abs(rebuilt - f_points))) / scale)
    _report("clark poisson identity", worst_poisson, 1e-8)
    _report("clark embedding unitarity", worst_unitary, 1e-10)
    _report("clark reconstruction", worst_rebuild, 1e-8)


def test_c02_cross_route_equivalence():
    rng = spawn_rngs(SEED, ["cross-route"])["cross-route"]
    worst_dev = worst_sv = 0.0
    for _ in range(50):
        theta = _random_theta(rng)
        basis = build_basis(theta)
        alpha = random_unimodular(rng)
        phi = random_conjugate_square_symbol(rng, theta)
        rep = cross_route_equivalence(phi, basis, alpha)
        worst_dev = max(worst_dev, rep.deviation)
        worst_sv = max(worst_sv, rep.singular_gap)
    _report("cross-route operator gap", worst_dev, 1e-8)
    _report("cross-route singular values", worst_sv, 1e-8)


def test_c03_hankel_toeplitz_link():
    rng = spawn_rngs(SEED, ["link"])["link"]
    worst = 0.0
    for _ in range(100):
        theta = _random_theta(rng)
        basis = build_basis(theta)
        phi = random_trig_poly(rng, band=int(rng.integers(1, 7)))
        worst = max(worst, hankel_toeplitz_defect(phi, basis))
    _report("hankel-toeplitz link", worst, 1e-10)


def test_c04_spectral_mapping():
    rng = spawn_rngs(SEED, ["spectral-mapping"])["spectral-mapping"]
    worst = 0.0
    for _ in range(100):
        zeros = random_zeros(rng, int(rng.integers(1, 9)))
        theta = BlaschkeProduct(zeros)
        basis = build_basis(theta)
        phi = random_trig_poly(rng, band=int(rng.integers(1, 7)), analytic=True)
        # by quadrature: the closed form phi(S) is triangular with diagonal phi(zeros)
        rep = spectral_report(toeplitz_by_quadrature(phi, basis))
        worst = max(worst, matched_distance(rep.eigenvalues,
                                            phi(np.asarray(zeros))))
    _report("analytic spectral mapping", worst, 1e-8)


def test_c05_rank_one_identity():
    rng = spawn_rngs(SEED, ["rank-one"])["rank-one"]
    worst_mat = worst_norm = 0.0
    for _ in range(50):
        theta = _random_theta(rng)
        basis = build_basis(theta)
        lam = complex(random_interior_points(rng, 1)[0])
        direct = toeplitz_matrix(rank_one_symbol(theta, lam), basis)
        outer = rank_one_matrix(lam, basis)
        worst_mat = max(worst_mat,
                        float(np.max(np.abs(direct.entries - outer.entries))))
        expect = (1 - abs(theta(lam)) ** 2) / (1 - abs(lam) ** 2)
        worst_norm = max(worst_norm, abs(direct.norm() - expect))
    _report("rank-one matrix identity", worst_mat, 1e-10)
    _report("rank-one kernel norm", worst_norm, 1e-10)


def test_c06_zero_and_standard_symbol():
    rng = spawn_rngs(SEED, ["zero-symbol"])["zero-symbol"]
    worst_zero = worst_std = 0.0
    for _ in range(50):
        theta = _random_theta(rng)
        basis = build_basis(theta)
        null_phi = random_zero_hankel_symbol(rng, theta)
        worst_zero = max(worst_zero, hankel_matrix(null_phi, basis).norm())
        phi = random_trig_poly(rng, band=int(rng.integers(1, 7)))
        phi_s = standard_symbol(phi, theta, quad=basis.quad)
        gap = hankel_matrix(phi, basis).entries \
            - hankel_matrix(phi_s, basis).entries
        worst_std = max(worst_std, float(np.max(np.abs(gap))))
    _report("zero-symbol annihilation", worst_zero, 1e-10)
    _report("standard-symbol equivalence", worst_std, 1e-10)


def test_c07_boundary_concentration_experiment():
    quad = QuadratureSettings(tol=1e-10)
    gen = geometric_zero_generator(0.5)
    phi = TrigPoly({-1: 1.0})
    rows = essential_spectrum_experiment(gen, phi, [2, 4, 6, 8, 10, 12],
                                         quad=quad, gram_tol=1e-7)
    dists = [row.worst_target_distance for row in rows]
    print("[concentration] distances:",
          " ".join(f"{d:.4f}" for d in dists))
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:])), dists
    assert dists[-1] < 0.05, dists

    decay = decay_experiment(gen, phi, None, zeta=1.0, n_max=12, quad=quad,
                             gram_tol=1e-7)
    ratios = [row.estimate.ratio for row in decay]
    print("[decay] ratios:", " ".join(f"{r:.4f}" for r in ratios))
    assert ratios[-1] < 0.05, ratios


def test_c08_nehari_lower_bound():
    gap = nehari_gap(TrigPoly({-1: 1.0}), BlaschkeProduct([0]),
                     multistart=8, grid_m=1024)
    triple = (gap.hankel_norm, gap.dual.value, gap.ratio)
    print(f"[nehari] shift-symbol triple {triple}")
    assert abs(triple[0] - 1.0) < 1e-8
    assert abs(triple[1] - 1.0) < 1e-8
    assert abs(triple[2] - 1.0) < 1e-8

    rng = spawn_rngs(SEED, ["nehari-sweep"])["nehari-sweep"]
    constants = {}
    for _ in range(50):
        theta = _random_theta(rng, max_degree=4)
        band = int(rng.integers(1, 4))
        phi = random_trig_poly(rng, band=band, anti_analytic=True)
        try:
            gap = nehari_gap(phi, theta, multistart=24, grid_m=2048,
                             slack=1e-6)
        except NehariError as exc:
            pytest.fail(f"lower bound violated: {exc}")
        if gap.ratio is not None:
            label = theta.label()
            constants[label] = max(constants.get(label, 1.0), gap.ratio)
    worst = max(constants.values())
    print(f"[nehari] empirical distance/norm constants per inner function: "
          f"max={worst:.6f} over {len(constants)} products")
    assert worst >= 1.0 - 1e-6


def test_c09_hilbert_kernel_unitary():
    rng = spawn_rngs(SEED, ["hilbert-kernel"])["hilbert-kernel"]
    worst = 0.0
    for _ in range(50):
        theta = _random_theta(rng)
        alpha = random_unimodular(rng)
        plus = clark_measure(theta, alpha)
        minus = clark_measure(theta, -alpha)
        h = hilbert_transform_matrix(plus, minus).entries
        eye = np.eye(h.shape[0])
        worst = max(worst, float(np.max(np.abs(h.conj().T @ h - eye))))
    _report("two-measure hilbert kernel unitarity", worst, 1e-10)


def test_c10_oscillation_identities_and_probe():
    rng = spawn_rngs(SEED, ["besov-ids"])["besov-ids"]
    full = Arc(0.0, 2 * np.pi)
    worst = 0.0
    for _ in range(20):
        theta = _random_theta(rng, max_degree=5, low=2)
        alpha = random_unimodular(rng)
        nu = clark_measure(theta, alpha)
        phi = random_trig_poly(rng, band=3)
        c = complex(rng.normal(), rng.normal())
        base = oscillation(phi, nu, full, 0)
        scaled = oscillation(abs(c) * phi, nu, full, 0)
        worst = max(worst, abs(scaled - abs(c) * base))
        shifted = oscillation(phi + TrigPoly({0: c}), nu, full, 0)
        worst = max(worst, abs(shifted - base))
    _report("oscillation homogeneity/shift identities", worst, 1e-10)

    corpus = [(f"sym{i}", random_trig_poly(rng, band=3, anti_analytic=True))
              for i in range(6)]
    p_list = [0.5, 1.0, 2.0]
    for degree in (2, 3):
        theta = BlaschkeProduct([0.0] * degree)
        rows = conjecture_probe(theta, 1.0, p_list, corpus)
        assert len(rows) == len(corpus)
        for row in rows:
            assert set(row.schatten) == set(p_list)
            assert all(np.isfinite(row.schatten[p]) for p in p_list)
            assert all(np.isfinite(row.besov[p]) for p in p_list)
        print(f"[probe] degree-{degree} power symbol: "
              + "; ".join(f"{row.tag}: "
                          + ", ".join(f"p={p:g} {row.schatten[p]:.4f}/{row.besov[p]:.4f}"
                                      for p in p_list)
                          for row in rows[:2]) + "; ...")


def test_c11_deterministic_reports(tmp_path):
    args = ["verify", "--set", "nehari.multistart=6", "--set", "nehari.grid_m=512"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--output-dir", str(a)]) == 0
    assert cli_main(args + ["--output-dir", str(b)]) == 0
    blob_a = (a / "verify.json").read_bytes()
    assert blob_a == (b / "verify.json").read_bytes()
    print(f"[determinism] verify.json identical across reruns "
          f"({len(blob_a)} bytes)")
