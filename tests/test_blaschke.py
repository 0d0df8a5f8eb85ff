import json

import numpy as np
import pytest

from ttolab.blaschke import BlaschkeProduct, boundary_zero_closure, union_roots
from ttolab.harmonic import unit_nodes


def test_unimodular_on_boundary():
    theta = BlaschkeProduct([0.3, -0.5j, 0.1 + 0.6j])
    nodes = unit_nodes(64)
    assert np.allclose(np.abs(theta(nodes)), 1.0, atol=1e-12)


def test_contractive_inside(rng):
    theta = BlaschkeProduct([0.4, -0.2 + 0.3j])
    z = 0.9 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
    z = z[np.abs(z) < 0.9]
    assert np.all(np.abs(theta(z)) < 1.0)


def test_zeros_and_degree():
    zeros = [0.2, 0.2, -0.7j]
    theta = BlaschkeProduct(zeros)
    assert theta.degree == 3
    assert np.allclose(np.abs(theta(np.array(zeros))), 0.0, atol=1e-14)


def test_monomial_case():
    theta = BlaschkeProduct([0, 0, 0])
    z = 0.3 + 0.1j
    assert abs(theta(z) - z**3) < 1e-15


def test_rejects_zero_outside_disk():
    with pytest.raises(ValueError):
        BlaschkeProduct([1.2])


def test_derivative_matches_finite_difference():
    theta = BlaschkeProduct([0.5, -0.3 + 0.2j])
    z = 0.4 - 0.1j
    h = 1e-6
    fd = (theta(z + h) - theta(z - h)) / (2 * h)
    assert abs(theta.derivative(z) - fd) < 1e-8


def test_boundary_derivative_modulus_matches_per_zero_sum():
    # the broadcast sum against one term per zero, on sets with the factor
    # z, a repeated zero and 1 - |lam| down to 1e-12
    rng = np.random.default_rng(17)
    for _ in range(300):
        d = int(rng.integers(1, 20))
        lam = list((1.0 - 10.0 ** rng.uniform(-12.0, 0.0, d))
                   * np.exp(2j * np.pi * rng.uniform(size=d)))
        lam[0] = 0.0
        lam.append(lam[-1])
        xi = np.exp(2j * np.pi * rng.uniform(size=int(rng.integers(1, 40))))
        speed = BlaschkeProduct(lam).boundary_derivative_modulus(xi)
        terms = sum((1.0 - abs(complex(a)) ** 2) / np.abs(1.0 - np.conj(a) * xi) ** 2
                    for a in lam)
        assert speed.shape == xi.shape
        assert np.max(np.abs(speed / terms - 1.0)) < 2e-15
    assert BlaschkeProduct([]).boundary_derivative_modulus(np.ones((2, 3))).shape == (2, 3)


def test_boundary_derivative_modulus_monomial():
    theta = BlaschkeProduct([0, 0, 0, 0])
    nodes = unit_nodes(16)
    assert np.allclose(theta.boundary_derivative_modulus(nodes), 4.0)


def test_square_doubles_zeros():
    theta = BlaschkeProduct([0.3, -0.5])
    sq = theta.square()
    assert sq.degree == 4
    z = 0.2 + 0.2j
    assert abs(sq(z) - theta(z) ** 2) < 1e-14


def test_json_roundtrip():
    # the dict form through JSON text, as the CLI reads and writes it
    theta = BlaschkeProduct([0.3 + 0.1j, -0.2], gamma=np.exp(0.7j))
    back = BlaschkeProduct.from_dict(json.loads(json.dumps(theta.to_dict())))
    z = 0.5j
    assert abs(theta(z) - back(z)) < 1e-15


def test_boundary_zero_closure_single_cluster():
    zeros = [1 - 2.0**-n for n in range(2, 12)]
    closure = boundary_zero_closure(zeros)
    assert len(closure) == 1
    assert abs(closure[0] - 1.0) < 1e-6


def test_boundary_zero_closure_ignores_deep_zeros():
    closure = boundary_zero_closure([0.1, -0.3j, 0.5])
    assert len(closure) == 0


def test_boundary_zero_closure_two_clusters():
    zeros = [0.95, 0.97, -0.96j, -0.98j]
    closure = boundary_zero_closure(zeros)
    assert len(closure) == 2
    angles = sorted(np.mod(np.angle(closure), 2 * np.pi))
    assert abs(angles[0] - 0.0) < 0.05
    assert abs(angles[1] - 1.5 * np.pi) < 0.05


def test_boundary_zero_closure_cluster_straddles_angle_zero():
    # the cluster at angle 0 wraps from 2 pi - 0.02 to 0.03; its most
    # boundary-near zero sits below the wrap
    zeros = [0.95 * np.exp(0.01j), 0.99 * np.exp(-0.02j), 0.97 * np.exp(0.03j),
             0.96 * np.exp(3j)]
    closure = boundary_zero_closure(zeros)
    assert len(closure) == 2
    assert abs(closure[0] - np.exp(3j)) < 1e-15
    assert abs(closure[1] - np.exp(-0.02j)) < 1e-15


def test_union_roots_joins_pairs():
    roots = union_roots(6, [(0, 2), (3, 4), (2, 5)])
    assert roots[0] == roots[2] == roots[5]
    assert roots[3] == roots[4]
    assert len(set(roots)) == 3


def test_label_formats_once():
    theta = BlaschkeProduct([0.5, -0.25j, 0.0], gamma=1j)
    assert theta.label() == "0.5+0j;-0-0.25j;0+0j;g0+1j"
    assert theta.label() is theta.label()
