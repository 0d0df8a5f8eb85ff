"""Correctness checks for the benchmark's operations.

Each check compares a result of ttolab against a value computed here from
a closed form, or against a property the mathematics forces, without
going through the ttolab code path that produced the result.  A check
returns the list of problems it found; an empty list means the result
passed.  Nothing in this module imports ttolab.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

EIGEN_TOL = 1e-8          # eigenvalues against closed-form targets
CLARK_TOL = 1e-8          # level set, Herglotz mass and Poisson identity
LINK_TOL = 1e-10          # Hankel-Toeplitz link and standard symbol
CROSS_ROUTE_TOL = 1e-8    # quadrature Hankel against the Clark route
BESOV_TOL = 1e-8          # homogeneity and shift invariance, relative
NEHARI_SLACK = 1e-6       # ||Gamma|| <= dual value + slack
TRIPLE_TOL = 1e-8         # degree-1 shift-symbol triple (1, 1, 1)
DECAY_THRESHOLD = 0.05    # almost-eigenvector ratio from DECAY_FROM on
DECAY_FROM = 12


def _above(label: str, value: float, tol: float) -> list[str]:
    """A problem when value exceeds tol (NaN counts as exceeding)."""
    if value <= tol:
        return []
    return [f"{label} {value:.3e} exceeds {tol:g}"]


def blaschke(zeros, z) -> np.ndarray:
    """Finite Blaschke product with factors (|a|/a)(a - z)/(1 - conj(a) z),
    and the factor z for a zero at the origin."""
    z = np.asarray(z, dtype=complex)
    out = np.ones(z.shape, dtype=complex)
    for a in zeros:
        a = complex(a)
        out = out * (z if a == 0 else (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z))
    return out


def trig_eval(coeffs: dict, z) -> np.ndarray:
    """sum_k c_k z^k for a sparse coefficient dict {k: c_k}."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for k, c in coeffs.items():
        out = out + complex(c) * z ** int(k)
    return out


def matched_gap(computed, target) -> float:
    """Largest pointwise gap under the optimal matching of two multisets."""
    a = np.asarray(computed, dtype=complex).ravel()
    b = np.asarray(target, dtype=complex).ravel()
    if a.size != b.size:
        return float("inf")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def herglotz_mass(zeros, alpha: complex) -> float:
    """Total mass of the Clark measure: Re[(alpha + theta(0)) / (alpha - theta(0))]."""
    t0 = complex(blaschke(zeros, 0.0))
    return float(np.real((alpha + t0) / (alpha - t0)))


def _spectral_norm(a) -> float:
    a = np.asarray(a, dtype=complex)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


# ----------------------------------------------------------- boundary

def check_essential(zeros, eigenvalues) -> list[str]:
    """sigma(A_{conj z}) on the product of `zeros` is conj(zeros); for the
    family 1 - 2^-k the eigenvalue nearest phi(1) = 1 lies at 2^-n."""
    n = len(zeros)
    eigs = np.asarray(eigenvalues, dtype=complex)
    problems = _above("eigenvalue gap to conj(zeros)",
                      matched_gap(eigs, np.conj(zeros)), EIGEN_TOL)
    if eigs.size:
        nearest = float(np.min(np.abs(eigs - 1.0)))
        problems += _above("distance to 1 off 2^-n", abs(nearest - 2.0 ** -n), EIGEN_TOL)
    return problems


def check_decay(n: int, lam: complex, ratio: float, zeta1: complex,
                poisson_bound: float, multiplier_bound: float) -> list[str]:
    """Almost-eigenvector step for phi1 = conj(z), zeta = 1.

    The harmonic extension of conj(z) at lam is conj(lam); the ratio is
    positive, within the estimate sqrt(2 (P + M)) the decay experiment
    reports, and below DECAY_THRESHOLD from degree DECAY_FROM on.
    """
    problems = _above("zeta1 off conj(lam)", abs(complex(zeta1) - np.conj(lam)), EIGEN_TOL)
    bound = float(np.sqrt(2.0 * (poisson_bound + multiplier_bound)))
    if not 0.0 < ratio <= bound:
        problems.append(f"ratio {ratio:.3e} outside (0, {bound:.3e}]")
    if n >= DECAY_FROM and not ratio < DECAY_THRESHOLD:
        problems.append(f"ratio {ratio:.3e} not below {DECAY_THRESHOLD:g} at n={n}")
    return problems


def check_clark(zeros, alpha: complex, atoms, weights, points) -> list[str]:
    """Atoms solve theta = alpha on the circle, the weights are positive
    with the Herglotz mass, and the Poisson identity holds at `points`."""
    atoms = np.asarray(atoms, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    points = np.asarray(points, dtype=complex)
    if atoms.size != len(zeros) or weights.shape != atoms.shape:
        return [f"{atoms.size} atoms for degree {len(zeros)}"]
    problems = _above("atom off the circle", float(np.max(np.abs(np.abs(atoms) - 1.0))),
                      CLARK_TOL)
    problems += _above("theta(atom) - alpha",
                       float(np.max(np.abs(blaschke(zeros, atoms) - alpha))), CLARK_TOL)
    if not np.all(weights > 0.0):
        problems.append("non-positive Clark weight")
    problems += _above("mass off the Herglotz mass",
                       abs(float(weights.sum()) - herglotz_mass(zeros, alpha)), CLARK_TOL)
    tz = blaschke(zeros, points)
    herglotz = np.real((alpha + tz) / (alpha - tz))
    kernel = (1.0 - np.abs(points)[:, None] ** 2) \
        / np.abs(atoms[None, :] - points[:, None]) ** 2
    problems += _above("Poisson identity defect",
                       float(np.max(np.abs(herglotz - kernel @ weights))), CLARK_TOL)
    return problems


# ----------------------------------------------------------- interior

def check_spectral_mapping(zeros, symbol_coeffs: dict, eigenvalues) -> list[str]:
    """sigma(A_phi) = phi(zeros) for an analytic trigonometric polynomial."""
    target = trig_eval(symbol_coeffs, np.asarray(zeros, dtype=complex))
    return _above("eigenvalue gap to phi(zeros)", matched_gap(eigenvalues, target), EIGEN_TOL)


def check_link(defect: float) -> list[str]:
    """Gamma_phi = conj(theta) T_{theta phi} within LINK_TOL."""
    return _above("Hankel-Toeplitz link defect", defect, LINK_TOL)


def check_cross_route(quadrature_hankel, clark_hankel) -> list[str]:
    """The quadrature and Clark-atomic Hankel matrices agree."""
    return _above("cross-route gap",
                  _spectral_norm(np.asarray(quadrature_hankel) - np.asarray(clark_hankel)),
                  CROSS_ROUTE_TOL)


def check_standard_symbol(hankel_phi, hankel_standard) -> list[str]:
    """The standard symbol induces the same truncated Hankel operator."""
    return _above("standard-symbol Hankel gap",
                  _spectral_norm(np.asarray(hankel_phi) - np.asarray(hankel_standard)),
                  LINK_TOL)


def check_schatten(hankel, schatten: dict) -> list[str]:
    """S_2 is the Frobenius norm and S_p decreases in p down to the
    operator norm."""
    a = np.asarray(hankel, dtype=complex)
    frob = float(np.linalg.norm(a))
    problems = _above("S_2 off the Frobenius norm",
                      abs(schatten[2.0] - frob) / max(1.0, frob), LINK_TOL)
    chain = [schatten[p] for p in sorted(schatten)] + [_spectral_norm(a)]
    for hi, lo in zip(chain, chain[1:]):
        if lo > hi * (1.0 + 1e-12) + 1e-14:
            problems.append(f"Schatten norms not decreasing in p: {chain}")
            break
    return problems


def check_square_clark(zeros, alpha: complex, atoms, weights) -> list[str]:
    """The squared-product Clark measure: 2d atoms with theta^2 = alpha^2
    and the Herglotz mass of theta^2 at alpha^2."""
    atoms = np.asarray(atoms, dtype=complex)
    if atoms.size != 2 * len(zeros):
        return [f"{atoms.size} atoms for the square of degree {len(zeros)}"]
    problems = _above("theta(atom)^2 - alpha^2",
                      float(np.max(np.abs(blaschke(zeros, atoms) ** 2 - alpha ** 2))),
                      CLARK_TOL)
    square = list(zeros) + list(zeros)
    problems += _above("square mass off the Herglotz mass",
                       abs(float(np.sum(weights)) - herglotz_mass(square, alpha ** 2)),
                       CLARK_TOL)
    return problems


def check_besov(norms: dict, transformed: dict, scale: complex) -> list[str]:
    """Besov norms are homogeneous and blind to added constants:
    transformed[p], the norm of scale * f + constant, equals |scale| norms[p]."""
    problems = []
    for p, value in norms.items():
        want = abs(scale) * value
        gap = abs(transformed[p] - want) / max(1.0, want)
        problems += _above(f"Besov p={p:g} homogeneity/shift gap", gap, BESOV_TOL)
    return problems


# ------------------------------------------------------------- nehari

def sup_norm_bound(coeffs: dict, m: int = 8192) -> float:
    """Rigorous upper bound on sup|phi| over the circle for a trigonometric
    polynomial: the max over m equispaced nodes plus (pi/m) sum |k c_k|,
    since every point lies within angle pi/m of a node and |phi'| is at
    most sum |k c_k|."""
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    grid_max = float(np.max(np.abs(trig_eval(coeffs, nodes))))
    lipschitz = sum(abs(int(k)) * abs(complex(c)) for k, c in coeffs.items())
    return grid_max + np.pi / m * lipschitz


def check_nehari_gap(coeffs: dict, hankel_norm: float, dual_value: float) -> list[str]:
    """||Gamma_phi|| <= dual value + slack, and the dual value, a lower
    bound on dist(phi, F), stays below ||phi||_inf (0 lies in F)."""
    problems = []
    if not hankel_norm <= dual_value + NEHARI_SLACK:
        problems.append(f"operator norm {hankel_norm:.12g} above dual value "
                        f"{dual_value:.12g} + {NEHARI_SLACK:g}")
    bound = sup_norm_bound(coeffs)
    if not dual_value <= bound:
        problems.append(f"dual value {dual_value:.12g} above the sup-norm bound {bound:.12g}")
    return problems


def check_shift_triple(hankel_norm: float, dual_value: float, ratio) -> list[str]:
    """For theta = z and phi = conj(z): norm, dual value and ratio are 1."""
    problems = []
    for label, value in (("norm", hankel_norm), ("dual", dual_value), ("ratio", ratio)):
        if value is None or not abs(value - 1.0) <= TRIPLE_TOL:
            problems.append(f"shift triple {label} {value!r} is not 1")
    return problems


def check_certificate(value: float, f1: dict, f2: dict, zeros, grid_m: int,
                      rows) -> list[str]:
    """Minimax certificate and convolution table for phi = conj(z) on the
    product with `zeros` = (0, 0), whose distance to F is exactly 1.

    The certificate's grid sup is recomputed from f1, f2; every smoothed
    competitor lies in F, so its sup gap is at least 1; and since
    theta = z^2, |theta(z) - theta(rz)| = 1 - r^2 on the circle.
    `rows` holds (r, sup_gap, theta_gap) triples.
    """
    nodes = np.exp(2j * np.pi * np.arange(grid_m) / grid_m)
    resid = np.conj(nodes) - trig_eval(f1, nodes) \
        - np.conj(blaschke(zeros, nodes) * trig_eval(f2, nodes))
    problems = _above("certificate value off its grid sup",
                      abs(float(np.max(np.abs(resid))) - value), 1e-10)
    problems += _above("certificate value off the distance 1", abs(value - 1.0), TRIPLE_TOL)
    for r, sup_gap, theta_gap in rows:
        if not sup_gap >= 1.0 - TRIPLE_TOL:
            problems.append(f"smoothed competitor at r={r:g} beats the distance: {sup_gap:.12g}")
        problems += _above(f"theta gap at r={r:g} off 1 - r^2", abs(theta_gap - (1.0 - r * r)),
                           1e-12)
    return problems
