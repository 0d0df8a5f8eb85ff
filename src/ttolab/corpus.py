"""Seeded random instances for sweeps and verification suites.

Everything takes an explicit numpy Generator so suite runs are
reproducible; callers spawn independent streams from one root seed.
"""
from __future__ import annotations

import numpy as np

from .blaschke import BlaschkeProduct
from .harmonic import ConjSymbol, Symbol, TrigPoly
from .modelspace import build_basis, vanishing_at_origin_subspace


def spawn_rngs(seed: int, names):
    """One independent Generator per name, all derived from the seed."""
    seqs = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(seq) for name, seq in zip(names, seqs)}


def random_zeros(rng: np.random.Generator, degree: int,
                 max_modulus: float = 0.9, min_gap: float = 0.12,
                 max_tries: int = 4000) -> np.ndarray:
    """Uniform zeros in the disk of radius max_modulus, pairwise separated
    by min_gap (keeps eigenvalue problems well-conditioned downstream)."""
    out: list[complex] = []
    for _ in range(max_tries):
        if len(out) == degree:
            break
        z = (max_modulus * np.sqrt(rng.uniform())
             * np.exp(2j * np.pi * rng.uniform()))
        if all(abs(z - w) >= min_gap for w in out):
            out.append(complex(z))
    if len(out) < degree:
        raise RuntimeError(
            f"could not place {degree} zeros with gap {min_gap:g} "
            f"inside radius {max_modulus:g}")
    return np.asarray(out)


def random_blaschke(rng: np.random.Generator, degree: int,
                    max_modulus: float = 0.9,
                    min_gap: float = 0.12) -> BlaschkeProduct:
    return BlaschkeProduct(random_zeros(rng, degree, max_modulus, min_gap))


def random_trig_poly(rng: np.random.Generator, band: int,
                     analytic: bool = False,
                     anti_analytic: bool = False) -> TrigPoly:
    """Random symbol with normal coefficients on the requested band."""
    if analytic and anti_analytic:
        raise ValueError("a symbol cannot be forced both ways")
    if analytic:
        freqs = range(0, band + 1)
    elif anti_analytic:
        freqs = range(-band, 0)
    else:
        freqs = range(-band, band + 1)
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal())
              for k in freqs}
    return TrigPoly(coeffs)


def random_unimodular(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def random_interior_points(rng: np.random.Generator, n: int,
                           max_modulus: float = 0.95) -> np.ndarray:
    r = max_modulus * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def random_conjugate_square_symbol(rng: np.random.Generator,
                                   theta: BlaschkeProduct, *,
                                   zero_mean: bool = False) -> Symbol:
    """phi with conj(phi) in K_{theta^2}; with zero_mean, additionally
    conj(phi) in zH^2, i.e. phi is already a standard symbol.  The theta^2
    basis is only sampled, never integrated."""
    basis = build_basis(theta.square())
    if zero_mean:
        u = vanishing_at_origin_subspace(basis)
        c = (rng.standard_normal(u.shape[1])
             + 1j * rng.standard_normal(u.shape[1]))
        return ConjSymbol(basis.combination(u @ c))
    c = (rng.standard_normal(basis.size)
         + 1j * rng.standard_normal(basis.size))
    return ConjSymbol(basis.combination(c))


def random_zero_hankel_symbol(rng: np.random.Generator,
                              theta: BlaschkeProduct,
                              band: int = 3) -> Symbol:
    """phi = conj(theta^2 h1) + h2 with analytic trig-poly h1, h2; its
    truncated Hankel operator vanishes by construction."""
    h1 = random_trig_poly(rng, band, analytic=True)
    h2 = random_trig_poly(rng, band, analytic=True)
    return (theta.square() * h1).conj() + h2
