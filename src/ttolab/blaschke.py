"""Finite Blaschke products and their boundary geometry.

A finite Blaschke product is determined by its zeros inside the open disk
and a unimodular constant.  Each zero contributes one normalized factor;
a zero at the origin contributes the factor z itself.  On the circle the
product is unimodular and its phase increases strictly, winding around
the origin once per zero.
"""
from __future__ import annotations

import cmath
from functools import cached_property

import numpy as np

from .harmonic import Symbol, TWO_PI


# the largest (zeros x points) table of boundary_derivative_modulus
_SPEED_BLOCK = 1 << 16


def _factor(lam: complex, z):
    """Normalized Blaschke factor for one zero (z itself when lam = 0).

    The normalising phase is e^{-i arg lam}, not |lam|/lam, which is not
    unimodular when lam is subnormal.
    """
    if lam == 0:
        return np.asarray(z, dtype=complex)
    return cmath.rect(1.0, -cmath.phase(lam)) * (lam - z) / (1.0 - np.conj(lam) * z)


def _factor_derivative(lam: complex, z):
    if lam == 0:
        return np.ones(np.shape(z), dtype=complex)
    unit = cmath.rect(1.0, -cmath.phase(lam))
    return unit * (abs(lam) ** 2 - 1.0) / (1.0 - np.conj(lam) * z) ** 2


class BlaschkeProduct(Symbol):
    """Finite Blaschke product with zeros in D and unimodular constant.

    The zero order is significant: downstream orthonormal bases follow it.
    """

    def __init__(self, zeros=(), gamma: complex = 1.0):
        zs = tuple(complex(lam) for lam in zeros)
        for lam in zs:
            if not abs(lam) < 1.0:
                raise ValueError(f"zero {lam:.6g} is not strictly inside the unit disk")
        g = complex(gamma)
        if abs(abs(g) - 1.0) > 1e-9:
            raise ValueError(f"constant must be unimodular, got |gamma| = {abs(g):.6g}")
        self.zeros = zs
        self.gamma = g / abs(g)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def eval(self, z):
        out = np.full(np.shape(z), self.gamma, dtype=complex)
        for lam in self.zeros:
            out = out * _factor(lam, z)
        return out

    def derivative(self, z):
        """Complex derivative, stable near the zeros (product rule with
        prefix/suffix products, no division by vanishing factors)."""
        z = np.asarray(z, dtype=complex)
        d = self.degree
        if d == 0:
            return np.zeros(z.shape, dtype=complex)
        facs = np.empty((d,) + z.shape, dtype=complex)
        ders = np.empty_like(facs)
        for i, lam in enumerate(self.zeros):
            facs[i] = _factor(lam, z)
            ders[i] = _factor_derivative(lam, z)
        prefix = np.ones_like(z)
        suffix = np.ones((d,) + z.shape, dtype=complex)
        for i in range(d - 2, -1, -1):
            suffix[i] = suffix[i + 1] * facs[i + 1]
        out = np.zeros_like(z)
        for i in range(d):
            out += ders[i] * prefix * suffix[i]
            prefix = prefix * facs[i]
        return self.gamma * out

    def boundary_derivative_modulus(self, xi):
        """|theta'(xi)| for |xi| = 1, i.e. the boundary phase speed.

        Equals sum_i (1 - |lam_i|^2) / |1 - conj(lam_i) xi|^2, which is
        strictly positive and integrates to the degree; one broadcast sum
        over the zeros.  Many points are taken in blocks, each of at most
        _SPEED_BLOCK (zeros x points) terms below 2^14 zeros and of at
        least two points: numpy sums one point's column pairwise but wider
        blocks term by term, so each point's sum is the same in any split.
        """
        xi = np.asarray(xi, dtype=complex)
        conj, tops = self._speed_terms
        least = max(2, _SPEED_BLOCK // (2 * max(conj.size, 1)))
        if xi.size >= 2 * least:
            blocks = np.array_split(xi.reshape(-1), xi.size // least)
            return np.concatenate([self.boundary_derivative_modulus(block)
                                   for block in blocks]).reshape(xi.shape)
        column = (-1,) + (1,) * xi.ndim
        return np.sum(tops.reshape(column) / np.abs(1.0 - conj.reshape(column) * xi) ** 2,
                      axis=0)

    @cached_property
    def _speed_terms(self):
        """conj(lam_i) and 1 - |lam_i|^2 of every zero.  |lam_i| comes from
        Python's complex abs: numpy's rounds differently in the last digit,
        which 1 - |lam|^2 magnifies as the zero nears T."""
        return (np.conj(np.asarray(self.zeros, dtype=complex)),
                np.array([1.0 - abs(lam) ** 2 for lam in self.zeros]))

    def square(self) -> "BlaschkeProduct":
        """The product theta^2 (doubled zero list, squared constant)."""
        return BlaschkeProduct(self.zeros + self.zeros, self.gamma**2)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "zeros": [{"re": lam.real, "im": lam.imag} for lam in self.zeros],
            "gamma": {"re": self.gamma.real, "im": self.gamma.imag},
        }

    @staticmethod
    def _parse_complex(item) -> complex:
        if isinstance(item, dict):
            return complex(item.get("re", 0.0), item.get("im", 0.0))
        if isinstance(item, (list, tuple)):
            return complex(*item)
        return complex(item)

    @classmethod
    def from_dict(cls, data: dict) -> "BlaschkeProduct":
        zeros = [cls._parse_complex(item) for item in data.get("zeros", [])]
        gamma = cls._parse_complex(data.get("gamma", 1.0))
        return cls(zeros, gamma)

    def label(self) -> str:
        """Short deterministic identifier used in operator space tags."""
        return self._label

    @cached_property
    def _label(self) -> str:
        """The label, formatted once: the product is immutable."""
        parts = [f"{lam.real:.12g}{lam.imag:+.12g}j" for lam in self.zeros]
        parts.append(f"g{self.gamma.real:.12g}{self.gamma.imag:+.12g}j")
        return ";".join(parts)

    def __repr__(self):
        return f"BlaschkeProduct(degree={self.degree})"


def boundary_zero_closure(zeros, boundary_margin: float = 0.1,
                          cluster_gap: float = 0.05) -> np.ndarray:
    """Estimate where a zero family accumulates on the unit circle.

    Zeros with modulus above 1 - boundary_margin are projected to the
    circle and clustered by single linkage on angular gaps; each cluster
    is represented by the projection of its most boundary-near zero (the
    best available estimate of the limit point).  Returns unit complex
    representatives sorted by angle; empty when no zeros approach T.
    """
    if isinstance(zeros, BlaschkeProduct):
        zs = np.asarray(zeros.zeros, dtype=complex)
    else:
        collected = []
        for item in zeros:
            if isinstance(item, BlaschkeProduct):
                collected.extend(item.zeros)
            else:
                collected.append(complex(item))
        zs = np.asarray(collected, dtype=complex)
    near = zs[np.abs(zs) > 1.0 - boundary_margin]
    if near.size == 0:
        return np.array([], dtype=complex)
    angles = np.mod(np.angle(near), TWO_PI)
    order = np.argsort(angles)
    angles, near = angles[order], near[order]
    gaps = np.diff(angles, append=angles[0] + TWO_PI)
    # join circular neighbours (i, i + 1 mod n) no further apart than the gap
    linked = np.nonzero(gaps <= cluster_gap)[0]
    groups = {}
    for i, root in enumerate(union_roots(near.size, zip(linked, (linked + 1) % near.size))):
        groups.setdefault(root, []).append(i)
    reps = []
    for grp in groups.values():
        pick = grp[np.argmax(np.abs(near[grp]))]
        reps.append(near[pick] / abs(near[pick]))
    reps = np.asarray(reps, dtype=complex)
    return reps[np.argsort(np.mod(np.angle(reps), TWO_PI))]


def union_roots(n: int, pairs) -> list:
    """Union-find over n elements: the representative of each element once
    every pair (a, b) is joined."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(a) for a in range(n)]

