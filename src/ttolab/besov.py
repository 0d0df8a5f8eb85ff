"""Mean oscillation against a reference measure on the circle.

Oscillation of order r over an arc, the small-mass oscillation modulus,
dyadic arc families relative to a measure, Besov-type norms built from
p-summed oscillations, and an exploratory probe pairing Schatten norms
of truncated Hankel operators with the measure-weighted Besov norms of
their standard symbols.

The reference measure is either an atomic ClarkMeasure or a uniform
grid standing in for normalized Lebesgue measure; both expose `atoms`
and `weights` and everything below is a finite weighted sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .clark import ClarkMeasure, square_clark_measure
from .harmonic import TWO_PI, DEFAULT_QUADRATURE, QuadratureSettings, unit_nodes
from .modelspace import build_basis
from .truncops import hankel_matrix, standard_symbol


@dataclass(frozen=True)
class Arc:
    """Half-open arc [start, end) in radians, counterclockwise."""

    start: float
    end: float

    def __post_init__(self):
        if not 0.0 < self.length <= TWO_PI + 1e-12:
            raise ValueError(f"arc length {self.length:g} out of (0, 2*pi]")

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, points) -> np.ndarray:
        """Membership mask for unit-circle points (complex)."""
        ang = np.mod(np.angle(np.asarray(points, dtype=complex)) - self.start,
                     TWO_PI)
        if self.length >= TWO_PI - 1e-15:
            return np.ones(ang.shape, dtype=bool)
        return ang < self.length

    def halves(self) -> tuple["Arc", "Arc"]:
        mid = 0.5 * (self.start + self.end)
        return Arc(self.start, mid), Arc(mid, self.end)


class LebesgueGrid:
    """Uniform m-point discretization of normalized Lebesgue measure."""

    def __init__(self, m: int = 4096):
        if m < 2:
            raise ValueError("grid needs at least 2 points")
        self.m = int(m)
        self.atoms = unit_nodes(self.m)
        self.weights = np.full(self.m, 1.0 / self.m)

    @property
    def mass(self) -> float:
        return 1.0

    def space_tag(self) -> str:
        return f"lebesgue[m={self.m}]"


def _measure_label(nu) -> str:
    tag = getattr(nu, "space_tag", None)
    return tag() if callable(tag) else repr(nu)


def _values_on(f, atoms: np.ndarray) -> np.ndarray:
    if callable(f):
        return np.asarray(f(atoms), dtype=complex)
    vals = np.asarray(f, dtype=complex)
    if vals.shape != atoms.shape:
        raise ValueError("value array must align with the measure's atoms")
    return vals


def moment_polynomial(xi: np.ndarray, w: np.ndarray, fv: np.ndarray,
                      r: int) -> np.ndarray:
    """Coefficients of the degree <= r polynomial p with
    sum w * (f - p(xi)) * conj(xi)^k = 0 for k = 0..r.

    Falls back to the largest solvable degree when the weighted moment
    Gram is singular (fewer than r+1 atoms); returns the coefficient
    vector, zero-padded to length r + 1.
    """
    r_eff = min(int(r), len(xi) - 1)
    while r_eff >= 0:
        powers = xi[None, :] ** np.arange(r_eff + 1)[:, None]   # row k: xi^k at atoms
        weighted = powers.conj() * w[None, :]
        gram = weighted @ powers.T      # G[k,j] = sum w xi^j conj(xi)^k, Hermitian PSD
        rhs = weighted @ fv             # b[k] = sum w f conj(xi)^k
        if np.linalg.matrix_rank(gram, tol=1e-10 * max(1.0, float(np.abs(gram).max()))) == r_eff + 1:
            coeffs = np.linalg.solve(gram, rhs)
            break
        r_eff -= 1
    else:
        return np.zeros(int(r) + 1, dtype=complex)
    out = np.zeros(int(r) + 1, dtype=complex)
    out[:r_eff + 1] = coeffs
    return out


def oscillation(f, nu, arc: Arc, r: int, convention: str = "projection") -> float:
    """Mean deviation of f from its degree <= r moment fit over the arc.

    With convention="projection" the fit satisfies the moment conditions
    sum_arc (f - p) conj(xi)^k dnu = 0; with "verbatim" the polynomial
    itself is required to have vanishing moments, which forces p = 0
    (whenever the moment system is nonsingular) and the result is the
    plain mean of |f|.  Returns 0 on arcs of measure zero.
    """
    if convention not in ("projection", "verbatim"):
        raise ValueError(f"unknown convention {convention!r}")
    mask = arc.contains(nu.atoms)
    w = np.asarray(nu.weights, dtype=float)[mask]
    total = float(w.sum())
    if total <= 0.0:
        return 0.0
    xi = np.asarray(nu.atoms, dtype=complex)[mask]
    fv = _values_on(f, np.asarray(nu.atoms, dtype=complex))[mask]
    if convention == "verbatim":
        return float(np.sum(w * np.abs(fv)) / total)
    if int(r) >= len(xi) - 1:
        return 0.0      # the moment fit interpolates f on the atoms exactly
    coeffs = moment_polynomial(xi, w, fv, r)
    fit = np.polyval(coeffs[::-1], xi)
    return float(np.sum(w * np.abs(fv - fit)) / total)


def arc_mean(f, nu, arc: Arc) -> complex:
    """Measure average of f over the arc (0 on null arcs)."""
    mask = arc.contains(nu.atoms)
    w = np.asarray(nu.weights, dtype=float)[mask]
    total = float(w.sum())
    if total <= 0.0:
        return 0.0
    fv = _values_on(f, np.asarray(nu.atoms, dtype=complex))[mask]
    return complex(np.sum(w * fv) / total)


def _atom_runs(nu):
    """Contiguous cyclic runs of atoms: each run is an index array.

    Arcs of the circle pick out exactly these runs from an atomic
    measure, so a sup over arcs is a max over runs.
    """
    d = len(nu.atoms)
    order = np.argsort(np.mod(np.angle(np.asarray(nu.atoms, dtype=complex)), TWO_PI))
    runs = []
    for length in range(1, d):
        for i in range(d):
            runs.append(order[np.mod(np.arange(i, i + length), d)])
    runs.append(order)  # the full circle, once
    return runs


def vmo_modulus(f, nu, eps_values) -> np.ndarray:
    """Small-mass oscillation modulus: for each eps, the largest mean
    deviation from the average over arcs of measure at most eps."""
    eps_values = np.asarray(eps_values, dtype=float)
    w_all = np.asarray(nu.weights, dtype=float)
    fv_all = _values_on(f, np.asarray(nu.atoms, dtype=complex))
    masses = []
    oscs = []
    for run in _atom_runs(nu):
        w = w_all[run]
        total = float(w.sum())
        if total <= 0.0:
            continue
        fv = fv_all[run]
        mean = np.sum(w * fv) / total
        masses.append(total)
        oscs.append(float(np.sum(w * np.abs(fv - mean)) / total))
    masses = np.asarray(masses)
    oscs = np.asarray(oscs)
    out = np.zeros_like(eps_values)
    for i, eps in enumerate(eps_values):
        hit = masses <= eps
        out[i] = float(oscs[hit].max()) if np.any(hit) else 0.0
    return out


@dataclass(frozen=True)
class DyadicArcFamily:
    """Dyadic halvings of the components of the circle minus the marked
    (accumulation) angles; generation k holds 2^k arcs per component."""

    measure_label: str
    components: tuple
    generations: tuple          # generations[k] = tuple of Arc
    anchor: float = 0.0

    def tiling_defect(self, nu) -> float:
        """Largest generation-wise gap between the summed arc masses and
        the total component mass (the partition invariant)."""
        w = np.asarray(nu.weights, dtype=float)
        atoms = np.asarray(nu.atoms, dtype=complex)
        target = sum(float(w[c.contains(atoms)].sum()) for c in self.components)
        worst = 0.0
        for arcs in self.generations:
            got = sum(float(w[a.contains(atoms)].sum()) for a in arcs)
            worst = max(worst, abs(got - target))
        return worst


def dyadic_family(nu, max_generation: int, marked_angles=(),
                  anchor: float = 0.0) -> DyadicArcFamily:
    """Dyadic arc family of the measure.

    Finite atomic measures have no accumulation points, so by default the
    single component is the whole circle anchored at `anchor`; marked
    angles split the circle first and each piece is halved per generation.
    """
    if max_generation < 0:
        raise ValueError("max_generation must be >= 0")
    marked = sorted(float(np.mod(a, TWO_PI)) for a in marked_angles)
    if marked:
        components = []
        for i, a in enumerate(marked):
            b = marked[(i + 1) % len(marked)]
            if i + 1 == len(marked):
                b += TWO_PI
            if b - a > 1e-14:
                components.append(Arc(a, b))
        components = tuple(components)
    else:
        components = (Arc(anchor, anchor + TWO_PI),)
    generations = []
    current = list(components)
    for _ in range(max_generation + 1):
        generations.append(tuple(current))
        nxt = []
        for arc in current:
            nxt.extend(arc.halves())
        current = nxt
    return DyadicArcFamily(_measure_label(nu), components, tuple(generations),
                           anchor)


@dataclass(frozen=True)
class BesovProfile:
    """Partial sums of the p-summed dyadic oscillations."""

    p: float
    r: int
    generation_sums: tuple      # sum over arcs of osc^p, one per generation
    terminated: bool            # True when finer generations provably vanish

    @property
    def total(self) -> float:
        return float(sum(self.generation_sums))

    @property
    def norm(self) -> float:
        return self.total ** (1.0 / self.p) if self.total > 0.0 else 0.0

    @property
    def tail(self) -> float:
        return float(self.generation_sums[-1]) if self.generation_sums else 0.0


def default_generation_cap(nu) -> int:
    return int(math.ceil(math.log2(max(2, len(nu.atoms))))) + 4


def besov_profile(f, nu, p: float, max_generation: int | None = None,
                  marked_angles=(), convention: str = "projection",
                  anchor: float = 0.0) -> BesovProfile:
    """Generation-by-generation oscillation sums of the dyadic Besov norm.

    r is the integer part of 1/p.  For atomic measures the sum is finite:
    once every arc of a generation holds at most r + 1 atoms the moment
    fit interpolates exactly and all finer generations vanish, so the
    profile stops there and is flagged as terminated.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    r = int(math.floor(1.0 / p))
    if max_generation is None:
        max_generation = default_generation_cap(nu)
    family = dyadic_family(nu, max_generation, marked_angles, anchor)
    atoms = np.asarray(nu.atoms, dtype=complex)
    fv = _values_on(f, atoms)
    atomic = isinstance(nu, ClarkMeasure)
    sums = []
    terminated = False
    for arcs in family.generations:
        gen = 0.0
        max_count = 0
        for arc in arcs:
            mask = arc.contains(atoms)
            max_count = max(max_count, int(mask.sum()))
            val = oscillation(fv, nu, arc, r, convention)
            if val > 0.0:
                gen += val**p
        sums.append(gen)
        if atomic and convention == "projection" and max_count <= r + 1:
            terminated = True
            break
    return BesovProfile(float(p), r, tuple(sums), terminated)


def besov_norm(f, nu, p: float, max_generation: int | None = None,
               **kwargs) -> float:
    return besov_profile(f, nu, p, max_generation, **kwargs).norm


@dataclass(frozen=True)
class OscillationReport:
    """Bundled per-arc oscillations, modulus curve, and Besov sums."""

    measure_label: str
    arcs: tuple                 # (Arc, mass, osc at r = 0) triples
    eps_grid: np.ndarray
    modulus: np.ndarray
    besov: dict                 # p -> BesovProfile


def oscillation_report(f, nu, eps_grid, p_list,
                       max_generation: int | None = None) -> OscillationReport:
    atoms = np.asarray(nu.atoms, dtype=complex)
    w_all = np.asarray(nu.weights, dtype=float)
    fv = _values_on(f, atoms)
    triples = []
    for run in _atom_runs(nu):
        w = w_all[run]
        total = float(w.sum())
        if total <= 0.0:
            continue
        mean = np.sum(w * fv[run]) / total
        o = float(np.sum(w * np.abs(fv[run] - mean)) / total)
        angles = np.mod(np.angle(atoms[run]), TWO_PI)
        lo = float(angles[0])
        hi = float(angles[-1])
        if hi < lo:     # cyclic run wrapping past angle 0
            hi += TWO_PI
        triples.append((Arc(lo, hi + 1e-9), total, o))
    modulus = vmo_modulus(fv, nu, eps_grid)
    profiles = {float(p): besov_profile(fv, nu, float(p), max_generation)
                for p in p_list}
    return OscillationReport(_measure_label(nu), tuple(triples),
                             np.asarray(eps_grid, dtype=float), modulus,
                             profiles)


@dataclass(frozen=True)
class ProbeRow:
    """One symbol's paired Schatten / oscillation-Besov quantities."""

    tag: str
    schatten: dict              # p -> Schatten norm of the Hankel matrix
    besov: dict                 # p -> Besov norm of the standard symbol
    ratio: dict                 # p -> schatten / besov (nan when besov = 0)


def conjecture_probe(theta: BlaschkeProduct, alpha: complex, p_list,
                     symbol_corpus,
                     quad: QuadratureSettings = DEFAULT_QUADRATURE):
    """Pair Schatten norms of truncated Hankel operators with dyadic
    Besov norms of their standard symbols against the squared-product
    Clark measure.  Exploratory: emits the table and summary statistics,
    decides nothing.

    symbol_corpus: iterable of (tag, symbol) pairs.
    """
    basis = build_basis(theta, quad)
    nu = square_clark_measure(theta, alpha)
    rows = []
    for tag, phi in symbol_corpus:
        gamma = hankel_matrix(phi, basis, quad)
        std = standard_symbol(phi, theta, quad)
        values = np.asarray(std.symbol(nu.atoms), dtype=complex)
        srow, brow, rrow = {}, {}, {}
        for p in p_list:
            p = float(p)
            s = gamma.schatten_norm(p)
            b = besov_norm(values, nu, p)
            srow[p] = s
            brow[p] = b
            rrow[p] = s / b if b > 0.0 else float("nan")
        rows.append(ProbeRow(str(tag), srow, brow, rrow))
    return rows


def probe_summary(rows, p_list) -> dict:
    """Min/median/max of the finite ratios, per exponent."""
    out = {}
    for p in p_list:
        p = float(p)
        vals = np.array([r.ratio[p] for r in rows], dtype=float)
        vals = vals[np.isfinite(vals)]
        if vals.size:
            out[p] = {"min": float(vals.min()),
                      "median": float(np.median(vals)),
                      "max": float(vals.max()),
                      "count": int(vals.size)}
        else:
            out[p] = {"min": float("nan"), "median": float("nan"),
                      "max": float("nan"), "count": 0}
    return out
