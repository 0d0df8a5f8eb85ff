"""Mean oscillation against a reference measure on the circle.

Oscillation of order r over an arc, the small-mass oscillation modulus,
the dyadic partition of a measure's atoms, Besov-type norms built from
p-summed oscillations, and an exploratory probe pairing Schatten norms
of truncated Hankel operators with the measure-weighted Besov norms of
their standard symbols.

The reference measure is either an atomic ClarkMeasure or a uniform
grid standing in for normalized Lebesgue measure; both expose `atoms`
and `weights` and everything below is a finite weighted sum.  Neither
has an accumulation point on the circle, so every dyadic family is the
halving of the whole circle [0, 2 pi), and every Besov profile runs
until each arc holds at most r + 1 atoms, where all finer generations
vanish.

A Besov profile does no per-arc work in Python.  Every atom finds its
arc of each generation by bisection, at a cost of O(atoms) however
deep, and the atoms of an arc are a run in angle order, so nothing is
indexed by all 2^k arcs.  A measure keeps these runs
(`DyadicPartition`), so its profiles at several exponents share them.
The moment fits of all generations, each in the centred, scaled
variable of its arc, are then taken together by one kernel: each arc's
orthonormal basis comes from Arnoldi on its weighted atoms, so no Gram
is formed and every arc of at least r + 2 distinct atoms is fitted at
degree r.  `oscillation` is the same kernel on one arc, and the
small-mass modulus runs it at r = 0 on every cyclic run of atoms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blaschke import BlaschkeProduct
from .clark import square_clark_measure
from .harmonic import TWO_PI, DEFAULT_QUADRATURE, QuadratureSettings, unit_nodes
from .modelspace import build_basis
from .truncops import hankel_matrix, standard_symbol_on


@dataclass(frozen=True)
class Arc:
    """Half-open arc [start, end) in radians, counterclockwise; public as
    the argument of `oscillation`, the single-arc kernel."""

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
        return _inside(np.mod(np.angle(np.asarray(points, dtype=complex)), TWO_PI),
                       self.start, self.end)

    def halves(self) -> tuple["Arc", "Arc"]:
        mid = 0.5 * (self.start + self.end)
        return Arc(self.start, mid), Arc(mid, self.end)


class LebesgueGrid:
    """Uniform m-point discretization of normalized Lebesgue measure.  No
    command builds one: it is the Lebesgue reference measure, accepted
    wherever a Clark measure is."""

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

    @cached_property
    def partition(self) -> "DyadicPartition":
        """The dyadic partition of the nodes (`DyadicPartition`), kept
        for every Besov profile of this grid."""
        return DyadicPartition(self.atoms)


def _values_on(f, atoms: np.ndarray) -> np.ndarray:
    if callable(f):
        return np.asarray(f(atoms), dtype=complex)
    vals = np.asarray(f, dtype=complex)
    if vals.shape != atoms.shape:
        raise ValueError("value array must align with the measure's atoms")
    return vals


# ---------------------------------------------------------------------------
# Arc membership and the dyadic partition
# ---------------------------------------------------------------------------


def _inside(angles, start, end):
    """Whether angles in [0, 2*pi] lie on the arcs [start, end), elementwise.

    The ends are reduced into [0, 2*pi) like the angles, so arcs that
    share an end split the points between them exactly: a dyadic
    generation partitions the atoms.
    """
    lo, hi = np.mod(start, TWO_PI), np.mod(end, TWO_PI)
    within = np.where(lo <= hi, (lo <= angles) & (angles < hi),
                      (lo <= angles) | (angles < hi))
    return within | (np.subtract(end, start) >= TWO_PI - 1e-15)


class DyadicPartition:
    """The whole-circle dyadic partition of a measure's atoms, one
    generation at a time.

    Generation k halves every arc of generation k - 1, starting from
    [0, 2 pi).  Each atom keeps the start and end of its own arc and moves
    to the upper half when its angle is at least their midpoint, the
    midpoint Arc.halves forms.  An angle that reduces to 2 pi stays in the
    last arc.  In angle order (`order`) the atoms of an arc are a run, and
    the arcs that hold atoms come in angle order; per generation the
    partition keeps their atom counts and the largest one.
    Generations are built when first asked for and kept, so the profiles
    of one measure share them (`ClarkMeasure.partition`,
    `LebesgueGrid.partition`).  Atoms closer than the smallest normal
    float are refused: the arc ends could not separate them.
    """

    def __init__(self, atoms):
        angles = np.mod(np.angle(np.asarray(atoms, dtype=complex)), TWO_PI)
        self.order = np.argsort(angles, kind="stable")
        self.angles = angles[self.order]
        if np.any(np.diff(self.angles) < np.finfo(float).tiny):
            raise ValueError("two atoms are closer than the smallest normal float")
        self._starts = np.zeros_like(self.angles)
        self._ends = np.full_like(self.angles, TWO_PI)
        self._split = np.zeros(self.angles.size + 1, dtype=bool)
        self._split[[0, -1]] = True     # where each run begins, and the end
        self.counts = [np.array([self.angles.size])]
        self.fills = [self.angles.size]

    def generation(self, k: int):
        """Atoms on each occupied arc of generation k, in order, and the
        largest of these counts."""
        while len(self.counts) <= k:
            mids = 0.5 * (self._starts + self._ends)
            upper = self.angles >= mids
            np.copyto(self._starts, mids, where=upper)
            np.copyto(self._ends, mids, where=~upper)
            self._split[1:-1] |= upper[1:] != upper[:-1]
            ends = np.flatnonzero(self._split)
            self.counts.append(ends[1:] - ends[:-1])
            self.fills.append(int(self.counts[-1].max()))
        return self.counts[k], self.fills[k]


# ---------------------------------------------------------------------------
# The oscillation kernel
# ---------------------------------------------------------------------------

_KRYLOV_FLOOR = 1e-14       # the share of a Krylov vector left to keep it


def _oscillations(xi: np.ndarray, w: np.ndarray, fv: np.ndarray,
                  atom: np.ndarray, counts: np.ndarray, r: int) -> np.ndarray:
    """Mean deviation of f from its degree <= r moment fit on each arc.

    Arc i holds the next counts[i] atoms of atom.  Arcs of no mass get 0,
    and so do arcs of at most r + 1 atoms, where the fit interpolates f.
    The moment fit is the w-weighted least-squares polynomial, so on each
    arc sqrt(w) f is projected on an orthonormal basis of the
    sqrt(w)-weighted polynomials of degree <= r in x = (xi - c) / h, c the
    middle atom of the run and h the largest |xi - c|.  Arnoldi builds
    the basis from sqrt(w): multiply the last vector by x, orthogonalise
    twice against the earlier ones, normalise (Brubeck, Nakatsukasa and
    Trefethen, Vandermonde with Arnoldi), all arcs together through
    reduceat.  A vector that orthogonalisation leaves with less than
    _KRYLOV_FLOOR of its length lies in the span of the earlier ones, as
    when an arc's atoms coincide: it and the later ones are dropped.
    """
    first = np.cumsum(counts) - counts
    mass = np.add.reduceat(w[atom], first)
    osc = np.zeros(first.size)
    need = (mass > 0.0) & (counts >= r + 2)
    fitted = np.flatnonzero(need)
    if not fitted.size:
        return osc
    members = atom[np.repeat(need, counts)]
    count = counts[fitted]
    seg = np.cumsum(count) - count          # where each fit's atoms begin

    def arc_sum(values):
        return np.add.reduceat(values, seg, axis=0)

    def spread(values):
        return np.repeat(values, count, axis=0)

    x, root = xi[members], np.sqrt(w[members])
    x = x - spread(x[seg + count // 2])
    h = np.maximum.reduceat(np.abs(x), seg)
    x /= spread(np.where(h > 0.0, h, 1.0))      # h = 0: coincident atoms on one arc
    basis = np.empty((members.size, r + 1), dtype=complex)
    basis[:, 0] = root / spread(np.sqrt(mass[fitted]))
    for k in range(1, r + 1):
        v = x * basis[:, k - 1]
        length = np.sqrt(arc_sum(np.abs(v) ** 2))
        for _ in range(2):
            v -= np.sum(basis[:, :k] * spread(arc_sum(basis[:, :k].conj() * v[:, None])), axis=1)
        left = np.sqrt(arc_sum(np.abs(v) ** 2))
        basis[:, k] = v / spread(np.where(left > _KRYLOV_FLOOR * length, left, np.inf))
    g = root * fv[members]
    g -= np.sum(basis * spread(arc_sum(basis.conj() * g[:, None])), axis=1)
    osc[fitted] = arc_sum(root * np.abs(g)) / mass[fitted]
    return osc


def oscillation(f, nu, arc: Arc, r: int) -> float:
    """Mean deviation of f from its degree <= r moment fit over the arc.

    The fit satisfies the moment conditions sum_arc (f - p) conj(xi)^k
    dnu = 0 for k = 0..r.  Returns 0 on arcs of measure zero, and 0 on
    arcs of at most r + 1 atoms, where the fit interpolates f exactly.
    No command calls it: it is the one-arc definition that the batched
    `_oscillations` of the modulus and the profiles is read against.
    """
    atoms = np.asarray(nu.atoms, dtype=complex)
    held = np.flatnonzero(arc.contains(atoms))
    if not held.size:
        return 0.0
    return float(_oscillations(atoms, np.asarray(nu.weights, dtype=float),
                               _values_on(f, atoms), held, np.array([held.size]),
                               int(r))[0])


def vmo_modulus(f, nu, eps_values) -> np.ndarray:
    """Small-mass oscillation modulus: for each eps, the largest mean
    deviation from the average over arcs of measure at most eps.

    Arcs of the circle pick out exactly the cyclic runs of atoms in angle
    order from an atomic measure, so a sup over arcs is a max over runs.
    The d runs of each length, and the whole circle once, go to the
    oscillation kernel at r = 0 together; single atoms deviate by 0.
    """
    xi = np.asarray(nu.atoms, dtype=complex)
    w = np.asarray(nu.weights, dtype=float)
    fv = _values_on(f, xi)
    eps = np.asarray(eps_values, dtype=float)[:, None]
    d = xi.size
    order = np.argsort(np.mod(np.angle(xi), TWO_PI), kind="stable")
    modulus = np.zeros(eps.size)
    for length in range(2, d + 1):
        runs = d if length < d else 1
        atom = order[np.add.outer(np.arange(runs), np.arange(length)) % d].ravel()
        mass = np.add.reduceat(w[atom], np.arange(0, atom.size, length))
        osc = _oscillations(xi, w, fv, atom, np.full(runs, length), 0)
        modulus = np.maximum(modulus, np.where(mass <= eps, osc, 0.0).max(axis=1))
    return modulus


@dataclass(frozen=True)
class BesovProfile:
    """Partial sums of the p-summed dyadic oscillations, from generation 0
    to the first whose arcs all hold at most r + 1 atoms."""

    p: float
    r: int
    generation_sums: tuple      # sum over arcs of osc^p, one per generation

    @property
    def total(self) -> float:
        return float(sum(self.generation_sums))

    @property
    def norm(self) -> float:
        return self.total ** (1.0 / self.p) if self.total > 0.0 else 0.0

    @property
    def depth(self) -> int:
        """The generation where the profile terminates."""
        return len(self.generation_sums) - 1


def besov_profile(f, nu, p: float) -> BesovProfile:
    """Generation-by-generation oscillation sums of the dyadic Besov norm.

    r is the integer part of 1/p.  Once every arc of a generation holds
    at most r + 1 atoms the moment fit interpolates and all finer
    generations vanish, so the profile stops there, on any measure.  The
    arcs are the dyadic halvings of [0, 2 pi) that hold atoms, taken from
    the measure's `DyadicPartition` (`nu.partition`), and the moment fits
    of all generations go to the oscillation kernel together.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    r = int(math.floor(1.0 / p))
    counts, first = [], [0]         # first: each generation's first arc
    fill = r + 2
    while fill > r + 1:
        count, fill = nu.partition.generation(len(counts))
        counts.append(count)
        first.append(first[-1] + count.size)
    xi, order = np.asarray(nu.atoms, dtype=complex), nu.partition.order
    atom = np.arange(len(counts) * xi.size) % xi.size     # every atom, every generation
    osc = _oscillations(xi[order], np.asarray(nu.weights, dtype=float)[order],
                        _values_on(f, xi)[order], atom, np.concatenate(counts), r)
    sums = tuple(np.add.reduceat(osc ** p, first[:-1]).tolist())
    return BesovProfile(float(p), r, sums)


def besov_norm(f, nu, p: float) -> float:
    """The norm of `besov_profile`; the benchmark's interior workload
    (`ttobench`) reads it."""
    return besov_profile(f, nu, p).norm


@dataclass(frozen=True)
class OscillationReport:
    """Bundled modulus curve and Besov sums."""

    eps_grid: np.ndarray
    modulus: np.ndarray
    besov: dict                 # p -> BesovProfile


def oscillation_report(f, nu, eps_grid, p_list) -> OscillationReport:
    fv = _values_on(f, np.asarray(nu.atoms, dtype=complex))
    profiles = {float(p): besov_profile(fv, nu, float(p))
                for p in p_list}
    return OscillationReport(np.asarray(eps_grid, dtype=float),
                             vmo_modulus(fv, nu, eps_grid), profiles)


@dataclass(frozen=True)
class ProbeRow:
    """One symbol's paired Schatten / oscillation-Besov quantities."""

    tag: str
    schatten: dict              # p -> Schatten norm of the Hankel matrix
    besov: dict                 # p -> Besov norm of the standard symbol
    ratio: dict                 # p -> schatten / besov (nan when besov = 0)
    depth: dict                 # p -> generation where the Besov profile terminates


def conjecture_probe(theta: BlaschkeProduct, alpha: complex, p_list,
                     symbol_corpus,
                     quad: QuadratureSettings = DEFAULT_QUADRATURE):
    """Pair Schatten norms of truncated Hankel operators with dyadic
    Besov norms of their standard symbols against the squared-product
    Clark measure, with the depth of each Besov profile.  Exploratory:
    emits the table and summary statistics, decides nothing.

    symbol_corpus: iterable of (tag, symbol) pairs.
    """
    basis = build_basis(theta, quad)
    square_basis = build_basis(theta.square(), quad)
    nu = square_clark_measure(theta, alpha)
    rows = []
    for tag, phi in symbol_corpus:
        gamma = hankel_matrix(phi, basis)
        std = standard_symbol_on(phi, theta, square_basis)
        values = np.asarray(std.symbol(nu.atoms), dtype=complex)
        ps = [float(p) for p in p_list]
        schatten = {p: gamma.schatten_norm(p) for p in ps}
        profiles = {p: besov_profile(values, nu, p) for p in ps}
        besov = {p: profiles[p].norm for p in ps}
        ratio = {p: schatten[p] / besov[p] if besov[p] > 0.0 else float("nan") for p in ps}
        rows.append(ProbeRow(str(tag), schatten, besov, ratio,
                             {p: profiles[p].depth for p in ps}))
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
