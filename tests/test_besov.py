import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ttolab.besov import (
    Arc,
    LebesgueGrid,
    besov_norm,
    besov_profile,
    DyadicPartition,
    conjecture_probe,
    oscillation,
    oscillation_report,
    probe_summary,
    vmo_modulus,
)
from ttolab.blaschke import BlaschkeProduct
from ttolab.clark import ClarkError, ClarkMeasure, clark_measure, square_clark_measure
from ttolab.harmonic import TrigPoly
from ttolab.modelspace import ModelSpaceBasis
from ttolab.truncops import standard_symbol

FULL = Arc(0.0, 2 * np.pi)


def dyadic_family(max_generation):
    """The per-arc reference of the profiles: generations 0..max_generation
    of dyadic halvings of the whole circle, generation k of 2^k arcs."""
    generations = [[FULL]]
    for _ in range(max_generation):
        generations.append([half for arc in generations[-1] for half in arc.halves()])
    return generations


def tiling_defect(generations, nu) -> float:
    """Largest generation-wise gap between the summed arc masses and the
    total mass (the partition invariant)."""
    w = np.asarray(nu.weights, dtype=float)
    atoms = np.asarray(nu.atoms, dtype=complex)
    return max(abs(sum(float(w[arc.contains(atoms)].sum()) for arc in arcs) - w.sum())
               for arcs in generations)


def two_point_measure():
    # atoms at +-1 with equal mass; the Clark measure of z^2 at alpha = 1
    return clark_measure(BlaschkeProduct([0, 0]), 1.0)


def test_arc_membership_wraps():
    arc = Arc(3 * np.pi / 2, 5 * np.pi / 2)  # wraps through angle 0
    pts = np.array([1.0, 1j, -1.0, -1j])
    assert list(arc.contains(pts)) == [True, False, False, True]
    lo, hi = arc.halves()
    assert abs(lo.length - np.pi / 2) < 1e-15
    assert abs(lo.end - hi.start) < 1e-15


def test_oscillation_two_atoms():
    nu = two_point_measure()
    f = TrigPoly.z()  # values +1, -1 at the atoms; mean 0
    assert abs(oscillation(f, nu, FULL, 0) - 1.0) < 1e-14


def test_oscillation_homogeneity_and_shift():
    nu = two_point_measure()
    f = TrigPoly.z()
    base = oscillation(f, nu, FULL, 0)
    assert abs(oscillation(3.5 * f, nu, FULL, 0) - 3.5 * base) < 1e-12
    shifted = f + TrigPoly({0: 2.0 - 1.0j})
    assert abs(oscillation(shifted, nu, FULL, 0) - base) < 1e-12


def test_oscillation_interpolation_shortcut():
    # moment fit of degree >= #atoms - 1 interpolates: oscillation is exactly 0
    nu = two_point_measure()
    f = TrigPoly({1: 2.0, -1: 0.3j})
    assert oscillation(f, nu, FULL, 1) == 0.0
    assert oscillation(f, nu, FULL, 5) == 0.0


def test_oscillation_null_arc():
    nu = two_point_measure()
    assert oscillation(TrigPoly.z(), nu, Arc(0.5, 1.0), 0) == 0.0


def test_oscillation_annihilates_polynomials():
    # the moment fit reproduces every polynomial of degree <= r on an arc
    # of more than r + 1 atoms, so its oscillation vanishes
    rng = np.random.default_rng(3)
    zeros = 0.7 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
    nu = square_clark_measure(BlaschkeProduct(zeros), np.exp(0.4j))
    arcs = [FULL, Arc(0.5, 4.0), Arc(3.0, 3.0 + 2 * np.pi)]
    for r in range(5):
        for arc in arcs:
            assert arc.contains(nu.atoms).sum() > r + 1
            coeffs = rng.standard_normal(r + 1) + 1j * rng.standard_normal(r + 1)
            values = np.polyval(coeffs, nu.atoms)
            assert oscillation(values, nu, arc, r) < 1e-13
    # on coincident atoms every degree fits the weighted mean
    nu = ClarkMeasure(1.0, np.full(6, np.exp(2.0j)), rng.uniform(0.5, 1.5, 6))
    values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    mean = np.sum(nu.weights * values) / nu.weights.sum()
    want = np.sum(nu.weights * np.abs(values - mean)) / nu.weights.sum()
    for r in range(5):
        assert abs(oscillation(values, nu, FULL, r) - want) < 1e-14


def test_vmo_modulus_enumeration():
    theta = BlaschkeProduct([0, 0, 0, 0])
    nu = clark_measure(theta, 1.0)  # four atoms, mass 1/4 each
    f = TrigPoly({2: 1.0})          # values 1, -1, 1, -1 around the circle
    eps = [0.1, 0.25, 0.5, 0.75, 1.0]
    mod = vmo_modulus(f, nu, eps)
    # single atoms: osc 0; two adjacent: mean 0, osc 1; three: mean +-1/3, osc 8/9
    assert np.allclose(mod, [0.0, 0.0, 1.0, 1.0, 1.0], atol=1e-12)


def brute_force_modulus(fv, nu, eps_values):
    """vmo_modulus as the plain loop over every cyclic run of atoms in
    angle order, and the whole circle once, one run at a time."""
    order = np.argsort(np.mod(np.angle(nu.atoms), 2 * np.pi), kind="stable")
    d = order.size
    eps_values = np.asarray(eps_values, dtype=float)
    best = np.zeros(eps_values.size)
    for length in range(1, d + 1):
        for start in range(d if length < d else 1):
            run = order[(start + np.arange(length)) % d]
            w, f = nu.weights[run], fv[run]
            mass = w.sum()
            if mass > 0.0:
                osc = np.sum(w * np.abs(f - np.sum(w * f) / mass)) / mass
                best = np.where(mass <= eps_values, np.maximum(best, osc), best)
    return best


@pytest.mark.parametrize("kind", ["theta", "square", "grid"])
def test_vmo_modulus_matches_per_run_loop(kind):
    rng = np.random.default_rng(21)
    zeros = 0.9 * np.sqrt(rng.uniform(size=7)) * np.exp(2j * np.pi * rng.uniform(size=7))
    nu = {"theta": lambda: clark_measure(BlaschkeProduct(zeros), np.exp(0.7j)),
          "square": lambda: square_clark_measure(BlaschkeProduct(zeros), np.exp(0.7j)),
          "grid": lambda: LebesgueGrid(13)}[kind]()
    fv = rng.standard_normal(len(nu.atoms)) + 1j * rng.standard_normal(len(nu.atoms))
    eps = np.linspace(0.013, 1.21, 40)
    got = vmo_modulus(fv, nu, eps)
    want = brute_force_modulus(fv, nu, eps)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert got.max() > 0.0


def test_vmo_modulus_memory_is_bounded():
    # 200 atoms have 200^2 cyclic runs; the runs of one length are
    # batched at a time, never all of them at once
    rng = np.random.default_rng(22)
    zeros = 0.9 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    nu = clark_measure(BlaschkeProduct(zeros), 1.0)
    fv = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    tracemalloc.start()
    try:
        vmo_modulus(fv, nu, [0.01, 0.1, 1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_dyadic_family_tiles():
    nu = square_clark_measure(BlaschkeProduct([0.3, -0.4j]), np.exp(0.2j))
    fam = dyadic_family(5)
    assert len(fam) == 6
    for g, arcs in enumerate(fam):
        assert len(arcs) == 2**g
    assert tiling_defect(fam, nu) < 1e-14


def test_besov_profile_two_atoms():
    # frozen by hand: generation 0 gives osc 1; all deeper arcs hold at
    # most one atom, so with r = 0 the projection profile terminates at 1
    nu = two_point_measure()
    f = TrigPoly.z()
    prof = besov_profile(f, nu, p=2.0)
    assert prof.r == 0
    assert prof.depth == 1 and prof.generation_sums[1] == 0.0
    assert abs(prof.norm - 1.0) < 1e-12
    assert abs(besov_norm(f, nu, 2.0) - 1.0) < 1e-12


def test_besov_profile_homogeneous():
    nu = square_clark_measure(BlaschkeProduct([0.2, 0.5j]), 1.0)
    f = TrigPoly({1: 1.0, -2: 0.7})
    a = besov_norm(f, nu, 1.0)
    b = besov_norm(2.0 * f, nu, 1.0)
    assert abs(b - 2.0 * a) < 1e-10


def test_besov_exponent_rule():
    nu = two_point_measure()
    f = TrigPoly.z()
    for p in (0.5, 1.0, 2.0):
        prof = besov_profile(f, nu, p)
        assert prof.r == int(np.floor(1.0 / p))


def test_lebesgue_grid_mass():
    grid = LebesgueGrid(256)
    assert abs(grid.mass - 1.0) < 1e-14
    assert abs(oscillation(TrigPoly.z(), grid, FULL, 0) - 1.0) < 1e-12


def test_oscillation_report_shape():
    nu = square_clark_measure(BlaschkeProduct([0.3, -0.4j]), np.exp(0.2j))
    f = TrigPoly({1: 1.0, -1: -0.5})
    rep = oscillation_report(f, nu, eps_grid=[0.1, 0.5, 1.0], p_list=[1.0, 2.0])
    assert len(rep.modulus) == 3
    assert np.all(np.diff(rep.modulus) >= -1e-15)  # monotone in eps
    assert set(rep.besov) == {1.0, 2.0}


def test_conjecture_probe_frozen_point():
    # the one value pinned by hand: theta = z, phi = zbar pairs the
    # Hilbert-Schmidt norm 1 with the two-atom square-measure profile 1
    theta = BlaschkeProduct([0])
    rows = conjecture_probe(theta, 1.0, [2.0], [("zbar", TrigPoly({-1: 1.0}))])
    assert len(rows) == 1
    row = rows[0]
    assert abs(row.schatten[2.0] - 1.0) < 1e-12
    assert abs(row.besov[2.0] - 1.0) < 1e-12
    assert abs(row.ratio[2.0] - 1.0) < 1e-12


def test_conjecture_probe_reports_termination():
    # theta = z: two atoms; zeros 1 - 2^-k at n = 16: the atoms cluster
    # and the profiles go deep.  Each row reports the generation where
    # every arc first holds at most r + 1 atoms
    zbar = TrigPoly({-1: 1.0})
    p_list = [0.5, 1.0, 2.0]
    for zeros, depths in (([0], [0, 0, 1]),
                          ([1 - 2.0**-k for k in range(1, 17)], [17, 18, 19])):
        theta = BlaschkeProduct(zeros)
        row = conjecture_probe(theta, 1.0, p_list, [("zbar", zbar)])[0]
        nu = square_clark_measure(theta, 1.0)
        values = standard_symbol(zbar, theta).symbol(nu.atoms)
        for p, depth in zip(p_list, depths):
            assert row.depth[p] == depth
            profile = besov_profile(values, nu, p)
            assert profile.depth == depth
            fills = nu.partition.fills
            assert fills[depth] <= profile.r + 1
            assert depth == 0 or fills[depth - 1] > profile.r + 1
            assert abs(row.besov[p] - profile.norm) <= 1e-12 * max(1.0, profile.norm)


def oracle_generation_sums(nu, values, p, dps=50):
    """besov_profile's generation sums evaluated in mpmath at dps digits
    from the double atoms, weights and values: each atom's arc of
    generation k is the floor of 2^k angle / (2 pi) in exact arithmetic
    on the doubles, and each moment fit is solved in the monomials xi^j."""
    r = int(math.floor(1.0 / p))
    angles = np.mod(np.angle(nu.atoms), 2 * np.pi)
    with mp.workdps(dps):
        two_pi = mp.mpf(2 * np.pi)
        xi = [mp.mpc(complex(a)) for a in nu.atoms]
        w = [mp.mpf(float(v)) for v in nu.weights]
        f = [mp.mpc(complex(v)) for v in values]
        sums = []
        for k in itertools.count():
            total = mp.mpf(0)
            arcs = {}
            for i, angle in enumerate(angles):
                arcs.setdefault(int(mp.floor(mp.mpf(angle) * 2**k / two_pi)), []).append(i)
            for held in arcs.values():
                if len(held) <= r + 1:
                    continue
                gram, rhs = mp.matrix(r + 1, r + 1), mp.matrix(r + 1, 1)
                for i in held:
                    for row in range(r + 1):
                        weighted = w[i] * mp.conj(xi[i]) ** row
                        rhs[row] += weighted * f[i]
                        for col in range(r + 1):
                            gram[row, col] += weighted * xi[i] ** col
                c = mp.lu_solve(gram, rhs)
                deviation = sum(w[i] * abs(f[i] - sum(c[j] * xi[i] ** j for j in range(r + 1)))
                                for i in held)
                total += (deviation / sum(w[i] for i in held)) ** p
            sums.append(total)
            if max(len(held) for held in arcs.values()) <= r + 1:
                return sums


def oracle_besov_norm(nu, values, p, dps=50):
    """besov_norm from the generation sums of oracle_generation_sums."""
    with mp.workdps(dps):
        return float(sum(oracle_generation_sums(nu, values, p, dps)) ** (1 / mp.mpf(p)))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_besov_norm_matches_mpmath_oracle(n):
    # the standard symbol of zbar on zeros 1 - 2^-k against the Clark
    # measure of theta^2: the atoms cluster at 1, and the profile must
    # run to termination with well-conditioned fits on the short arcs
    theta = BlaschkeProduct([1 - 2.0**-k for k in range(1, n + 1)])
    nu = square_clark_measure(theta, 1.0)
    values = standard_symbol(TrigPoly({-1: 1.0}), theta).symbol(nu.atoms)
    want = oracle_besov_norm(nu, values, 0.5)
    assert abs(besov_norm(values, nu, 0.5) - want) <= 1e-8 * want


def test_conjecture_probe_builds_each_basis_once(monkeypatch):
    # one basis of theta and one of theta^2 however long the corpus, and
    # the same rows as a standard symbol built per symbol
    theta = BlaschkeProduct([0.3, -0.4j, 0.5])
    corpus = [("a", TrigPoly({-1: 1.0})), ("b", TrigPoly({-2: 0.5, 1: 1.0})),
              ("c", TrigPoly({-3: 1.0j, -1: 0.25}))]
    builds = []
    init = ModelSpaceBasis.__init__

    def counted(self, theta, *args):
        builds.append(theta.degree)
        init(self, theta, *args)

    monkeypatch.setattr(ModelSpaceBasis, "__init__", counted)
    rows = conjecture_probe(theta, 1.0, [2.0], corpus)
    assert sorted(builds) == [3, 6]
    nu = square_clark_measure(theta, 1.0)
    for row, (_, phi) in zip(rows, corpus):
        values = standard_symbol(phi, theta).symbol(nu.atoms)
        assert row.besov[2.0] == besov_profile(values, nu, 2.0).norm


def test_probe_summary_stats():
    theta = BlaschkeProduct([0, 0])
    corpus = [("a", TrigPoly({-1: 1.0})), ("b", TrigPoly({-2: 0.5, 1: 1.0}))]
    rows = conjecture_probe(theta, 1.0, [1.0, 2.0], corpus)
    summary = probe_summary(rows, [1.0, 2.0])
    for p in (1.0, 2.0):
        stats = summary[p]
        assert stats["count"] >= 1
        assert stats["min"] <= stats["median"] <= stats["max"]


# ------------------------------------------- the batched profile kernel

def per_arc_profile(fv, nu, p):
    """besov_profile written as the plain loop over Arc objects: halve
    the circle with Arc.halves, test membership with Arc.contains and
    fit by np.linalg.lstsq on the sqrt(w)-weighted Vandermonde matrix,
    one arc at a time, until every arc holds at most r + 1 atoms.  Arcs
    that hold no atom are not halved further.  Each fit is in the
    variable (xi - c) / h, c the middle of the arc's atoms in angle order
    and h the largest |xi - c|.

    Also returns, per generation, the first-order sensitivity of its sum
    to rounding: the sum over arcs of p osc^(p-1) kappa mean|f|, kappa
    being the condition number of the arc's weighted Vandermonde matrix.
    Two correct routes that round differently differ by a small multiple
    of eps times it.
    """
    r = int(math.floor(1.0 / p))
    atoms = np.asarray(nu.atoms, dtype=complex)
    angles = np.mod(np.angle(atoms), 2 * np.pi)
    w = np.asarray(nu.weights, dtype=float)
    arcs = [FULL]
    sums, slack = [], []
    while True:
        total, spread, most, occupied = 0.0, 0.0, 0, []
        for arc in arcs:
            held = np.flatnonzero(arc.contains(atoms))
            if held.size:
                occupied.append(arc)
            most = max(most, held.size)
            held = held[np.argsort(angles[held], kind="stable")]
            xi, wa, fa = atoms[held], w[held], fv[held]
            mass = wa.sum()
            if mass <= 0.0:
                continue
            if xi.size <= r + 1:
                continue
            u = xi - xi[xi.size // 2]
            u /= np.abs(u).max()
            vander = np.sqrt(wa)[:, None] * u[:, None] ** np.arange(r + 1)
            coeffs = np.linalg.lstsq(vander, np.sqrt(wa) * fa, rcond=None)[0]
            osc = np.sum(wa * np.abs(fa - np.polyval(coeffs[::-1], u))) / mass
            s = np.linalg.svd(vander, compute_uv=False)
            kappa = s[0] / s[-1] if s[-1] > 0.0 else np.inf
            if osc > 0.0:
                total += osc**p
                spread += p * osc**(p - 1) * kappa * np.sum(wa * np.abs(fa)) / mass
        sums.append(total)
        slack.append(spread)
        if most <= r + 1:
            return sums, slack
        arcs = [half for arc in occupied for half in arc.halves()]


def assert_matches_per_arc_loop(fv, nu, p):
    prof = besov_profile(fv, nu, p)
    sums, slack = per_arc_profile(fv, nu, p)
    assert len(prof.generation_sums) == len(sums)
    eps = np.finfo(float).eps
    for got, want, scale in zip(prof.generation_sums, sums, slack):
        assert abs(got - want) <= 1e-12 * abs(want) + 10 * eps * scale, (got, want)


zero_strategy = st.tuples(
    st.one_of(st.floats(0.0, 0.95), st.integers(2, 6).map(lambda k: 1.0 - 10.0**-k)),
    st.floats(0.0, 2 * np.pi))


@settings(max_examples=60, deadline=None)
# the square Clark measure of zeros 0, 0, 0, 0.9375 e^i, 0.9999 e^i: at
# generation 1 an arc of six atoms holds clusters at several scales, and
# its monomial moment Gram has condition number 2e10
@example(kind="square", zeros=[(0.0, 0.0)] * 3 + [(0.9375, 1.0), (0.9999, 1.0)],
         alpha_angle=0.0, grid_size=2, p=0.25, seed=0)
@given(kind=st.sampled_from(["theta", "square", "grid"]),
       zeros=st.lists(zero_strategy, min_size=1, max_size=8),
       alpha_angle=st.floats(0.0, 2 * np.pi),
       grid_size=st.integers(2, 64),
       p=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       seed=st.integers(0, 2**16))
def test_besov_profile_matches_per_arc_loop(kind, zeros, alpha_angle, grid_size, p, seed):
    if kind == "grid":
        nu = LebesgueGrid(grid_size)
    else:
        theta = BlaschkeProduct([rad * np.exp(1j * ang) for rad, ang in zeros])
        measure = clark_measure if kind == "theta" else square_clark_measure
        try:
            nu = measure(theta, np.exp(1j * alpha_angle))
        except ClarkError:
            assume(False)
    rng = np.random.default_rng(seed)
    fv = rng.standard_normal(len(nu.atoms)) + 1j * rng.standard_normal(len(nu.atoms))
    assert_matches_per_arc_loop(fv, nu, p)


def test_clustered_atoms_get_full_degree():
    # three clusters of four atoms 1e-6 apart, fitted with r = 2.  The arc
    # [0, pi) holds two clusters: in its centred variable they are two
    # points, so its monomial moment Gram is singular to working
    # precision.  The orthonormal fit keeps degree 2 on every arc, and
    # each generation sum matches the 50-digit oracle
    angles = np.add.outer([0.5, 2.5, 4.5], [0.0, 1e-6, 2e-6, 3e-6]).ravel()
    rng = np.random.default_rng(5)
    nu = ClarkMeasure(1.0, np.exp(1j * angles), rng.uniform(0.5, 1.5, 12))
    fv = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    assert_matches_per_arc_loop(fv, nu, 0.5)
    got = besov_profile(fv, nu, 0.5).generation_sums
    want = [float(total) for total in oracle_generation_sums(nu, fv, 0.5)]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-9 * b
    assert abs(want[1] - 1.64324198272) < 1e-10
    # well separated atoms
    spread = square_clark_measure(BlaschkeProduct([0.3, -0.4j, 0.5 + 0.2j]), 1.0)
    assert_matches_per_arc_loop(fv[:6], spread, 1.0)


def test_grid_fits_match_the_per_arc_reference():
    # the uniform grid down to r = 4, where every arc of more than r + 1
    # nodes is fitted at full degree
    grid = LebesgueGrid(4096)
    rng = np.random.default_rng(8)
    fv = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    for p in (0.25, 0.5):
        assert_matches_per_arc_loop(fv, grid, p)


def multi_scale_measure(rng):
    """A square Clark measure at alpha = 1 of 2-6 zeros with
    1 - |lam| = 10^-u, u uniform in [1, 5], and angles uniform in
    [0, 0.5]: clusters of atoms at several scales on one arc."""
    n = int(rng.integers(2, 7))
    zeros = (1.0 - 10.0 ** -rng.uniform(1.0, 5.0, n)) * np.exp(1j * rng.uniform(0.0, 0.5, n))
    return square_clark_measure(BlaschkeProduct(zeros), 1.0)


@pytest.mark.parametrize("seed", range(8))
def test_multi_scale_clusters_match_mpmath_oracle(seed):
    # one centre and one scale per arc cannot resolve several tight
    # clusters in the monomials; the orthonormal fit needs neither
    nu = multi_scale_measure(np.random.default_rng(seed))
    t = np.angle(nu.atoms)
    values = np.cos(3 * t) + 1j * np.sin(t)
    for p in (0.25, 0.5):
        assert abs(besov_norm(values, nu, p) - oracle_besov_norm(nu, values, p)) <= 1e-8


def test_besov_profile_memory_is_bounded():
    # the profile terminates at generation 10, where each of 1024 arcs
    # holds 4 <= r + 1 nodes; a dense arcs x atoms mask of the last
    # generation alone would take 32 MB
    grid = LebesgueGrid(4096)
    rng = np.random.default_rng(8)
    fv = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    tracemalloc.start()
    try:
        prof = besov_profile(fv, grid, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.depth == 10
    assert peak < 64 * 2**20


def test_deep_profile_memory_is_bounded():
    # zeros 1 - 2^-k at n = 32: the profile terminates at generation 33,
    # where arrays over all 2^k arcs would take 2^34 slots; the kernel
    # holds only the occupied arcs
    theta = BlaschkeProduct([1 - 2.0**-k for k in range(1, 33)])
    nu = square_clark_measure(theta, 1.0)
    rng = np.random.default_rng(9)
    fv = rng.standard_normal(len(nu.atoms)) + 1j * rng.standard_normal(len(nu.atoms))
    tracemalloc.start()
    try:
        prof = besov_profile(fv, nu, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.depth == 33
    assert peak < 8 * 2**20


def test_partition_refuses_coincident_atoms():
    # two equal atoms share every arc, so no generation would separate them
    nu = ClarkMeasure(1.0, np.array([1.0, 1.0 + 0.0j]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="closer"):
        besov_profile(TrigPoly.z(), nu, 2.0)
    # one arc's oscillation needs no partition: the fit falls back to the mean
    assert oscillation(np.array([1.0, -1.0]), nu, FULL, 0) == 1.0
    with pytest.raises(ValueError, match="closer"):
        DyadicPartition(np.exp(1j * np.array([1e-300, np.nextafter(1e-300, 1.0), 2.0])))


def test_adjacent_doubles_terminate():
    # atoms whose angles are adjacent doubles near 2 pi - 1e-3 share an arc
    # until the arc ends resolve one ulp
    atoms = np.exp(1j * (2 * np.pi - 1e-3 + np.array([0.0, np.spacing(2 * np.pi)])))
    part = DyadicPartition(atoms)
    assert np.diff(part.angles)[0] == np.spacing(part.angles[0])
    nu = ClarkMeasure(1.0, atoms, np.array([1.0, 2.0]))
    prof = besov_profile(np.array([1.0, -1.0j]), nu, 2.0)
    assert prof.depth == 51
    assert nu.partition.fills[50] == 2


def test_dyadic_halves_split_grid_nodes_exactly():
    # grid nodes sit on the dyadic ends; each must fall in exactly one arc
    grid = LebesgueGrid(4096)
    fam = dyadic_family(8)
    for arcs in fam:
        held = sum(arc.contains(grid.atoms).astype(int) for arc in arcs)
        assert np.all(held == 1)
    assert tiling_defect(fam, grid) == 0.0


def _copy(nu):
    if isinstance(nu, LebesgueGrid):
        return LebesgueGrid(nu.m)
    return ClarkMeasure(nu.alpha, nu.atoms.copy(), nu.weights.copy())


@pytest.mark.parametrize("kind", ["square", "grid"])
def test_profiles_share_the_measure_partition(kind):
    # the profiles of one measure take the dyadic generations the deepest
    # of them needs once, and agree bit for bit with a fresh measure's
    if kind == "grid":
        nu = LebesgueGrid(4096)
    else:
        nu = square_clark_measure(BlaschkeProduct([0.5, -0.3 + 0.6j, 0.8j, -0.7]), np.exp(0.3j))
    rng = np.random.default_rng(12)
    fv = rng.standard_normal(len(nu.atoms)) + 1j * rng.standard_normal(len(nu.atoms))
    profiles = [besov_profile(fv, nu, p) for p in (0.5, 1.0, 2.0)]
    depths = [len(prof.generation_sums) for prof in profiles]
    assert len(nu.partition.counts) == max(depths)
    assert max(depths) > min(depths)
    for p, prof in zip((0.5, 1.0, 2.0), profiles):
        fresh = besov_profile(fv, _copy(nu), p)
        assert prof == fresh
        assert besov_norm(fv, nu, p) == prof.norm


WRAP_NEIGHBOURS = np.exp(1j * np.array([0.3, 1.2, 1.5, 4.0, 6.1]))


@pytest.mark.parametrize("kwargs", [{"atoms": np.append(1.0 + 0.0j, WRAP_NEIGHBOURS)},
                                    {"atoms": np.append(1j, WRAP_NEIGHBOURS)},
                                    {"atoms": np.append(1.0 - 1e-17j, WRAP_NEIGHBOURS)}])
def test_arcs_partition_atoms_at_the_wrap(kwargs):
    # the first atom sits at angle 0, on the dyadic end pi / 2, or at an
    # angle that reduces to exactly 2 pi, where the last arc of each
    # generation meets the first: it must fall in exactly one arc
    nu = ClarkMeasure(1.0, weights=np.linspace(1.0, 2.0, 6), **kwargs)
    for arcs in dyadic_family(7):
        held = sum(arc.contains(nu.atoms).astype(int) for arc in arcs)
        assert held.tolist() == [1] * 6
    fv = np.arange(6) + 2.0j
    for p in (0.5, 2.0):
        assert_matches_per_arc_loop(fv, nu, p)


@pytest.mark.parametrize("nu", [LebesgueGrid(64),
                                square_clark_measure(BlaschkeProduct(
                                    [1.0 - 2.0**-k for k in range(1, 17)]), 1.0)],
                         ids=["grid", "square"])
def test_partition_index_is_position_in_dyadic_family(nu):
    # bisection's runs of atoms, taken in angle order, are the arcs of
    # dyadic_family that hold atoms, in order: the run of every atom is
    # the position of its arc among them, in every generation until each
    # atom has its own arc
    part = nu.partition
    atoms = np.asarray(nu.atoms)[part.order]
    assert np.all(np.diff(part.angles) > 0)
    arcs = [FULL]
    for k in itertools.count():
        where = np.array([arc.contains(atoms) for arc in arcs])
        occupied = where.any(axis=1)
        where, arcs = where[occupied], [a for a, o in zip(arcs, occupied) if o]
        assert np.all(where.sum(axis=0) == 1)
        count, fill = part.generation(k)
        assert np.array_equal(np.repeat(np.arange(count.size), count), np.argmax(where, axis=0))
        assert fill == where.sum(axis=1).max()
        if fill == 1:
            break
        arcs = [half for arc in arcs for half in arc.halves()]
