"""The benchmark's three workloads, built from a seed.

A workload is a fixed list of operations (one round).  Each operation
calls ttolab's public functions the way the CLI experiments do and hands
its result to an independent check from `checks`.  Functions are looked
up on the ttolab modules at call time, so the traced run sees every call
through the wrappers that `tracer` installs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

BOUNDARY_DEGREES = range(2, 17)   # the bracketing grid of clark_measure doubles
                                  # per degree: 2^(n+5) nodes, so stop at 16
BOUNDARY_REPEAT_DEGREE = 10       # operations up to this degree run five times a round
BOUNDARY_REPEATS = 5
INTERIOR_INSTANCES = 64           # degrees 1..8, eight instances each
INTERIOR_BAND = 3
BESOV_P = (0.5, 1.0, 2.0)
NEHARI_INSTANCES = 6              # leading instances of the `ttolab nehari` sweep


@dataclass(frozen=True)
class Operation:
    label: str
    degree: int
    run: Callable[[], object]
    check: Callable[[object], list]
    repeats: int = 1      # runs per round, each at a place of its own in the schedule


@dataclass(frozen=True)
class Workload:
    operations: tuple
    warmup: Operation
    schedule: tuple       # indices into operations, in the order a round runs them


def _in_order(ops, warmup: Operation) -> Workload:
    ops = tuple(ops)
    return Workload(ops, warmup, tuple(range(len(ops))))


def build(name: str, seed: int) -> Workload:
    import ttolab
    return BY_NAME[name](ttolab, seed)


# ----------------------------------------------------------- boundary

def _boundary(tl, seed: int) -> Workload:
    """Zeros 1 - 2^-k (k = 1..n) for n = 2..16, symbol conj(z).

    The inputs are fixed by the experiment; the seed orders the runs
    within the round and draws the interior points of the Poisson check.
    A run takes one round, so the operations of low degree, which take
    milliseconds, run BOUNDARY_REPEATS times at places spread over the
    round; the median over all runs then does not hang on whether one
    run fell into a slow phase of the machine.
    """
    config = tl.RunConfig()
    ess, dec = config.essential, config.decay
    quad_ess = tl.QuadratureSettings(config.quadrature.m_init, config.quadrature.m_cap,
                                     ess.quad_tol)
    quad_dec = tl.QuadratureSettings(config.quadrature.m_init, config.quadrature.m_cap,
                                     dec.quad_tol)
    gen = tl.geometric_zero_generator(ess.ratio)
    phi = tl.TrigPoly({-1: 1.0})
    rng = np.random.default_rng(seed)
    points = tl.corpus.random_interior_points(rng, 16, 0.9)

    def degree_ops(n: int):
        zeros = [gen(k) for k in range(1, n + 1)]

        def essential():
            report = tl.essential_spectrum_experiment(gen, phi, [n], ess.delta, quad_ess,
                                                      ess.gram_tol)[0]
            return report.eigenvalues

        def lemma1():
            basis = tl.build_basis(tl.BlaschkeProduct(zeros), quad_dec, dec.gram_tol)
            return tl.truncops.test_vector_ratio(basis, phi, None, zeros[-1], 1.0)

        def check_lemma1(est):
            return checks.check_decay(n, zeros[-1], est.ratio, est.zeta1,
                                      est.poisson_bound, est.multiplier_bound)

        def clark():
            theta = tl.BlaschkeProduct(zeros)
            return [tl.clark_measure(theta, alpha) for alpha in (1.0, -1.0)]

        def check_clark(measures):
            return [p for m in measures for p in
                    checks.check_clark(zeros, m.alpha, m.atoms, m.weights, points)]

        repeats = BOUNDARY_REPEATS if n <= BOUNDARY_REPEAT_DEGREE else 1
        return (Operation(f"essential n={n}", n, essential,
                          lambda eigs: checks.check_essential(zeros, eigs), repeats),
                Operation(f"lemma1 n={n}", n, lemma1, check_lemma1, repeats),
                Operation(f"clark n={n}", n, clark, check_clark, repeats))

    ops = tuple(op for n in BOUNDARY_DEGREES for op in degree_ops(n))
    runs = [i for i, op in enumerate(ops) for _ in range(op.repeats)]
    schedule = tuple(int(i) for i in rng.permutation(runs))
    return Workload(ops, degree_ops(2)[0], schedule)


# ----------------------------------------------------------- interior

@dataclass(frozen=True)
class InteriorResult:
    eigenvalues: np.ndarray
    link_defect: float
    quadrature_hankel: np.ndarray
    clark_hankel: np.ndarray
    hankel: np.ndarray
    standard_hankel: np.ndarray
    schatten: dict
    besov: dict
    square_measure: object      # Clark measure of theta^2 at alpha^2
    standard_values: np.ndarray  # standard symbol at its atoms


def _interior(tl, seed: int) -> Workload:
    """Random theta of degree 1..8 (eight each) with the sweep's zero
    modulus and separation; per instance one operation of five steps.

    The zero sets are drawn once, at the sweep's default seed, and each is
    turned by a seeded rotation z -> e^{iw} z; the seed also draws every
    symbol, alpha and Besov transform.  The grids of the basis and of the
    Clark solve grow as the zeros near the circle, so fresh zero moduli per
    seed would make runs with different seeds measure different work; a
    rotation keeps every modulus and every gap.
    """
    sweep = tl.RunConfig().sweep
    zero_rng = tl.corpus.spawn_rngs(sweep.seed, ["theta"])["theta"]
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(INTERIOR_INSTANCES):
        degree = 1 + i % 8
        zeros = tl.corpus.random_zeros(zero_rng, degree, sweep.max_zero_modulus,
                                       sweep.min_zero_gap)
        theta = tl.BlaschkeProduct(np.asarray(zeros) * tl.corpus.random_unimodular(rng))
        alpha = tl.corpus.random_unimodular(rng)
        analytic = tl.corpus.random_trig_poly(rng, INTERIOR_BAND, analytic=True)
        phi = tl.corpus.random_trig_poly(rng, INTERIOR_BAND)
        square = theta.square()
        c = rng.standard_normal(2 * degree) + 1j * rng.standard_normal(2 * degree)
        # conj(psi) lies in K_{theta^2}: the class where both Hankel routes agree
        psi = tl.harmonic.ConjSymbol(tl.modelspace.BasisCombination(square.zeros, c))
        scale = complex(rng.standard_normal(), rng.standard_normal())
        shift = complex(rng.standard_normal(), rng.standard_normal())
        ops.append(_interior_op(tl, i, theta, alpha, analytic, phi, psi, scale, shift))
    return _in_order(ops, ops[0])


def _interior_op(tl, index, theta, alpha, analytic, phi, psi, scale, shift) -> Operation:
    def run():
        basis = tl.build_basis(theta)
        report = tl.spectral_report(tl.toeplitz_matrix(analytic, basis))
        link = tl.hankel_toeplitz_defect(phi, basis)
        cross = tl.cross_route_equivalence(psi, basis, alpha)
        gamma = tl.hankel_matrix(phi, basis)
        std = tl.standard_symbol(phi, theta)
        gamma_std = tl.hankel_matrix(std.symbol, basis)
        nu = tl.square_clark_measure(theta, alpha)
        values = np.asarray(std.symbol(nu.atoms), dtype=complex)
        schatten = {p: gamma.schatten_norm(p) for p in BESOV_P}
        besov = {p: tl.besov_norm(values, nu, p) for p in BESOV_P}
        return InteriorResult(report.eigenvalues, link, cross.hankel.entries,
                              cross.clark_route.entries, gamma.entries,
                              gamma_std.entries, schatten, besov, nu, values)

    def check(res: InteriorResult):
        nu = res.square_measure
        moved = scale * res.standard_values + shift
        transformed = {p: tl.besov_norm(moved, nu, p) for p in BESOV_P}
        return (checks.check_spectral_mapping(theta.zeros, analytic.coeffs, res.eigenvalues)
                + checks.check_link(res.link_defect)
                + checks.check_cross_route(res.quadrature_hankel, res.clark_hankel)
                + checks.check_standard_symbol(res.hankel, res.standard_hankel)
                + checks.check_schatten(res.hankel, res.schatten)
                + checks.check_square_clark(theta.zeros, alpha, nu.atoms, nu.weights)
                + checks.check_besov(res.besov, transformed, scale))

    return Operation(f"interior #{index} d={theta.degree}", theta.degree, run, check)


# ------------------------------------------------------------- nehari

def _nehari(tl, seed: int) -> Workload:
    """The leading instances of the `ttolab nehari` sweep at its default
    seed, each turned by a seeded rotation z -> e^{iw} z, plus the
    degree-1 shift-symbol triple and one minimax certificate with its
    convolution table.

    The multistart ascent's cost differs threefold between instances of
    one degree, so fresh random instances per seed would make runs with
    different seeds measure different work.  A rotation maps the Nehari
    problem onto an equivalent one; the seed also draws every optimizer
    seed, so runs differ in inputs and in the random starts alone.
    """
    config = tl.RunConfig()
    neh, sweep = config.nehari, config.sweep
    quad = config.quadrature.settings()
    slack = config.tolerances.nehari_slack
    sweep_rngs = tl.corpus.spawn_rngs(sweep.seed, ["theta", "symbol", "opt"])
    rng = np.random.default_rng(seed)

    def gap_op(label, theta, phi, opt_seed, check):
        def run():
            return tl.nehari_gap(phi, theta, neh.multistart, opt_seed, neh.grid_m,
                                 quad, slack)
        return Operation(label, theta.degree, run, check)

    ops = []
    for i in range(NEHARI_INSTANCES):
        degree = int(sweep_rngs["theta"].integers(1, neh.max_degree + 1))
        theta = tl.corpus.random_blaschke(sweep_rngs["theta"], degree,
                                          sweep.max_zero_modulus, sweep.min_zero_gap)
        phi = tl.corpus.random_trig_poly(sweep_rngs["symbol"], neh.max_band)
        turn = complex(np.exp(2j * np.pi * rng.uniform()))
        theta = tl.BlaschkeProduct(np.asarray(theta.zeros) * turn)
        coeffs = {k: c * turn ** (-k) for k, c in phi.coeffs.items()}
        ops.append(gap_op(
            f"nehari #{i} d={degree}", theta, tl.TrigPoly(coeffs),
            int(rng.integers(1 << 31)),
            lambda g, coeffs=coeffs: checks.check_nehari_gap(coeffs, g.hankel_norm,
                                                             g.dual_value)))

    shift = tl.TrigPoly({-1: 1.0})
    ops.append(gap_op("shift triple d=1", tl.BlaschkeProduct([0.0]), shift,
                      int(rng.integers(1 << 31)),
                      lambda g: checks.check_shift_triple(g.hankel_norm, g.dual_value,
                                                          g.ratio)))

    square_shift = tl.BlaschkeProduct([0.0, 0.0])

    def certificate():
        cert = tl.minimax_certificate(shift, square_shift, grid_m=neh.grid_m)
        rows = tl.convolution_table(shift, square_shift, neh.r_list, certificate=cert,
                                    grid_m=neh.grid_m)
        return cert, rows

    def check_certificate(result):
        cert, rows = result
        return checks.check_certificate(cert.value, cert.f1.coeffs, cert.f2.coeffs,
                                        square_shift.zeros, cert.grid_m,
                                        [(r.r, r.sup_gap, r.theta_gap) for r in rows])

    ops.append(Operation("certificate d=2", 2, certificate, check_certificate))
    return _in_order(ops, ops[-2])


BY_NAME = {"boundary": _boundary, "interior": _interior, "nehari": _nehari}
