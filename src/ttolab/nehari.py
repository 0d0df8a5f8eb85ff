"""Distance from a boundary symbol to the zero-symbol class.

The class F of symbols whose truncated Hankel operator vanishes is
conj(Theta H^2) + H^2 (intersected with L^inf) for the appropriate inner
function Theta, and the L^inf distance to it dualizes against the unit
ball of K_Theta ∩ zH^1.  At finite degree that dual space is the
(d-1)-dimensional K_Theta ∩ zH^2, so the distance becomes a concrete
maximization over coefficient vectors:

    dist(phi, F_Theta) = sup { |∫ phi h dm| : h in K_Theta ∩ zH^2,
                               ||h||_{L^1} <= 1 }.

Equivalently dist = 1 / min { ||h||_1 : ∫ phi h dm = 1 }, an L^1 norm
minimized under one affine constraint: a convex problem with a single
global optimum, solved on a grid in two stages of Newton and barrier
steps.  Damped Newton steps on the objective stop once the squared
Newton decrement is at most 1e-16 of the objective; each step forms its
move on the grid once, so the line search only scales it.  The solve
starts from at most 20 such steps on every fourth node of the same
samples, a coarse stage that never takes the barrier path, and reports
the steps of both grids.  A solve that
stalls at a kink of the objective, where the minimizer vanishes on T, or
has not stopped in 40 steps continues on the log-barrier path of the
grid problem as a second-order cone program.  The pairing ∫ phi h dm is
a closed form in the Taylor coefficients of the basis when phi is a
trigonometric polynomial.  Every h gives the lower bound
|∫ phi h| / ||h||_1 when ||h||_1 is exact, and at the optimum it is the
distance itself, up to grid and quadrature error;
the adaptive integral of ||h||_1 reads the levels whose nodes are the
solve grid's (checked bitwise) off the minimizer's grid values.
A Lawson-style IRLS pass produces primal certificates
f = f1 + conj(Theta f2) for the upper side, and the Poisson convolution
table smooths those certificates toward continuous near-minimizers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .harmonic import (DEFAULT_QUADRATURE, QuadratureSettings, Symbol,
                       TrigPoly, adaptive_boundary_mean, unit_nodes)
from .modelspace import (BasisCombination, ModelSpaceBasis, build_basis,
                         subspace_pairing, vanishing_at_origin_subspace)
from .truncops import hankel_matrix


class NehariError(Exception):
    """Lower-bound inequality violated: optimizer or quadrature bug."""


@dataclass(frozen=True)
class DualBasis:
    """L2-orthonormal basis of K_Theta ∩ zH^2 (dimension d - 1)."""

    basis: ModelSpaceBasis
    coeffs: np.ndarray          # (d, d-1), orthonormal columns

    @property
    def dimension(self) -> int:
        return self.coeffs.shape[1]

    def sample(self, nodes: np.ndarray) -> np.ndarray:
        return self.coeffs.T @ self.basis.sample(nodes)

    def element(self, c: np.ndarray) -> Symbol:
        return BasisCombination(self.basis.theta.zeros,
                                self.coeffs @ np.asarray(c, dtype=complex))


def dual_basis(theta: BlaschkeProduct,
               quad: QuadratureSettings = DEFAULT_QUADRATURE) -> DualBasis:
    basis = build_basis(theta, quad)
    return DualBasis(basis, vanishing_at_origin_subspace(basis))


@dataclass(frozen=True)
class DistanceReport:
    """Dual value of the grid L1 minimizer, with the solver's step count."""

    value: float                # lower bound, up to the tolerance of its L1 integral
    coefficients: np.ndarray    # dual-basis coefficients of the minimizer
    pairing: np.ndarray         # ∫ phi h_i dm against the dual basis
    grid_m: int
    starts: int                 # 1 per solve, 0 when none was needed
    stagnant_starts: int        # always 0; kept for report compatibility
    iterations: int             # accepted coarse, Newton and barrier steps
    coarse_iterations: int      # of those, the coarse stage's Newton steps


# Weight floor, relative to mean|h|: 1/|h| is clamped at 1/(floor mean|h|)
# in the Newton Hessian.  The solve stops once the squared Newton decrement
# is at most _DECREMENT times mean|h|: the predicted decrease is then below
# rounding.  A negative decrement comes from a singular Hessian and stops
# nothing.  The Hessian is singular along directions where F is linear
# (dh = h s with s real); the Newton step is then of order 1 / eps, and
# _HALVINGS = 52 halvings span that range down to the kink where F stops
# decreasing.  Where the minimizer nearly vanishes on T the halved steps
# can still crawl: a solve with no decrement stop in _NEWTON_STEPS steps
# (the default sweep needs at most 14) continues on the barrier path, mu =
# _BARRIER_START F down to _BARRIER_END F, as does a stall whose decrement
# is above the path's resolution _BARRIER_END F.  The step cap only guards
# against a stalled iteration.  `dual_distance` starts the solve from at
# most _COARSE_STEPS Newton steps on every _COARSE_STRIDE-th grid node;
# the default sweep takes at most 30 coarse and fine steps together.
_EPS_FLOOR = 1e-12
_DECREMENT = 1e-16
_MAX_STEPS = 500
_HALVINGS = 52
_NEWTON_STEPS = 40
_BARRIER_START = 1e-3
_BARRIER_END = 1e-15
_COARSE_STRIDE = 4
_COARSE_STEPS = _NEWTON_STEPS // 2


def _newton_l1(q, samples, start=None):
    """Minimize F(c) = mean|c @ samples| subject to c @ q = 1.

    With c = c0 + y N^T, c0 = conj(q) / |q|^2 and the columns of N an
    orthonormal basis of {c : c @ q = 0}, h = h0 + y G with G = N^T samples
    and y free (`_affine_frame`).  The solve starts at y = 0, or with a
    `start` at its projection y = start conj(N) onto c @ q = 1.  It has
    two stages, at most 40 Newton steps on F (`_newton_steps`) and then
    the barrier path (`_barrier_path`).  The barrier path runs when the
    Newton steps stall at a kink of F, where h vanishes on T, or on a
    singular Hessian, or do not stop in 40 steps; its end is kept if it
    lowers F, and the steps of both count, at most 500.  h is carried as
    the sum of the accepted moves.  Returns c, F and the number of
    accepted Newton and barrier steps.
    """
    c0, h, null, grid = _affine_frame(q, samples)
    if null is None:
        return c0, _mean(np.abs(h)), 0
    y = np.zeros(null.shape[1], dtype=complex)
    if start is not None:
        y = start @ np.conj(null)
        h = h + y @ grid
    y, h, mod, steps, settled = _newton_steps(y, h, grid, _NEWTON_STEPS)
    l1 = _mean(mod)
    if not settled:
        y_path, mod_path, more = _barrier_path(h, mod, y, grid, l1)
        l1_path = _mean(mod_path)
        if l1_path < l1:
            y, l1 = y_path, l1_path
        steps += more
    return c0 + y @ null.T, l1, steps


def _coarse_start(q, samples):
    """A start for `_newton_l1(q, samples)`: at most 20 Newton steps
    (`_newton_steps`) from c0 on every fourth node, the view
    samples[:, ::4] of the same samples.  They end at the decrement test,
    at a stall or at the cap, and never go on to the barrier path, whose
    steps belong to the fine grid's own solve.  Returns c and the number
    of accepted steps.
    """
    coarse = samples[:, ::_COARSE_STRIDE]
    c0, h, null, grid = _affine_frame(q, coarse)
    if null is None:
        return c0, 0
    y = np.zeros(null.shape[1], dtype=complex)
    y, _, _, steps, _ = _newton_steps(y, h, grid, _COARSE_STEPS)
    return c0 + y @ null.T, steps


def _affine_frame(q, samples):
    """c0 = conj(q) / |q|^2, h0 = c0 @ samples, the orthonormal basis N of
    {c : c @ q = 0} and G = N^T samples; N and G are None when q has one
    entry, as c0 is then the only c with c @ q = 1."""
    c0 = np.conj(q) / np.vdot(q, q)
    h = c0 @ samples
    if q.size == 1:
        return c0, h, None, None
    null = np.linalg.qr(np.conj(q)[:, None], mode="complete")[0][:, 1:]
    return c0, h, null, null.T @ samples


def _newton_steps(y, h, grid, cap):
    """At most `cap` damped Newton steps on F = mean|h|, h = h0 + y G.

    In the real coordinates (Re y, Im y) the gradient of F is
    mean Re(conj(n) dh) with n = h / |h|, and its Hessian is
    mean r r^T / |h| with r = Im(conj(n) dh), the part of dh along i n;
    1/|h| is clamped at 1/(1e-12 F).  The steps stop once the squared
    Newton decrement -grad.dx lies in [0, 1e-16 F] (Boyd-Vandenberghe
    9.5.1), before any line search; a negative one marks a singular
    Hessian.  Otherwise the step is the Newton step, halved up to 52 times
    until F decreases (`_backtrack`), which also walks a near-unbounded
    step along a direction where F is linear back to the kink where F
    stops decreasing.  When no halving decreases F the steps have stalled:
    at rounding when the decrement lies in [0, 1e-15 F], the barrier
    path's own resolution; otherwise at a kink of F, where h vanishes on
    T, or on a singular Hessian.  |h| is taken once per iterate, by the
    line search that accepts it.  Returns y, h, |h|, the number of
    accepted steps and whether they settled, at the decrement stop or at
    rounding, rather than stalled elsewhere or ran out of steps.
    """
    free, m = grid.shape
    mod = np.abs(h)
    l1, steps = _mean(mod), 0
    while steps < cap:
        p = _conj_n_dh(h, mod, grid)
        w = 1.0 / np.maximum(mod, _EPS_FLOOR * l1)
        r = np.concatenate((p.imag, p.real))
        grad = np.concatenate((r[free:].mean(axis=1), -r[:free].mean(axis=1)))
        try:
            dx = np.linalg.solve((r * w) @ r.T / m, -grad)
        except np.linalg.LinAlgError:   # F is linear along some direction
            return y, h, mod, steps, False
        decrement = -float(grad @ dx)
        if 0.0 <= decrement <= _DECREMENT * l1:
            return y, h, mod, steps, True
        step = _backtrack(h, dx[:free] + 1j * dx[free:], grid, _mean, l1)
        if step is None:        # a stall: at rounding, or at a kink of F
            return y, h, mod, steps, 0.0 <= decrement <= _BARRIER_END * l1
        dy, h, mod, l1 = step
        y, steps = y + dy, steps + 1
    return y, h, mod, steps, False


def _mean(values):
    return float(np.mean(values))


def _barrier_mean(mod, mu):
    rho = np.sqrt(mod**2 + mu**2)
    return float(np.mean(rho - mu * np.log(mu + rho)))


def _conj_n_dh(h, mod, grid):
    """conj(n) dh for each row dh of `grid`, n = h / |h|, mod = |h|."""
    return (np.conj(h) / np.where(mod > 0.0, mod, 1.0)) * grid


def _backtrack(h, newton, grid, objective, level):
    """The first h + 2^-k move, k <= 52, move = newton @ grid formed once,
    whose objective, a function of its modulus, is below `level`:
    (2^-k newton, trial h, its modulus, its objective), or None when no
    halving gets below it."""
    move = newton @ grid
    for k in range(_HALVINGS + 1):
        trial = h + (move if k == 0 else 0.5**k * move)
        mod = np.abs(trial)
        value = objective(mod)
        if value < level:
            return newton * 0.5**k, trial, mod, value
    return None


def _barrier_path(h, mod, y, grid, l1):
    """Continue a stalled `_newton_l1` on the barrier path of the grid
    problem as a second-order cone program, min mean t over t >= |h|.

    With rho = sqrt(|h|^2 + mu^2), psi(|h|) = rho - mu log(mu + rho) is,
    up to a constant and the factor mu, the barrier t / mu - log(t^2 - |h|^2)
    minimized over t (at t = mu + rho), so the minimizer of mean psi has
    mean|h| within 2 mu of min mean|h| (m cones of degree 2,
    Boyd-Vandenberghe 11.2, 11.6).  Unlike |h|, psi has curvature
    mu / (rho (rho + mu)) along n and is smooth at h = 0, so no direction
    is linear and no node is a kink.  For mu = 1e-3 F down to 1e-15 F in
    tenfold steps, damped Newton steps on mean psi (`_backtrack`) centre
    each level until m lambda^2 / mu, the barrier's squared decrement, is
    at most 1, or no halving decreases it.
    Returns y, |h| and the number of accepted steps.
    """
    free, m = grid.shape
    mu, steps = _BARRIER_START * l1, 0
    while steps < _MAX_STEPS - _NEWTON_STEPS:
        p = _conj_n_dh(h, mod, grid)
        rho = np.sqrt(mod**2 + mu**2)
        along = np.concatenate((p.real, -p.imag))       # Re(conj(n) dh)
        across = np.concatenate((p.imag, p.real))       # Im(conj(n) dh)
        grad = (along * (mod / (rho + mu))).mean(axis=1)
        hess = ((across / (rho + mu)) @ across.T
                + (along * (mu / (rho * (rho + mu)))) @ along.T) / m
        dx = np.linalg.solve(hess, -grad)
        step = None
        if -float(grad @ dx) > mu / m:
            step = _backtrack(h, dx[:free] + 1j * dx[free:], grid,
                              lambda t: _barrier_mean(t, mu),
                              _barrier_mean(mod, mu))
        if step is not None:
            dy, h, mod, _ = step
            y, steps = y + dy, steps + 1
        elif mu <= _BARRIER_END * l1:
            break
        else:
            mu /= 10.0
    return y, mod, steps


def dual_distance(phi: Symbol, theta: BlaschkeProduct, grid_m: int = 4096,
                  quad: QuadratureSettings = DEFAULT_QUADRATURE) -> DistanceReport:
    """Compute dist(phi, F_theta) by the dual extremal problem.

    The distance is 1 / min{ ||h||_1 : ∫ phi h = 1 } over the dual space,
    a convex problem solved on `grid_m` nodes by one deterministic run of
    Newton and barrier steps: damped Newton stopped on the Newton
    decrement, then the log-barrier path where Newton stalls at a kink or
    does not stop in 40 steps (`_newton_l1`).  The run starts from at most
    20 Newton steps on every fourth node of the same samples, which never
    take the barrier path (`_coarse_start`); the minimizer is the full
    grid's, to the same decrement tolerance, and `iterations` counts the
    steps of both grids, `coarse_iterations` those of the coarse one.
    Every h yields the lower bound |∫ phi h| / ||h||_1;
    the final value pairs the minimizer exactly with phi
    (`modelspace.subspace_pairing`) and integrates its L1 norm adaptively
    at tol max(quad.tol, 1e-9) rather than trusting the optimization grid.
    A level of that integral whose nodes are bitwise the solve grid's
    strided nodes (as for every power-of-two m up to a power-of-two
    `grid_m`) takes |h| from the minimizer's grid values; every other
    level evaluates h afresh.  Nothing bounds the error of that integral,
    so the value is a lower bound only up to its tolerance.
    """
    if theta.degree < 2:
        empty = np.zeros(0, dtype=complex)
        return DistanceReport(0.0, empty, empty, grid_m, 0, 0, 0, 0)
    dual = dual_basis(theta, quad)
    q = subspace_pairing(phi, dual.basis, dual.coeffs)
    if float(np.linalg.norm(q)) < 1e-14:
        zero = np.zeros(dual.dimension, dtype=complex)
        return DistanceReport(0.0, zero, q, grid_m, 0, 0, 0, 0)

    grid_nodes = unit_nodes(grid_m)
    samples = dual.sample(grid_nodes)
    start, coarse_steps = _coarse_start(q, samples)
    best_c, _, steps = _newton_l1(q, samples, start)
    grid_abs = np.abs(best_c @ samples)

    # honest final value: exact pairing, adaptively integrated L1 norm
    h_best = dual.element(best_c)
    relaxed = QuadratureSettings(quad.m_init, quad.m_cap,
                                 max(quad.tol, 1e-9))

    def abs_sample(nodes):
        stride = grid_m // nodes.size
        if (stride * nodes.size == grid_m
                and np.array_equal(nodes, grid_nodes[::stride])):
            return grid_abs[::stride]
        return np.abs(h_best(nodes))

    l1, _ = adaptive_boundary_mean(abs_sample, relaxed)
    l1 = float(np.real(l1))
    value = float(abs(best_c @ q) / l1) if l1 > 0.0 else 0.0
    return DistanceReport(value, best_c, q, grid_m, 1, 0,
                          coarse_steps + steps, coarse_steps)


@dataclass(frozen=True)
class GapReport:
    """Hankel norm vs. dual distance for the squared inner function."""

    hankel_norm: float
    dual: DistanceReport
    ratio: float | None         # dual / hankel, empirical constant candidate

    @property
    def dual_value(self) -> float:
        return self.dual.value


def nehari_gap(phi: Symbol, theta: BlaschkeProduct, multistart: int = 64,
               seed: int = 20250815, grid_m: int = 4096,
               quad: QuadratureSettings = DEFAULT_QUADRATURE,
               slack: float = 1e-6) -> GapReport:
    """Check ||Gamma_phi|| <= dist(phi, F_{theta^2}) and report the ratio.

    The dual distance is the global optimum of a convex problem, so the
    inequality holds up to quadrature and solver tolerance; a violation
    beyond the slack is a genuine bug, hence an exception.  `multistart`
    and `seed` are accepted for compatibility and ignored.
    """
    basis = build_basis(theta, quad)
    norm = hankel_matrix(phi, basis).norm()
    report = dual_distance(phi, theta.square(), grid_m, quad)
    if norm > report.value + slack:
        raise NehariError(
            f"operator norm {norm:.12g} exceeds dual distance estimate "
            f"{report.value:.12g} beyond slack {slack:g}")
    ratio = report.value / norm if norm > slack else None
    return GapReport(norm, report, ratio)


# Lawson weights that move by no more than this (relative, max norm) are
# a fixed point: the next weighted solve would repeat the last one.
_LAWSON_SETTLED = 1e-12


@dataclass(frozen=True)
class MinimaxCertificate:
    """Primal certificate f = f1 + conj(Theta f2) with its grid sup-norm."""

    value: float
    f1: TrigPoly
    f2: TrigPoly
    band: int
    grid_m: int
    iterations: int


def minimax_certificate(phi: Symbol, theta: BlaschkeProduct,
                        band: int | None = None, grid_m: int = 4096,
                        max_iter: int = 200) -> MinimaxCertificate:
    """Near-minimax approximation of phi from F_theta on a grid.

    Lawson's iteratively reweighted least squares drives the weighted L2
    solutions toward the Chebyshev minimizer over the span of z^k and
    conj(theta z^k), 0 <= k <= band.  The loop stops once the normalised
    weights move by at most 1e-12 relative in max norm, since every further
    step would repeat the same solve.  The returned sup-norm is a grid
    sup, hence a (slightly optimistic) upper-bound certificate whose
    resolution is reported.
    """
    if band is None:
        band = theta.degree + 8
        if isinstance(phi, TrigPoly) and phi.coeffs:
            band = max(band, max(abs(k) for k in phi.coeffs) + theta.degree)
    nodes = unit_nodes(grid_m)
    target = np.asarray(phi(nodes), dtype=complex)
    powers = np.empty((band + 1, grid_m), dtype=complex)   # powers[k] = nodes^k
    powers[0] = 1.0
    powers[1:] = nodes
    np.cumprod(powers, axis=0, out=powers)
    columns = [powers[k] for k in range(band + 1)]
    tvals = np.asarray(theta(nodes), dtype=complex)
    columns.extend(np.conj(tvals * powers[k]) for k in range(band + 1))
    a = np.stack(columns, axis=1)

    w = np.full(grid_m, 1.0 / grid_m)
    best_val, best_x = np.inf, np.zeros(a.shape[1], dtype=complex)
    it = 0
    for it in range(1, max_iter + 1):
        sw = np.sqrt(w)[:, None]
        x, *_ = np.linalg.lstsq(a * sw, target * sw.ravel(), rcond=None)
        resid = np.abs(target - a @ x)
        val = float(resid.max())
        if val < best_val - 1e-15:
            best_val, best_x = val, x
        step = w * resid
        total = float(step.sum())
        if total <= 0.0:
            break       # exact fit
        step /= total
        settled = float(np.max(np.abs(step - w))) <= _LAWSON_SETTLED * float(np.max(w))
        w = step
        if settled:
            break
    if not np.isfinite(best_val):
        best_val, best_x = 0.0, np.zeros(a.shape[1], dtype=complex)
    f1 = TrigPoly({k: best_x[k] for k in range(band + 1)
                   if abs(best_x[k]) > 0.0})
    f2 = TrigPoly({k: best_x[band + 1 + k] for k in range(band + 1)
                   if abs(best_x[band + 1 + k]) > 0.0})
    return MinimaxCertificate(best_val, f1, f2, band, grid_m, it)


@dataclass(frozen=True)
class ConvolutionRow:
    r: float
    sup_gap: float              # grid sup of |phi - (f1(rz) + conj(theta f2(rz)))|
    theta_gap: float            # grid sup of |theta(z) - theta(rz)|


def convolution_table(phi: Symbol, theta: BlaschkeProduct, r_list,
                      certificate: MinimaxCertificate | None = None,
                      grid_m: int = 4096):
    """Poisson-smoothed certificates: the sup-norm trend as r -> 1.

    Analytic functions convolve with the Poisson kernel by evaluation at
    rz, so the smoothed competitor is f1(rz) + conj(theta(z) f2(rz));
    its distance to phi decreases toward the minimax value while staying
    an upper bound for the distance to the continuous part of F_theta.
    """
    cert = certificate or minimax_certificate(phi, theta, grid_m=grid_m)
    nodes = unit_nodes(grid_m)
    target = np.asarray(phi(nodes), dtype=complex)
    tvals = np.asarray(theta(nodes), dtype=complex)
    rows = []
    for r in r_list:
        r = float(r)
        if not 0.0 < r < 1.0:
            raise ValueError("convolution radius must lie in (0, 1)")
        smooth = cert.f1(r * nodes) + np.conj(tvals * cert.f2(r * nodes))
        sup_gap = float(np.max(np.abs(target - smooth)))
        theta_gap = float(np.max(np.abs(tvals - theta(r * nodes))))
        rows.append(ConvolutionRow(r, sup_gap, theta_gap))
    return rows
