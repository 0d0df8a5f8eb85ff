import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttolab.blaschke import BlaschkeProduct
from ttolab.config import RunConfig
from ttolab.corpus import (random_blaschke, random_trig_poly,
                           random_zero_hankel_symbol, spawn_rngs)
from ttolab import nehari
from ttolab.harmonic import (QuadratureSettings, TrigPoly, adaptive_boundary_mean,
                             boundary_mean, inner_product, unit_nodes)
from ttolab.modelspace import (BasisCombination, subspace_pairing,
                               subspace_pairing_by_quadrature)
from ttolab.nehari import (
    NehariError,
    _newton_l1,
    convolution_table,
    dual_basis,
    dual_distance,
    minimax_certificate,
    nehari_gap,
)


def test_dual_basis_spans_vanishing_part():
    # for theta = z^4 the trial space is span{z, z^2, z^3}
    dual = dual_basis(BlaschkeProduct([0, 0, 0, 0]))
    assert dual.coeffs.shape == (4, 3)
    for j in range(3):
        h = dual.element(np.eye(3)[j])
        assert abs(boundary_mean(h)) < 1e-12          # vanishes at the origin
        assert abs(inner_product(h, h) - 1.0) < 1e-10


def test_unit_distance_for_conjugate_monomial():
    # dist(zbar, analytic + conj(z^2 H^2)) = 1, attained by h = z
    report = dual_distance(TrigPoly({-1: 1.0}), BlaschkeProduct([0, 0]),
                           grid_m=1024)
    assert abs(report.value - 1.0) < 1e-8


def test_distance_vanishes_inside_the_space():
    # phi = z^3 already lies in the competitor class
    report = dual_distance(TrigPoly({3: 1.0}), BlaschkeProduct([0, 0]),
                           grid_m=1024)
    assert report.value < 1e-10


def test_degenerate_degree_one_dual_space():
    # K_{z} has no member vanishing at 0 except 0; distance collapses
    report = dual_distance(TrigPoly({-1: 1.0}), BlaschkeProduct([0]))
    assert report.value == 0.0


def test_gap_triple_for_shift_symbol():
    gap = nehari_gap(TrigPoly({-1: 1.0}), BlaschkeProduct([0]),
                     multistart=8, grid_m=1024)
    assert abs(gap.hankel_norm - 1.0) < 1e-12
    assert abs(gap.dual.value - 1.0) < 1e-8
    assert abs(gap.ratio - 1.0) < 1e-8


def test_gap_lower_bound_holds(rng):
    theta = BlaschkeProduct([0.3, -0.5j])
    phi = TrigPoly({-3: 1.0, -1: 0.5j, 2: 1.0})
    gap = nehari_gap(phi, theta, multistart=12, grid_m=2048)
    assert gap.hankel_norm <= gap.dual.value + 1e-6
    assert gap.ratio >= 1.0 - 1e-6


def test_gap_zero_hankel_symbol(rng):
    theta = BlaschkeProduct([0.4])
    phi = random_zero_hankel_symbol(rng, theta)
    gap = nehari_gap(phi, theta, multistart=8, grid_m=1024)
    assert gap.hankel_norm < 1e-10
    assert gap.ratio is None


def test_minimax_certificate_bounds_distance():
    # primal upper bound must dominate the dual lower bound
    phi = TrigPoly({-1: 1.0})
    theta2 = BlaschkeProduct([0, 0])
    cert = minimax_certificate(phi, theta2, grid_m=2048)
    dual = dual_distance(phi, theta2, grid_m=1024)
    assert cert.value >= dual.value - 1e-6
    assert abs(cert.value - 1.0) < 0.02   # certified near-optimal here


def test_certificate_stops_when_the_weights_settle():
    # conj(z) on z^2: the residual has constant modulus, so the Lawson
    # weights are a fixed point after one solve and the value is exact
    settled = minimax_certificate(TrigPoly({-1: 1.0}), BlaschkeProduct([0, 0]))
    assert settled.iterations <= 2
    assert abs(settled.value - 1.0) < 1e-12
    # weights that keep moving run every step
    moving = minimax_certificate(TrigPoly({-1: 1.0, -2: 0.5}),
                                 BlaschkeProduct([0.5, -0.3j]), max_iter=50)
    assert moving.iterations == 50


def test_certificate_exact_when_phi_in_class():
    phi = TrigPoly({1: 2.0, 0: -1.0})
    cert = minimax_certificate(phi, BlaschkeProduct([0, 0]), grid_m=1024)
    assert cert.value < 1e-10


def test_convolution_table_trend():
    phi = TrigPoly({-1: 1.0})
    theta2 = BlaschkeProduct([0, 0])
    cert = minimax_certificate(phi, theta2, grid_m=2048)
    rows = convolution_table(phi, theta2, [0.5, 0.9, 0.99, 0.999],
                             certificate=cert, grid_m=2048)
    gaps = [row.sup_gap for row in rows]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    # smoothing artifacts vanish as r -> 1
    assert rows[-1].theta_gap < 0.01
    assert gaps[-1] < cert.value * 1.02 + 1e-9


def test_convolution_radius_validated():
    with pytest.raises(ValueError):
        convolution_table(TrigPoly({-1: 1.0}), BlaschkeProduct([0, 0]), [1.5])


def _sweep_instances(count):
    """The leading (theta, phi) pairs of the default `ttolab nehari` sweep."""
    config = RunConfig()
    rngs = spawn_rngs(config.sweep.seed, ["theta", "symbol"])
    out = []
    for _ in range(count):
        degree = int(rngs["theta"].integers(1, config.nehari.max_degree + 1))
        theta = random_blaschke(rngs["theta"], degree,
                                config.sweep.max_zero_modulus,
                                config.sweep.min_zero_gap)
        out.append((theta, random_trig_poly(rngs["symbol"],
                                            config.nehari.max_band)))
    return out


@pytest.mark.parametrize("index", [1, 4])
def test_dual_distance_meets_first_order_condition(index):
    # min mean|h| subject to c.q = 1 is convex: at the minimizer the
    # gradient conj(S) (h/|h|) / m is parallel to conj(q)
    theta, phi = _sweep_instances(index + 1)[index]
    square, grid_m = theta.square(), RunConfig().nehari.grid_m
    report = dual_distance(phi, square, grid_m=grid_m)
    samples = dual_basis(square).sample(unit_nodes(grid_m))
    h = report.coefficients @ samples
    g = samples.conj() @ (h / np.abs(h)) / grid_m
    u = np.conj(report.pairing) / np.linalg.norm(report.pairing)
    assert np.linalg.norm(g - u * np.vdot(u, g)) <= 1e-6 * np.linalg.norm(g)


def test_dual_distance_ignores_seed_and_multistart():
    # nehari_gap keeps both parameters for old callers and ignores them
    theta, phi = _sweep_instances(2)[1]
    a = nehari_gap(phi, theta, 1, 1, grid_m=1024).dual
    b = nehari_gap(phi, theta, 64, 2, grid_m=1024).dual
    for name in a.__dataclass_fields__:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.starts, a.stagnant_starts) == (1, 0)
    assert 0 < a.iterations < 500


def _first_order_residual(report, samples):
    # min mean|h| subject to c.q = 1 is convex: at the minimizer the
    # gradient conj(S) (h/|h|) / m is parallel to conj(q)
    h = report.coefficients @ samples
    g = samples.conj() @ (h / np.abs(h)) / samples.shape[1]
    u = np.conj(report.pairing) / np.linalg.norm(report.pairing)
    return np.linalg.norm(g - u * np.vdot(u, g)) / np.linalg.norm(g)


def test_newton_settles_every_sweep_instance():
    grid_m = RunConfig().nehari.grid_m
    for theta, phi in _sweep_instances(50):
        if theta.degree < 2:
            continue
        square = theta.square()
        report = dual_distance(phi, square, grid_m=grid_m)
        samples = dual_basis(square).sample(unit_nodes(grid_m))
        assert _first_order_residual(report, samples) <= 1e-7
        assert report.iterations <= 40



def test_coarse_start_keeps_the_single_grid_minimum():
    # the Newton steps on every fourth node only choose where the full
    # grid's solve starts: it ends at the single-grid minimum
    grid_m = RunConfig().nehari.grid_m
    for index, (theta, phi) in enumerate(_sweep_instances(50)):
        if theta.degree < 2:
            continue
        square = theta.square()
        report = dual_distance(phi, square, grid_m=grid_m)
        samples = dual_basis(square).sample(unit_nodes(grid_m))
        single = _newton_l1(report.pairing, samples)[1]
        two_stage = float(np.mean(np.abs(report.coefficients @ samples)))
        assert abs(two_stage - single) <= 1e-14 * single, index
        assert _first_order_residual(report, samples) <= 1e-7, index
        assert report.coarse_iterations <= 20, index


@pytest.mark.parametrize("grid_m, coarse_nodes", [(2, 1), (3, 1), (3000, 750)])
def test_coarse_stage_on_small_and_odd_grids(grid_m, coarse_nodes, monkeypatch):
    # a one-node coarse grid has a singular Hessian, which ends the coarse
    # stage at its first step; the full grid's solve still reaches the
    # value of a solve with no coarse stage
    theta, phi = _sweep_instances(3)[2]
    widths, newton_steps = [], nehari._newton_steps
    monkeypatch.setattr(nehari, "_newton_steps", lambda y, h, grid, cap: (
        widths.append(grid.shape[1]) or newton_steps(y, h, grid, cap)))
    two_stage = dual_distance(phi, theta.square(), grid_m=grid_m)
    assert widths == [coarse_nodes, grid_m]
    monkeypatch.setattr(nehari, "_coarse_start", lambda q, samples: (None, 0))
    single = dual_distance(phi, theta.square(), grid_m=grid_m)
    assert abs(two_stage.value - single.value) <= 1e-12 * single.value

def test_step_count_belongs_to_the_instance():
    # column-major samples round the products differently; the decrement
    # stop leaves the count of steps to the instance, not to that rounding;
    # every instance whose counts differ is named with both
    grid_m = RunConfig().nehari.grid_m
    differ = []
    for index, (theta, phi) in enumerate(_sweep_instances(50)):
        if theta.degree < 2:
            continue
        dual = dual_basis(theta.square())
        q = subspace_pairing(phi, dual.basis, dual.coeffs)
        samples = dual.sample(unit_nodes(grid_m))
        fortran = np.asfortranarray(samples)
        rows, columns = _newton_l1(q, samples)[2], _newton_l1(q, fortran)[2]
        if rows != columns:
            differ.append(f"instance {index} (d = {theta.degree}): {rows} steps on "
                          f"row-major samples, {columns} on column-major")
    assert not differ, "; ".join(differ)


@pytest.mark.parametrize("grid_m", [4096, 3000])
def test_l1_levels_served_from_the_solve_grid(grid_m, monkeypatch):
    # levels whose nodes are the solve grid's strided nodes read |h| off
    # the grid (4096); on 3000 nodes no level's nodes are, so every level
    # evaluates h afresh.  Either way the value is the formula with |h|
    # evaluated afresh at every level.
    levels, evaluations = [], []
    evaluate = BasisCombination.eval
    monkeypatch.setattr(BasisCombination, "eval",
                        lambda self, z: evaluations.append(z.size) or evaluate(self, z))
    monkeypatch.setattr(nehari, "adaptive_boundary_mean",
                        lambda sample, quad: adaptive_boundary_mean(
                            lambda nodes: levels.append(nodes.size) or sample(nodes), quad))
    for theta, phi in _sweep_instances(8)[1::3]:
        square = theta.square()
        levels.clear()
        evaluations.clear()
        report = dual_distance(phi, square, grid_m=grid_m)
        served = [m for m in levels if grid_m % m == 0]
        assert sorted(evaluations + served) == sorted(levels)
        assert bool(served) == (grid_m == 4096)
        h = dual_basis(square).element(report.coefficients)
        l1, _ = adaptive_boundary_mean(lambda nodes: np.abs(h(nodes)),
                                       QuadratureSettings(tol=1e-9))
        fresh = abs(report.coefficients @ report.pairing) / float(np.real(l1))
        assert abs(report.value - fresh) <= 1e-15 * fresh


def _irls_l1(q, samples, floor=1e-12, max_steps=500):
    """The earlier production solver, kept as a reference: iteratively
    reweighted least squares with w = 1 / max(|h|, eps), eps shrinking
    tenfold per step to floor * mean|h|, stopped once mean|h| no longer
    decreases at the floor."""
    m = samples.shape[1]
    h = (np.conj(q) / np.vdot(q, q)) @ samples
    l1 = float(np.mean(np.abs(h)))
    eps, floored = l1, False
    for step in range(1, max_steps + 1):
        w = 1.0 / np.maximum(np.abs(h), eps)
        a = (samples * w) @ samples.conj().T / m
        v = np.linalg.solve(a, q)
        c = np.conj(v / np.vdot(q, v))
        h = c @ samples
        prev, l1 = l1, float(np.mean(np.abs(h)))
        if floored and l1 >= prev:
            break
        eps_floor = floor * l1
        floored = eps / 10.0 <= eps_floor
        eps = eps_floor if floored else eps / 10.0
    return c, l1, step


_NEAR_ZERO = st.tuples(st.floats(0.0, 0.995), st.floats(0.0, 2 * np.pi))
_COEFF = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(zeros=st.lists(_NEAR_ZERO, min_size=1, max_size=4),
       band=st.integers(1, 4),
       coeffs=st.lists(_COEFF, min_size=9, max_size=9))
# a stall at a kink of mean|h|, where h vanishes on T: ending the solve
# there leaves it 4.8e-6 above the IRLS minimum; the barrier path goes on
@example(zeros=[(0.9947921878850736, 3.792069669213589),
                (0.22564481150447768, 0.6764583849602578)],
         band=3,
         coeffs=[(0.0, 0.0),
                 (-0.6750066516827622, 0.3922556819476495),
                 (0.6519668553540374, 0.27159517919347054),
                 (0.15956578912381358, 0.5812614525917039),
                 (0.912474842303447, 0.8510443465043669),
                 (0.6175540136586346, -0.13576419100563353),
                 (0.5326680160059158, -0.5323353753625317),
                 (0.808097356313646, -0.4405313916808764),
                 (0.0, 0.0)])
# theta = z^6, phi = (1 + i) zbar^3 / 2: h0 has constant modulus and F is
# linear along a direction, so the Newton Hessian is exactly singular
@example(zeros=[(0.0, 0.0)] * 3, band=3,
         coeffs=[(0.0, 0.0), (0.5, 0.5)] + [(0.0, 0.0)] * 7)
# theta = z^6, phi = (1 + i) zbar^2 + (i / 256) zbar: the Hessian is
# nearly singular and the decrement negative; ending the solve at that
# stall leaves it 1.3e-3 above the IRLS value
@example(zeros=[(0.0, 0.0)] * 3, band=2,
         coeffs=[(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.00390625)]
         + [(0.0, 0.0)] * 5)
def test_newton_reaches_the_irls_minimum(zeros, band, coeffs):
    theta = BlaschkeProduct([r * np.exp(1j * a) for r, a in zeros]).square()
    phi = TrigPoly({k: complex(*coeffs[k + 4]) for k in range(-band, band + 1)})
    dual = dual_basis(theta)
    q = subspace_pairing(phi, dual.basis, dual.coeffs)
    # the closed-form pairing is the quadrature pairing
    scale = max(1.0, float(np.linalg.norm(q)))
    integrated = subspace_pairing_by_quadrature(phi, dual.basis, dual.coeffs)
    assert np.max(np.abs(q - integrated)) <= 1e-12 * scale
    if np.linalg.norm(q) < 1e-14:
        return
    samples = dual.sample(unit_nodes(RunConfig().nehari.grid_m))
    _, newton, steps = _newton_l1(q, samples)
    _, irls, _ = _irls_l1(q, samples)
    assert newton <= (1.0 + 1e-14) * irls
    assert steps < 500


# theta = z^k and phi with no frequency below -k, band <= k
_POWER_AND_BAND = st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(1, k)))


@settings(max_examples=40, deadline=None)
@given(power_band=_POWER_AND_BAND, coeffs=st.lists(_COEFF, min_size=9, max_size=9))
@example(power_band=(3, 3), coeffs=[(0.0, 0.0), (0.5, 0.5)] + [(0.0, 0.0)] * 7)
@example(power_band=(3, 2),
         coeffs=[(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.00390625)]
         + [(0.0, 0.0)] * 5)
def test_newton_meets_the_hankel_norm_oracle(power_band, coeffs):
    # theta = z^k: the truncated Hankel matrix of phi on K_theta is the
    # whole Hankel operator H = [phihat(-1 - i - j)], so dist(phi,
    # F_{theta^2}) = ||H|| and the grid minimum of the dual problem is
    # 1 / ||H||, an oracle that does not depend on a second solver
    k, band = power_band
    phi = TrigPoly({j: complex(*coeffs[j + 4]) for j in range(-band, band + 1)})
    hankel = np.array([[phi.coeffs.get(-1 - i - j, 0.0) for j in range(k)]
                       for i in range(k)])
    norm = np.linalg.norm(hankel, 2)
    dual = dual_basis(BlaschkeProduct([0.0] * k).square())
    q = subspace_pairing(phi, dual.basis, dual.coeffs)
    if np.linalg.norm(q) < 1e-14:
        return
    samples = dual.sample(unit_nodes(RunConfig().nehari.grid_m))
    _, value, _ = _newton_l1(q, samples)
    assert abs(value * norm - 1.0) <= 1e-9


def test_rounding_stall_ends_the_solve(monkeypatch):
    # sweep instance 15 stalls with a squared decrement at rounding level
    # (below 1e-15 F): that ends the solve, without the barrier path
    def refuse(*args):
        raise AssertionError("the barrier path ran")

    monkeypatch.setattr(nehari, "_barrier_path", refuse)
    theta, phi = _sweep_instances(16)[15]
    dual = dual_basis(theta.square())
    q = subspace_pairing(phi, dual.basis, dual.coeffs)
    samples = dual.sample(unit_nodes(RunConfig().nehari.grid_m))
    assert _newton_l1(q, samples)[2] == 4


@pytest.mark.parametrize("degree, c", [(2, 1j / 256), (4, 1j / 256), (4, 1e-6)])
def test_newton_settles_the_degenerate_inputs(degree, c):
    # theta = z^degree, phi = i zbar^2 + c zbar: h0 has nearly constant
    # modulus, mean|h| is linear along h s (s real) up to a kink, and the
    # minimizer nearly vanishes on T; (4, 1e-6) needs the barrier path.
    # The minimum is 1 / ||H||, H = [[c, i], [i, 0]] the Hankel matrix of
    # phi, up to the grid
    theta = BlaschkeProduct([0.0] * degree).square()
    phi = TrigPoly({-2: 1j, -1: c})
    dual = dual_basis(theta)
    q = subspace_pairing(phi, dual.basis, dual.coeffs)
    samples = dual.sample(unit_nodes(RunConfig().nehari.grid_m))
    _, value, steps = _newton_l1(q, samples)
    norm = np.linalg.norm(np.array([[c, 1j], [1j, 0.0]]), 2)
    assert abs(value * norm - 1.0) <= 1e-9
    assert steps < 100
