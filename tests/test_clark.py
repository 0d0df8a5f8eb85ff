import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttolab import blaschke, clark, harmonic, modelspace
from ttolab.blaschke import BlaschkeProduct
from ttolab.clark import (
    _boundary_phase,
    _factors,
    ClarkError,
    ClarkMeasure,
    clark_measure,
    clark_pair,
    clark_reconstruct,
    clark_unitary,
    commutator_matrix,
    commutator_route_defect,
    conjugate_clark_unitary,
    cross_route_equivalence,
    expected_mass,
    hilbert_route_defect,
    hilbert_transform_matrix,
    poisson_identity_defect,
    square_clark_measure,
)
from ttolab.corpus import (random_blaschke, random_conjugate_square_symbol,
                           random_unimodular)
from ttolab.modelspace import _clark_atoms, build_basis

THETA = BlaschkeProduct([0.3, -0.4j, 0.1 + 0.5j])
ALPHA = np.exp(0.6j)


def test_atoms_solve_level_set():
    mu = clark_measure(THETA, ALPHA)
    assert len(mu.atoms) == THETA.degree
    assert np.max(np.abs(THETA(mu.atoms) - ALPHA)) < 1e-11
    assert np.allclose(np.abs(mu.atoms), 1.0)


def test_weights_from_derivative():
    mu = clark_measure(THETA, ALPHA)
    expect = 1.0 / THETA.boundary_derivative_modulus(mu.atoms)
    assert np.max(np.abs(mu.weights - expect)) < 1e-12


def test_total_mass():
    mu = clark_measure(THETA, ALPHA)
    assert abs(mu.mass - expected_mass(THETA, ALPHA)) < 1e-12


def test_poisson_identity(interior_points):
    mu = clark_measure(THETA, ALPHA)
    assert poisson_identity_defect(mu, THETA, interior_points) < 1e-10


def test_monomial_atoms_are_roots_of_alpha():
    theta = BlaschkeProduct([0, 0, 0, 0])
    mu = clark_measure(theta, 1.0)
    angles = np.sort(np.mod(np.angle(mu.atoms), 2 * np.pi))
    assert np.allclose(angles, [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)
    assert np.allclose(mu.weights, 0.25)


def test_alpha_must_be_unimodular():
    with pytest.raises((ClarkError, ValueError)):
        clark_measure(THETA, 0.5)


def test_square_measure_matches_squared_product():
    nu = square_clark_measure(THETA, ALPHA)
    direct = clark_measure(THETA.square(), ALPHA**2)
    assert abs(nu.mass - direct.mass) < 1e-12
    a = np.sort(np.mod(np.angle(nu.atoms), 2 * np.pi))
    b = np.sort(np.mod(np.angle(direct.atoms), 2 * np.pi))
    assert np.max(np.abs(a - b)) < 1e-9


def test_embedding_unitary():
    basis = build_basis(THETA)
    mu = clark_measure(THETA, ALPHA)
    v = clark_unitary(basis, mu)
    assert v.unitarity_defect() < 1e-12
    vt = conjugate_clark_unitary(basis, clark_measure(THETA, -ALPHA))
    assert vt.unitarity_defect() < 1e-12


def test_embedding_is_evaluation(rng):
    # V carries coefficients to weighted boundary traces at the atoms
    basis = build_basis(THETA)
    mu = clark_measure(THETA, ALPHA)
    v = clark_unitary(basis, mu)
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    f = basis.combination(coeffs)
    traces = v.matrix.entries @ coeffs
    assert np.max(np.abs(traces / np.sqrt(mu.weights) - f(mu.atoms))) < 1e-9


def test_reconstruction(rng, interior_points):
    basis = build_basis(THETA)
    mu = clark_measure(THETA, ALPHA)
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    f = basis.combination(coeffs)
    rebuilt = clark_reconstruct(mu, THETA, f(mu.atoms), interior_points)
    assert np.max(np.abs(rebuilt - f(interior_points))) < 1e-9


def test_hilbert_kernel_unitary():
    plus = clark_measure(THETA, ALPHA)
    minus = clark_measure(THETA, -ALPHA)
    h = hilbert_transform_matrix(plus, minus).entries
    assert np.max(np.abs(h.conj().T @ h - np.eye(len(plus.atoms)))) < 1e-12


def test_hilbert_transform_intertwines_embeddings():
    basis = build_basis(THETA)
    plus = clark_measure(THETA, ALPHA)
    minus = clark_measure(THETA, -ALPHA)
    assert hilbert_route_defect(basis, plus, minus) < 1e-10


def test_commutator_route_reproduces_hankel(rng):
    plus = clark_measure(THETA, ALPHA)
    minus = clark_measure(THETA, -ALPHA)
    phi = random_conjugate_square_symbol(rng, THETA)
    assert commutator_route_defect(phi, plus, minus) < 1e-10


def test_cross_route_equivalence(rng):
    basis = build_basis(THETA)
    phi = random_conjugate_square_symbol(rng, THETA)
    report = cross_route_equivalence(phi, basis, ALPHA)
    assert report.deviation < 1e-10
    assert report.singular_gap < 1e-10
    assert report.embedding_defect < 1e-12


@pytest.mark.parametrize("zeros", [[0.0, 0.4 + 0.2j, -0.3j],
                                   [0.5j, 0.5j, -0.2, 0.6],
                                   [0.0, 0.0, 0.7 - 0.1j]],
                         ids=["origin", "repeated", "origin-repeated"])
def test_atomic_route_shares_no_code_with_quadrature(monkeypatch, rng, zeros):
    # the atomic Clark route to Gamma must stay independent of the routes it
    # checks: no quadrature and neither the compressed shift nor the Clark
    # unitary's eigenvalues, which the basis and its Clark rule are built from
    theta = BlaschkeProduct(zeros)
    basis = build_basis(theta)
    phi = random_conjugate_square_symbol(rng, theta)
    built = cross_route_equivalence(phi, basis, ALPHA).clark_route.entries

    def refuse(*args, **kwargs):
        raise AssertionError("the atomic route reached a shared code path")

    originals = [harmonic.matrix_integral, harmonic.adaptive_boundary_mean,
                 modelspace.compressed_shift, modelspace._clark_atoms]
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ttolab"]:
        for name, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        build_basis(theta)          # the refusals are live
    plus, minus = clark_pair(theta, ALPHA)
    core = commutator_matrix(phi, plus, minus)
    rebuilt = (conjugate_clark_unitary(basis, minus).matrix.adjoint() @ core
               @ clark_unitary(basis, plus).matrix)
    assert np.array_equal(rebuilt.entries, built)


@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_boundary_family_in_bounded_memory(alpha, interior_points):
    # zeros 1 - 2^-k, k = 1..18: |theta'| reaches 2^19 near the last zero
    theta = BlaschkeProduct([1.0 - 2.0**-k for k in range(1, 19)])
    tracemalloc.start()
    try:
        mu = clark_measure(theta, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert len(mu.atoms) == theta.degree
    assert np.max(np.abs(theta(mu.atoms) - alpha)) < 1e-8
    assert abs(mu.mass - expected_mass(theta, alpha)) < 1e-8
    assert poisson_identity_defect(mu, theta, interior_points) < 1e-8


def test_roots_at_origin_and_rotated_constant():
    theta = BlaschkeProduct([0.0, 0.0, 0.6, -0.3j], gamma=np.exp(2.1j))
    mu = clark_measure(theta, ALPHA)
    assert len(mu.atoms) == theta.degree
    assert np.all(np.diff(np.mod(np.angle(mu.atoms), 2 * np.pi)) > 0)
    assert np.max(np.abs(theta(mu.atoms) - ALPHA)) < 1e-12
    assert abs(mu.mass - expected_mass(theta, ALPHA)) < 1e-12


def test_unresolvable_atoms_fail_loudly():
    # forty zeros 2^-52 from the circle put the level set inside a few ulp of angle
    theta = BlaschkeProduct([(1.0 - 2.0**-52) * 1j] * 40)
    with pytest.raises(ClarkError):
        clark_measure(theta, 1.0)


@pytest.mark.parametrize("n", [34, 36, 40])
def test_square_measure_of_boundary_family(n, interior_points):
    # the half measures of zeros 1 - 2^-k interleave with gaps down to
    # 5.1e-11, 1.3e-11 and 8.0e-13 at n = 34, 36 and 40: distinct in
    # double precision, so the square measure is built
    theta = BlaschkeProduct([1.0 - 2.0**-k for k in range(1, n + 1)])
    square = theta.square()
    nu = square_clark_measure(theta, 1.0)
    assert len(nu.atoms) == square.degree
    assert np.min(np.diff(np.mod(np.angle(nu.atoms), 2 * np.pi))) > 0.0
    want = expected_mass(square, 1.0)
    assert abs(nu.mass - want) <= 1e-15 * want
    assert poisson_identity_defect(nu, square, interior_points) < 1e-12


def test_square_measure_refuses_coincident_atoms():
    # the forty-fold zero 2^-52 from the circle: its half measures meet
    theta = BlaschkeProduct([(1.0 - 2.0**-52) * 1j] * 40)
    with pytest.raises(ClarkError, match="atoms collide"):
        square_clark_measure(theta, 1.0)


def _level_set_residual(theta, alpha, atoms):
    """Largest |theta(xi) - alpha| over the atoms, in units of what double
    precision allows there: |theta'| times the rounding of the angle, plus
    the rounding of each factor, relative eps / |xi - lam|."""
    lam = np.asarray(theta.zeros, dtype=complex)
    factors = np.sum(1.0 / np.abs(atoms[:, None] - lam[None, :]), axis=1)
    scale = 1e-12 + 64 * np.finfo(float).eps * (theta.boundary_derivative_modulus(atoms)
                                                + factors)
    return float(np.max(np.abs(theta(atoms) - alpha) / scale))


def test_cycle_case_settles(interior_points):
    # a level set on which a Newton step one ulp inside the bracket's far
    # end used to cycle until the step cap
    theta = BlaschkeProduct([0.28557893398571066 + 0.5831439136859794j,
                             -0.3332608154277953 + 0.0891665732919383j,
                             0.22052003706517306 + 0.7456582700681309j])
    alpha = -0.9077127337857923 + 0.41959217452560205j
    mu = clark_measure(theta, alpha)
    assert len(mu.atoms) == theta.degree
    assert np.max(np.abs(theta(mu.atoms) - mu.alpha)) < 1e-12
    assert abs(mu.mass - expected_mass(theta, mu.alpha)) < 1e-12
    assert poisson_identity_defect(mu, theta, interior_points) < 1e-12


@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_phase_evaluations_on_boundary_family(alpha):
    # each root starts in its own bracket, so the whole solve takes a
    # handful of vectorised phase evaluations at every degree
    for n in range(2, 33):
        theta = BlaschkeProduct([1.0 - 2.0**-k for k in range(1, n + 1)])
        mu = clark_measure(theta, alpha)
        assert 2 <= mu.phase_evaluations <= 12, n


@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_hermite_starts_on_boundary_family(alpha):
    # each start interpolates t(Phi) with the bracket's slopes 1/|theta'|
    # between breakpoints on the scales of every zero, so one Halley step
    # and one that confirms it settle the whole family
    for n in range(2, 33):
        theta = BlaschkeProduct([1.0 - 2.0**-k for k in range(1, n + 1)])
        assert clark_measure(theta, alpha).phase_evaluations <= 3, n


def test_tail_breakpoints_start_near_the_root():
    # the root of theta = -1 lies in the long tail of the zero's phase,
    # which the breakpoints beta -+ 4 (1 - r) and beta -+ 16 (1 - r) cut
    plus, minus = clark_pair(BlaschkeProduct([0.2205 + 0.8356j]), 1.0)
    assert plus.phase_evaluations <= 3
    assert plus.bisections == 0
    for theta, alpha in _sweep_zero_sets():
        assert clark_pair(theta, alpha)[0].phase_evaluations <= 4


def _clustered_sets(count):
    """Seeded zero sets of 2-12 zeros with 1 - |lam| from 1e-12 to 0.5,
    clustered within 1e-6 to 3 radians of a random angle, each with an
    anchor."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        size = rng.integers(2, 13)
        delta = 10.0 ** rng.uniform(-12.0, np.log10(0.5), size)
        spread = 10.0 ** rng.uniform(-6.0, 0.5)
        angles = rng.uniform(0.0, 2 * np.pi) + spread * rng.uniform(-1.0, 1.0, size)
        yield BlaschkeProduct(list((1.0 - delta) * np.exp(1j * angles))), random_unimodular(rng)


def test_geometric_bisection_on_clustered_sets():
    # a root in the 1/|t - beta| tail of a zero near T bisects in the
    # distance from beta on a geometric scale, not across its decades
    counts = [mu.phase_evaluations for theta, alpha in _clustered_sets(200)
              for mu in (clark_measure(theta, alpha), clark_measure(theta, -alpha))]
    assert np.mean(counts) <= 6.0
    assert max(counts) <= 12


def test_phase_evaluations_default_and_square():
    assert ClarkMeasure(1.0, np.ones(1), np.ones(1)).phase_evaluations == 0
    assert ClarkMeasure(1.0, np.ones(1), np.ones(1)).bisections == 0
    # the square's atoms come from the one pass that solves theta = +-alpha
    theta = BlaschkeProduct(THETA.zeros)
    plus, minus = clark_pair(theta, ALPHA)
    nu = square_clark_measure(theta, ALPHA)
    assert nu.phase_evaluations == plus.phase_evaluations == minus.phase_evaluations
    assert nu.bisections == plus.bisections == minus.bisections


def test_pair_pass_matches_two_solves():
    # against one pass per anchor, each over the d targets of its level set
    for theta, alpha in _sweep_zero_sets():
        singles = [clark._level_sets(theta, anchor, 1) for anchor in (alpha, -alpha)]
        for paired, single in zip(clark_pair(theta, alpha),
                                  [roots.measure(roots.alpha) for roots in singles]):
            assert paired.alpha == single.alpha
            assert np.max(np.abs(paired.atoms - single.atoms)) < 1e-14
            assert np.max(np.abs(paired.weights / single.weights - 1.0)) < 1e-14


def _sweep_zero_sets(augment: bool = True):
    """The sweep's zero sets (modulus <= 0.9, gap >= 0.12), each with a
    constant and an anchor; with augment, the factor z or a repeated zero
    is added to two in three."""
    rng = np.random.default_rng(2027)
    for degree in range(1, 9):
        for case in range(24):
            lam = list(random_blaschke(rng, degree).zeros)
            if augment and case % 3 == 1:
                lam.append(0.0)
            elif augment and case % 3 == 2:
                lam.append(lam[0])
            yield BlaschkeProduct(lam, gamma=random_unimodular(rng)), random_unimodular(rng)


def test_no_bisections_on_boundary_family_and_sweep():
    # every Halley step from a Hermite start stays inside its bracket and
    # at least halves the residual
    for n in range(2, 33):
        theta = BlaschkeProduct([1.0 - 2.0**-k for k in range(1, n + 1)])
        for alpha in (1.0, -1.0):
            assert clark_measure(theta, alpha).bisections == 0, (n, alpha)
        assert clark_pair(theta, 1.0)[0].bisections == 0, n
    for theta, alpha in _sweep_zero_sets(augment=False):
        assert clark_measure(theta, alpha).bisections == 0


def _second_derivative_cases():
    rng = np.random.default_rng(41)
    cases = {}
    for i in range(4):
        cases[f"random{i}"] = list(random_blaschke(rng, 1 + 2 * i, 0.95, 0.0).zeros)
    for exponent in (-2.0, -5.0, -8.0):
        delta = 10.0 ** rng.uniform(exponent, 0.0, 6)
        delta[0] = 10.0**exponent
        cases[f"cluster{exponent:g}"] = list((1.0 - delta)
                                            * np.exp(1j * (2.0 + 0.05 * rng.uniform(-1, 1, 6))))
    cases["origin"] = [0.0, 0.5j, -0.7 + 0.1j]
    cases["repeated"] = [0.9 * np.exp(1.0j)] * 2 + [-0.3]
    return cases


@pytest.mark.parametrize("name, zeros", list(_second_derivative_cases().items()))
def test_second_derivative_matches_difference_of_speed(name, zeros):
    # Phi'' against a central difference of Phi' = |theta'|, with a step set
    # by the distance to the nearest zero, at random angles and at angles
    # on the scale 1 - |lam| past each zero's angle beta.  (Just below beta
    # the half angle is reduced by pi, which rounds it to ulp(pi): too
    # coarse for a difference quotient on the scale 1e-8.)
    factors = _factors(zeros)
    beta, below = factors[0], factors[1]
    rng = np.random.default_rng(len(zeros))
    t = np.concatenate([rng.uniform(0.0, 2 * np.pi, 40),
                        (beta[:, None] + below[:, None] * np.array([0.3, 0.7, 1.5, 4.0])).ravel()])
    lam = np.asarray(zeros, dtype=complex)
    reach = np.min(np.abs(np.exp(1j * t)[:, None] - lam[None, :]), axis=1)
    ahead, behind = t + 1e-4 * reach, t - 1e-4 * reach
    _, _, _, bend = _boundary_phase(factors, t)
    _, _, up, _ = _boundary_phase(factors, ahead)
    _, _, down, _ = _boundary_phase(factors, behind)
    difference = (up - down) / (ahead - behind)
    # the scale: the same sum with every zero's term taken by its size
    size = np.sum(np.abs(np.stack([_boundary_phase(_factors([z]), t)[3] for z in zeros])), axis=0)
    assert np.max(np.abs(bend - difference) / size) <= 1e-6, name


near_boundary_zero = st.tuples(st.floats(-12.0, np.log10(0.5)),   # log10 of 1 - |lam|
                               st.floats(-1.0, 1.0))              # offset in the cluster


@settings(max_examples=150, deadline=None)
@given(zeros=st.lists(near_boundary_zero, min_size=1, max_size=12),
       centre=st.floats(0.0, 2 * np.pi),
       spread=st.floats(-6.0, 0.5),
       origin=st.booleans(),
       repeat=st.booleans(),
       gamma=st.floats(0.0, 2 * np.pi),
       alpha=st.one_of(st.just(None), st.floats(0.0, 2 * np.pi)))
def test_near_boundary_sets_settle(zeros, centre, spread, origin, repeat, gamma, alpha):
    delta = np.array([10.0**e for e, _ in zeros])
    angles = centre + 10.0**spread * np.array([o for _, o in zeros])
    lam = list((1.0 - delta) * np.exp(1j * angles))
    if origin:
        lam.append(0.0)
    if repeat:
        lam.append(lam[0])
    theta = BlaschkeProduct(lam, gamma=np.exp(1j * gamma))
    alpha = 1.0 if alpha is None else np.exp(1j * alpha)
    try:
        mu = clark_measure(theta, alpha)
    except ClarkError as exc:
        # the step cap is never hit; only atoms closer than double
        # precision separates may refuse
        assert "collide" in str(exc)
        return
    assert len(mu.atoms) == theta.degree
    assert _level_set_residual(theta, mu.alpha, mu.atoms) <= 1.0
    # 1 - |lam|^2 carries relative rounding eps / delta into both the
    # weights 1/|theta'| and the Herglotz value at the origin
    want = expected_mass(theta, mu.alpha)
    rel = 1e-12 + 64 * np.finfo(float).eps / delta.min()
    assert abs(mu.mass - want) <= rel * max(1.0, abs(want))
    if alpha == 1.0 and delta.min() >= 1e-3:
        eig = _clark_atoms(theta)
        eig = eig / np.abs(eig)
        assert np.max(np.min(np.abs(mu.atoms[:, None] - eig[None, :]), axis=1)) < 1e-12


@pytest.mark.parametrize("delta, beta, gamma", [(10.0**-2.9375, 0.0, 0.0),
                                                (10.0**-2.8417397826910555, 0.0, 0.0),
                                                (1e-3, 3.0, 2 * np.pi),
                                                (1e-3, 0.25, 0.0)])
def test_atoms_keep_precision_where_the_phase_is_flat(delta, beta, gamma):
    # far from its zero the phase of a factor rises like (1 - |lam|) / 2,
    # so an absolute rounding eps in the phase would move the atom by
    # about 2 eps / (1 - |lam|), 1.6e-12 here; the eigenvalues of the
    # Clark unitary fix the atom to a few ulp
    theta = BlaschkeProduct([(1.0 - delta) * np.exp(1j * beta)], gamma=np.exp(1j * gamma))
    mu = clark_measure(theta, 1.0)
    eig = _clark_atoms(theta)
    assert np.max(np.abs(mu.atoms - eig / np.abs(eig))) < 1e-14


def test_commutator_evaluates_phi_once(rng):
    # phi is evaluated once, on both atom sets together
    plus, minus = clark_pair(THETA, ALPHA)
    phi = random_conjugate_square_symbol(rng, THETA)
    calls = []

    def counted(z):
        calls.append(np.size(z))
        return phi(z)

    separate = np.asarray(phi(minus.atoms))[:, None] - np.asarray(phi(plus.atoms))[None, :]
    entries = commutator_matrix(counted, plus, minus).entries
    assert calls == [2 * THETA.degree]
    denom = 1.0 - np.conj(plus.atoms)[None, :] * minus.atoms[:, None]
    weight = np.sqrt(np.outer(minus.weights, plus.weights))
    assert np.max(np.abs(entries - weight * separate / denom)) < 1e-14
    calls.clear()
    assert commutator_route_defect(counted, plus, minus) < 1e-10
    assert calls == [2 * THETA.degree]


def test_cross_route_samples_the_atoms_once(rng):
    # the Clark route samples the basis once at both atom sets; the
    # quadrature route samples whole node blocks
    basis = build_basis(THETA)
    phi = random_conjugate_square_symbol(rng, THETA)
    sizes = []
    sample = basis.sample
    basis.sample = lambda nodes: sizes.append(np.size(nodes)) or sample(nodes)
    cross_route_equivalence(phi, basis, ALPHA)
    atoms = [n for n in sizes if n < basis.quad.m_init]
    assert atoms == [2 * THETA.degree]


OTHER_ZEROS = (0.2, -0.6j)


def _symbol(kind, rng):
    """A symbol of the cross-route tests, and the zero lists cross_route_equivalence
    on THETA samples at the atom nodes for it."""
    if kind == "trig":
        return harmonic.TrigPoly({-2: 0.5 - 1j, -1: 2.0, 1: 0.25j}), [THETA.zeros]
    if kind == "other-zeros":
        return modelspace.BasisCombination(OTHER_ZEROS, [1.0, 0.5j]).conj(), [THETA.zeros,
                                                                             OTHER_ZEROS]
    zeros = THETA.square().zeros if kind.endswith("square") else THETA.zeros
    c = rng.standard_normal(len(zeros)) + 1j * rng.standard_normal(len(zeros))
    phi = modelspace.BasisCombination(zeros, c)
    return (phi.conj() if kind.startswith("conj") else phi), [THETA.zeros]


@pytest.mark.parametrize("kind", ["conj-square", "square", "conj-theta", "theta", "trig",
                                  "other-zeros"])
def test_cross_route_samples_theta_once_at_the_atoms(monkeypatch, rng, kind):
    # a combination sampled on theta's zeros (of theta or theta^2), or its
    # conjugate, is read off the basis's one sampling at the atoms; any
    # other symbol goes through commutator_matrix; the core is bitwise
    # that of commutator_matrix either way
    basis = build_basis(THETA)
    phi, expected = _symbol(kind, rng)
    plus, minus = clark_pair(BlaschkeProduct(THETA.zeros), ALPHA)
    atoms = np.sort_complex(np.concatenate([plus.atoms, minus.atoms]))
    sampled = []
    sampler = modelspace.tm_samples

    def counted(zeros, nodes):
        if np.array_equal(np.sort_complex(np.ravel(nodes)), atoms):
            sampled.append(tuple(zeros))
        return sampler(zeros, nodes)

    monkeypatch.setattr(modelspace, "tm_samples", counted)
    built = cross_route_equivalence(phi, basis, ALPHA).clark_route.entries
    assert sampled == expected
    monkeypatch.setattr(modelspace, "tm_samples", sampler)
    rebuilt = (conjugate_clark_unitary(basis, minus).matrix.adjoint()
               @ commutator_matrix(phi, plus, minus) @ clark_unitary(basis, plus).matrix)
    assert np.array_equal(rebuilt.entries, built)


def _phase_block_cases():
    rng = np.random.default_rng(1024)
    cases = {}
    for d in (3, 16, 200):
        r = 0.9 * np.sqrt(rng.uniform(size=d))
        cases[f"random-{d}"] = list(r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, d)))
    for n in (16, 32, 40):
        cases[f"boundary-{n}"] = [1.0 - 2.0**-k for k in range(1, n + 1)]
    return cases


@pytest.mark.parametrize("zeros", list(_phase_block_cases().values()),
                         ids=list(_phase_block_cases()))
def test_phase_blocks_do_not_move_the_roots(monkeypatch, zeros):
    # one angle per block or all angles in one: bitwise the same solve
    solves = []
    for block in (1, 1 << 40):
        monkeypatch.setattr(clark, "_PHASE_BLOCK", block)
        solves.append(clark_pair(BlaschkeProduct(zeros), ALPHA))
    for rows, one in zip(*solves):
        assert np.array_equal(rows.atoms, one.atoms)
        assert np.array_equal(rows.weights, one.weights)
        assert rows.phase_evaluations == one.phase_evaluations


def test_phase_blocks_bound_memory_at_large_degree(monkeypatch):
    # 7d + 2 breakpoints by d zeros would take some 400 MB at d = 1024
    rng = np.random.default_rng(7)
    d = 1024
    r = 0.9 * np.sqrt(rng.uniform(size=d))
    theta = BlaschkeProduct(list(r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, d))))
    tracemalloc.start()
    try:
        mu = clark_measure(theta, ALPHA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    monkeypatch.setattr(clark, "_PHASE_BLOCK", 1 << 40)
    one = clark_measure(BlaschkeProduct(theta.zeros), ALPHA)
    assert np.array_equal(mu.atoms, one.atoms)
    assert np.array_equal(mu.weights, one.weights)
    assert mu.phase_evaluations == one.phase_evaluations


def test_speed_blocks_bound_memory_at_large_degree(monkeypatch):
    # the weights 1/|theta'| from one (zeros x atoms) table would take
    # some 33 MB at d = 1024; summed in blocks of atoms, the whole solve
    # stays below half of that, with the weights of one block bit for bit
    rng = np.random.default_rng(7)
    d = 1024
    r = 0.9 * np.sqrt(rng.uniform(size=d))
    theta = BlaschkeProduct(list(r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, d))))
    tracemalloc.start()
    try:
        mu = clark_measure(theta, ALPHA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    monkeypatch.setattr(blaschke, "_SPEED_BLOCK", 1 << 40)
    assert np.array_equal(mu.weights, 1.0 / theta.boundary_derivative_modulus(mu.atoms))


def test_one_pass_serves_two_requests(monkeypatch):
    # the request that solves the pass of theta = +-alpha parks it on
    # theta, the next request at alpha or -alpha takes it, and a taken
    # pass is gone: one pass per two requests, however long theta lives
    anchors = []
    solve = clark._level_sets
    monkeypatch.setattr(clark, "_level_sets",
                        lambda theta, alpha, per_turn: anchors.append(alpha)
                        or solve(theta, alpha, per_turn))
    theta = BlaschkeProduct(THETA.zeros)
    plus, minus = clark_measure(theta, ALPHA), clark_measure(theta, -ALPHA)
    assert anchors == [ALPHA]
    assert clark._PARKED not in vars(theta)
    # the atoms at alpha are bitwise those of a pass at alpha alone; those
    # at -alpha, targets base + pi (2k + 1), agree to rounding
    singles = [solve(THETA, anchor, 1) for anchor in (ALPHA, -ALPHA)]
    assert np.array_equal(plus.atoms, singles[0].atoms)
    for measure, single in zip((plus, minus), singles):
        assert measure.alpha == single.alpha
        assert np.max(np.abs(measure.atoms - single.atoms)) < 1e-14
        assert np.max(np.abs(measure.weights / single.weights - 1.0)) < 1e-14
    again = clark_measure(theta, -ALPHA)       # a third request: a new pass
    assert anchors == [ALPHA, -ALPHA]
    assert np.max(np.abs(again.atoms - minus.atoms)) < 1e-14
    # a request at another anchor drops the unused pass for its own
    clark_measure(theta, 1j * ALPHA)
    assert anchors == [ALPHA, -ALPHA, 1j * ALPHA]
    assert vars(theta)[clark._PARKED].alpha == clark._anchor(1j * ALPHA)

    theta = BlaschkeProduct(THETA.zeros)
    pair = clark_pair(theta, ALPHA)
    nu = square_clark_measure(theta, ALPHA)
    assert len(anchors) == 4
    # the square's atoms are the pair's, from the same pass
    assert set(nu.atoms) == set(pair[0].atoms) | set(pair[1].atoms)
    square_clark_measure(theta, ALPHA)
    assert len(anchors) == 5


def test_parked_pass_is_read_only():
    theta = BlaschkeProduct(THETA.zeros)
    clark_measure(theta, ALPHA)
    parked = vars(theta)[clark._PARKED]
    for array in (parked.angles, parked.atoms, parked.weights, parked.whole):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
