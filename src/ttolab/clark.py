"""Clark measures, Clark unitaries, and the atomic route to Hankel matrices.

For a degree-d Blaschke product theta and a unimodular anchor alpha, the
level set {theta = alpha} on the circle consists of exactly d points (the
boundary phase increases strictly and winds d times).  They are found
without any grid: the continuous boundary phase and its first two
derivatives have a closed form per zero, its values at O(d) breakpoints
set by the zeros (each zero's angle and three levels of its tails) give
every atom a bracket and a start of its own, and one vectorised Halley
iteration with the safeguards of rtsafe refines all d at once, stopping
each root once the second derivative predicts its remaining error below
two ulp.  The phase is evaluated in blocks of bounded size, so no
evaluation holds a whole (angles x zeros) table.  A root that must
bisect in the tail of a zero's phase splits its bracket geometrically in
the distance from that zero's angle.  The Clark measure places weight
1/|theta'| at each atom; the induced embedding of the model space into
L2 of that measure is unitary.

The level sets at alpha and -alpha come from one pass over 2d targets,
one sort and one evaluation of |theta'|, and every request reads its
atoms from such a pass (`_pass_for`).  The pass is taken once: the
request that solves it parks it on theta, read-only, and the next
request at alpha or -alpha takes it and drops it from theta.  So
`clark_measure` at alpha and then at -alpha, or `clark_pair` and then
`square_clark_measure`, solve theta once; a third request solves anew,
and theta holds at most one unused pass.  A request at alpha served by a
pass solved at -alpha gets atoms equal to its own pass's up to rounding.
The cost falls on a request for one anchor alone, which solves 2d roots
to use d: it takes about as long as before at degree <= 16 and up to
about a third longer at degree 256, while two requests on one theta
take about half as long (the README has the timings).

A measure keeps the dyadic partition of its atoms that Besov profiles
share (`partition`).  Combining the embeddings at alpha and -alpha yields
a unitary Hilbert transform with an explicit Cauchy-type kernel, and a
commutator construction that reproduces truncated Hankel operators from
values of the symbol at the atoms.  This route shares no code with the
builders of the Hankel matrix in `truncops` (boundary quadrature, the
compressed-shift closed form for trigonometric polynomials, or Clark's
exact rule from the eigenvalues of the Clark unitary), and the
cross-route check compares it with the quadrature builder: agreement of
the two pipelines is the strongest end-to-end check in the package.
What the two routes share is the evaluation of the symbol: a combination
of the basis functions on theta's zeros, or its conjugate, is read off
the basis samples each route takes (`modelspace._symbol_from_samples`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .blaschke import BlaschkeProduct
from .harmonic import TWO_PI, Symbol
from .modelspace import ModelSpaceBasis, _frozen, _symbol_from_samples
from .truncops import OperatorMatrix, hankel_by_quadrature


class ClarkError(RuntimeError):
    """Root finding or measure assembly failed."""


@dataclass(frozen=True)
class ClarkMeasure:
    """Atomic measure with unit-circle atoms and positive weights."""

    alpha: complex
    atoms: np.ndarray    # unit-modulus positions, sorted by angle
    weights: np.ndarray  # 1 / |theta'| at each atom
    phase_evaluations: int = 0  # vectorised boundary-phase evaluations behind the atoms
    bisections: int = 0         # moves of that pass that bisected a bracket

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    @cached_property
    def partition(self):
        """The dyadic partition of the atoms (`besov.DyadicPartition`),
        kept for every Besov profile of this measure."""
        from .besov import DyadicPartition   # besov imports this module
        return DyadicPartition(self.atoms)

    def space_tag(self) -> str:
        return f"L2[a={self.alpha.real:.12g}{self.alpha.imag:+.12g}j;n={len(self.atoms)}]"

    def to_dict(self) -> dict:
        return {
            "alpha": {"re": self.alpha.real, "im": self.alpha.imag},
            "atoms": [
                {"xi": {"re": x.real, "im": x.imag}, "w": float(w)}
                for x, w in zip(self.atoms, self.weights)
            ],
        }


_STEP_CAP = 200
_TINY = np.finfo(float).tiny
# breakpoints beta + delta * _LADDER of each zero: its angle and three
# levels of its tails, on the scales where its phase turns
_LADDER = np.array([0.0, -1.0, 1.0, -4.0, 4.0, -16.0, 16.0])
# largest (angles x zeros) block of one phase evaluation: memory stays
# O(_PHASE_BLOCK) per block however many angles and zeros there are
_PHASE_BLOCK = 1 << 16


class _Factors(NamedTuple):
    """Per-zero constants of `_boundary_phase`, for zeros r e^{i beta}."""

    beta: np.ndarray
    below: np.ndarray     # 1 - r
    above: np.ndarray     # 1 + r
    four_r: np.ndarray    # 4 r
    lift: np.ndarray      # (1 - r)(1 + r)
    floor: np.ndarray     # (1 - r)^2
    origin: float         # pi times the number of zeros at the origin


def _factors(zeros) -> _Factors:
    lam = np.asarray(zeros, dtype=complex)
    r = np.abs(lam)
    below, above = 1.0 - r, 1.0 + r
    return _Factors(np.angle(lam), below, above, 4.0 * r, below * above, below * below,
                    np.pi * (lam.size - np.count_nonzero(r)))


def _boundary_phase(factors, t):
    """Continuous boundary phase Phi of the zero factors at the angles t
    (one axis), as whole turns plus a remainder, its derivative |theta'|
    and its second derivative, each of shape t.shape:
    Phi(t) = 2 pi turns + rest.  The angles are taken in blocks of at most
    _PHASE_BLOCK (angles x zeros) terms (`_phase_block`); each angle's sums
    are the same in any block.
    """
    rows = max(1, _PHASE_BLOCK // max(factors.beta.size, 1))
    if t.size <= rows:
        return _phase_block(factors, t)
    blocks = [_phase_block(factors, t[i:i + rows]) for i in range(0, t.size, rows)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _phase_block(factors, t):
    """`_boundary_phase` at the angles t in one broadcast over the zeros.

    With t - beta = v + 2 pi m, v in [0, 2 pi), a zero lam = r e^{i beta}
    contributes 2 pi (m + 1) - 2 atan2((1 - r) cos(v/2), (1 + r) sin(v/2))
    (t alone when r = 0), (1 - r)(1 + r) / den to the derivative and
    -(1 - r)(1 + r) 4 r sin(v/2) cos(v/2) / den^2 to the second, with
    den = (1 - r)^2 + 4 r sin^2(v/2).  Neither form cancels as r -> 1,
    and the atan2 term is O(1 - r) wherever the factor's phase is flat,
    so the remainder keeps its relative precision there instead of the
    absolute rounding of a sum of O(1) angles, which would move a root by
    eps / |theta'|.
    """
    beta, below, above, four_r, lift, floor, origin = factors
    total = np.add.reduce
    half = 0.5 * (t[..., None] - beta)
    m = np.floor(half / np.pi)
    half -= np.pi * m                                           # v / 2
    sin, cos = np.sin(half), np.cos(half)
    turns = total(m, axis=-1) + beta.size
    # at r = 0 the term is pi + t, so each zero at the origin takes pi off
    rest = -2.0 * total(np.arctan2(below * cos, above * sin), axis=-1) - origin
    den = floor + four_r * sin**2
    term = lift / den
    speed = total(term, axis=-1)
    bend = -total(term * four_r * sin * cos / den, axis=-1)
    return turns, rest, speed, bend


def _starts(factors, base, per_turn):
    """Turn counts of the targets, brackets and starting angles for the
    per_turn * d roots, from the `_factors` of the zeros.

    Phi and its speed |theta'| are evaluated once at the sorted breakpoints
    0, 2 pi, beta and beta -+ (1 - r), beta -+ 4 (1 - r) and
    beta -+ 16 (1 - r) of every zero r e^{i beta}, which resolve the scale
    on which the phase turns near each zero and three levels of its tails.
    The ladder is capped: a longer one costs more in this evaluation, O(d)
    rows of d terms, than it saves in Halley steps.  Each
    target base + 2 pi j in [Phi(0), Phi(0) + 2 pi d), with j a multiple of
    1 / per_turn, is located among those values, and its root starts at
    the inverse cubic Hermite interpolant of the bracket found: the cubic
    t(Phi) through both ends with slopes 1 / |theta'|, clipped to the
    bracket.  The index is clipped because a target can equal Phi(0) or
    Phi(2 pi) up to rounding.
    """
    beta, delta = np.mod(factors.beta, TWO_PI), factors.below
    ladder = beta[:, None] + delta[:, None] * _LADDER
    cuts = np.unique(np.concatenate([[0.0, TWO_PI], np.mod(ladder.ravel(), TWO_PI)]))
    turns, rest, speed, _ = _boundary_phase(factors, cuts)
    phase = TWO_PI * turns + rest
    # theta = alpha where the zero factors' phase is base mod 2 pi
    j = (np.ceil((phase[0] - base) * per_turn / TWO_PI)
         + np.arange(per_turn * beta.size)) / per_turn
    targets = base + TWO_PI * j
    k = np.minimum(np.maximum(np.searchsorted(phase, targets, side="right"), 1), cuts.size - 1)
    lo, hi = cuts[k - 1], cuts[k]
    rise = np.maximum(phase[k] - phase[k - 1], _TINY)
    u = np.minimum(np.maximum((targets - phase[k - 1]) / rise, 0.0), 1.0)
    t = (lo + (hi - lo) * u * u * (3.0 - 2.0 * u)
         + rise * u * (1.0 - u) * ((1.0 - u) / speed[k - 1] - u / speed[k]))
    return j, lo, hi, np.minimum(np.maximum(t, lo), hi)


def _split(factors, lo, hi):
    """Where brackets [lo, hi] bisect: at the midpoint, or, for a bracket on
    one side of its nearest zero angle beta with the two ends' distances a
    and b from beta more than 4x apart, at beta + sqrt(a b) on that side.
    In the 1/|t - beta| tail of a zero's phase the root's distance from beta
    is then found in O(log log (b / a)) splits instead of O(log (b / a))."""
    ends = np.stack([lo, hi])[..., None] - factors.beta
    ends = np.mod(ends + np.pi, TWO_PI) - np.pi          # offsets in [-pi, pi)
    reach = np.where(factors.below < 1.0, np.min(np.abs(ends), axis=0), np.inf)
    a, b = ends[:, np.arange(lo.size), np.argmin(reach, axis=1)]
    near, far = np.minimum(np.abs(a), np.abs(b)), np.maximum(np.abs(a), np.abs(b))
    split = lo + (np.sign(a) * np.sqrt(near * far) - a)
    geometric = (a * b > 0.0) & (far > 4.0 * near) & (lo < split) & (split < hi)
    return np.where(geometric, split, 0.5 * (lo + hi))


class _LevelSets(NamedTuple):
    """The roots of one pass of `_level_sets`, sorted by angle, in
    read-only arrays."""

    alpha: complex        # the normalised anchor
    angles: np.ndarray    # in [0, 2 pi)
    atoms: np.ndarray     # e^{i angles}
    weights: np.ndarray   # 1 / |theta'| at the atoms
    whole: np.ndarray     # the roots of whole j, at alpha; the others are at -alpha
    evaluations: int      # vectorised evaluations of Phi
    bisections: int       # bisection moves

    def measure(self, anchor: complex, side=slice(None), scale: float = 1.0) -> ClarkMeasure:
        """The Clark measure at anchor on the roots picked by side, with
        the weights times scale, refused when two of the roots coincide."""
        if not np.all(np.diff(self.angles[side]) > 0.0):
            raise ClarkError("atoms collide: zeros too close to the circle for double precision")
        return ClarkMeasure(anchor, self.atoms[side], scale * self.weights[side],
                            self.evaluations, self.bisections)


def _anchor(alpha: complex) -> complex:
    """alpha divided by its modulus, refused unless that is 1 to 1e-9."""
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-9:
        raise ClarkError("anchor must be unimodular")
    return alpha / abs(alpha)


def _level_sets(theta: BlaschkeProduct, alpha: complex, per_turn: int) -> _LevelSets:
    """Angles t where the boundary phase Phi(t) of theta meets
    arg(alpha) - arg(gamma) + 2 pi j, for the per_turn * d values of j in
    steps of 1 / per_turn, in the order of j: per_turn = 1 gives the level
    set {theta = alpha}, per_turn = 2 that of theta = +-alpha, with whole
    j at alpha and half-integer j at -alpha, as a `_LevelSets` sorted by
    angle.

    Each root starts inside its own bracket (`_starts`), and all are
    refined at once, under a mask of the unsettled roots, by the
    safeguarded Halley rule described in `clark_measure`.  Half-integer j
    keep the residual exact: 2 pi (turns - j) is one rounding of an odd
    multiple of pi.
    """
    d = theta.degree
    if d == 0:
        raise ClarkError("constant products carry no Clark measure")
    alpha = _anchor(alpha)

    factors = _factors(theta.zeros)
    base = float(np.angle(alpha) - np.angle(theta.gamma))
    j, lo, hi, t = _starts(factors, base, per_turn)
    count = t.size
    last = np.full(count, np.inf)   # |residual| one step earlier
    active = np.ones(count, dtype=bool)
    tiny = 2.0 * np.spacing(TWO_PI)
    noise = 8.0 * np.spacing(TWO_PI * d)   # rounding floor of Phi
    evaluations, bisections = 1, 0
    # a settled root's angle is frozen, so its bracket and last residual
    # may change freely: only the moves of t and the count need the mask
    for _ in range(_STEP_CAP):
        if not active.any():
            break
        turns, rest, speed, bend = _boundary_phase(factors, t)
        evaluations += 1
        # whole turns cancel exactly, so err keeps the precision of rest
        err = (TWO_PI * (turns - j) - base) + rest
        size = np.abs(err)
        newton = err / speed
        # Halley's step, unless it would be more than twice Newton's
        shrink = 1.0 - 0.5 * newton * bend / speed
        step = np.where(shrink >= 0.5, newton / shrink, newton)
        trial = t - step
        np.copyto(lo, t, where=err < 0.0)
        np.copyto(hi, t, where=err > 0.0)
        inside = (lo < trial) & (trial < hi)
        move = np.abs(trial - t)
        # a step within tiny is converged even where it lands on the
        # bracket's end; so is one inside the bracket from a residual at
        # the rounding floor, which no further step can reduce, or one
        # whose predicted remaining error |Phi''/Phi'| step^2 is within tiny
        settled = (move <= tiny) | (inside & ((size <= noise)
                                             | (np.abs(bend / speed) * step**2 <= tiny)))
        bisect = active & ~settled & (~inside | (size > 0.5 * last))
        moved = np.count_nonzero(bisect)
        if moved:
            bisections += moved
            trial[bisect] = _split(factors, lo[bisect], hi[bisect])
            move = np.abs(trial - t)
        last = size
        np.copyto(t, trial, where=active)
        active &= ~settled & (move > tiny)
    if active.any():
        raise ClarkError(f"boundary phase solve did not settle {np.count_nonzero(active)} "
                         f"of {count} roots in {_STEP_CAP} steps")
    angles = np.mod(t, TWO_PI)
    order = np.argsort(angles)
    angles = angles[order]
    atoms = np.exp(1j * angles)
    weights = 1.0 / theta.boundary_derivative_modulus(atoms)
    j = j[order]
    return _LevelSets(alpha, *map(_frozen, (angles, atoms, weights, j == np.floor(j))),
                      evaluations, bisections)


# the attribute of theta where a pass waits for the request at the other anchor
_PARKED = "_clark_parked_pass"


def _pass_for(theta: BlaschkeProduct, alpha: complex):
    """The pass of theta = +-alpha that serves a request at alpha, the
    normalised alpha and the mask of the pass's roots at alpha.

    Take-once: a pass parked on theta at alpha or -alpha is taken, and
    dropped from theta; otherwise one is solved at alpha and parked for
    the next request.  So each pass serves at most two requests, theta
    holds at most one unused pass, and a theta kept across many requests
    still solves one pass per two of them.
    """
    anchor = _anchor(alpha)
    roots = vars(theta).pop(_PARKED, None)
    if roots is None or anchor not in (roots.alpha, -roots.alpha):
        roots = vars(theta)[_PARKED] = _level_sets(theta, alpha, 2)
    return roots, anchor, roots.whole if anchor == roots.alpha else ~roots.whole


def clark_measure(theta: BlaschkeProduct, alpha: complex) -> ClarkMeasure:
    """Solve theta(xi) = alpha on the circle and attach weights 1/|theta'|.

    The continuous boundary phase Phi(t) of theta increases strictly by
    2 pi d over [0, 2 pi], so the level set consists of the d solutions of
    Phi(t) = arg(alpha) - arg(gamma) + 2 pi j in that interval.  Each root
    starts inside its own bracket, found from Phi at O(d) breakpoints set
    by the zeros (`_starts`), and all d are refined at once by Halley's
    method on Phi, whose derivative is |theta'| > 0 and whose second
    derivative comes from the same closed form (`_boundary_phase`), with
    the safeguards of rtsafe (Numerical Recipes 9.4).  Where Halley's step
    would be more than twice the Newton step, the Newton step is taken.
    A root is settled as soon as its step is within two ulp of 2 pi,
    tested before the bracket, so that a converged step landing on the
    bracket's end is not mistaken for an escape.  A step inside the
    bracket settles it too, from a residual at the rounding floor of Phi
    (8 ulp of 2 pi d) or with a predicted remaining error |Phi''/Phi'|
    step^2 within two ulp of 2 pi, which saves the pass that would only
    confirm convergence.  Otherwise the root bisects its bracket when the
    step leaves it or the residual has not halved since the previous
    step, and is settled once the bracket has shrunk to two ulp.  The
    split is the midpoint, or, for a bracket on one side of its nearest
    zero angle whose ends lie more than 4x apart in distance from it, the
    geometric mean of those distances (`_split`), so that a root in the
    1/|t - beta| tail of a zero near T is not bisected linearly across
    many decades.  Phi is evaluated in blocks of at most _PHASE_BLOCK
    (angles x zeros) terms, however close the zeros lie to T;
    `phase_evaluations` counts the vectorised evaluations of Phi and
    `bisections` the bisection moves.

    The roots are the whole-j roots of the pass of theta = +-alpha, or
    the half-j roots of one solved at -alpha and parked by the request
    before (`_pass_for`), so the counts are those of that pass.
    """
    roots, alpha, side = _pass_for(theta, alpha)
    return roots.measure(alpha, side)


def clark_pair(theta: BlaschkeProduct, alpha: complex) -> tuple[ClarkMeasure, ClarkMeasure]:
    """The Clark measures of theta at alpha and at -alpha, from one
    vectorised pass over the 2d targets Phi = base + pi k (even k at
    alpha, odd k at -alpha), one sort of their angles and one evaluation
    of |theta'|, or from the pass the request before parked on theta
    (`_pass_for`).  Both carry the phase evaluations and the bisections
    of that pass."""
    roots, alpha, side = _pass_for(theta, alpha)
    return roots.measure(alpha, side), roots.measure(-alpha, ~side)


def expected_mass(theta: BlaschkeProduct, alpha: complex) -> float:
    """Total mass from the Herglotz transform at the origin."""
    t0 = complex(theta(0.0))
    return float(np.real((alpha + t0) / (alpha - t0)))


def poisson_identity_defect(measure: ClarkMeasure, theta: BlaschkeProduct,
                            points) -> float:
    """Largest residual of the defining Poisson identity at interior points:
    Re[(alpha + theta(z)) / (alpha - theta(z))] = sum_j w_j P_z(xi_j)."""
    points = np.asarray(points, dtype=complex).ravel()
    herglotz = np.real((measure.alpha + theta(points)) / (measure.alpha - theta(points)))
    kern = (1.0 - np.abs(points)[:, None] ** 2) / \
        np.abs(1.0 - np.conj(measure.atoms)[None, :] * points[:, None]) ** 2
    atomic = kern @ measure.weights
    return float(np.max(np.abs(herglotz - atomic)))


def square_clark_measure(theta: BlaschkeProduct, alpha: complex) -> ClarkMeasure:
    """Clark measure of theta^2 at alpha^2: its atoms are those of theta at
    alpha and -alpha, taken sorted from the one pass that solves both
    (`_pass_for`: that of a `clark_pair` just before, if there was one),
    with weights 1/|(theta^2)'| = 1/(2 |theta'|).  Like `clark_measure` it
    is refused only when two atoms coincide in double precision."""
    return _pass_for(theta, alpha)[0].measure(complex(alpha) ** 2, scale=0.5)


# ---------------------------------------------------------------------------
# Unitaries between the model space and the atomic L2 spaces
# ---------------------------------------------------------------------------


@dataclass
class ClarkUnitary:
    """Coordinate unitary of the model space onto L2 of a Clark measure.

    Row j of the matrix is sqrt(w_j) times the basis sampled at atom j,
    i.e. coordinates are boundary traces scaled to make the atomic space
    a standard l2.
    """

    matrix: OperatorMatrix
    measure: ClarkMeasure

    def unitarity_defect(self) -> float:
        v = self.matrix.entries
        eye = np.eye(v.shape[1])
        return float(np.max(np.abs(v.conj().T @ v - eye)))


def clark_unitary(basis: ModelSpaceBasis, measure: ClarkMeasure) -> ClarkUnitary:
    return _embedding(basis, measure, basis.sample(measure.atoms))


def _embedding(basis: ModelSpaceBasis, measure: ClarkMeasure, samples) -> ClarkUnitary:
    """`clark_unitary` from the basis sampled at the atoms, (d, n_atoms)."""
    entries = np.sqrt(measure.weights)[:, None] * samples.T
    op = OperatorMatrix(entries, basis.space_tag(), measure.space_tag(),
                        "clark-embedding")
    return ClarkUnitary(op, measure)


def conjugate_clark_unitary(basis: ModelSpaceBasis, measure: ClarkMeasure) -> ClarkUnitary:
    """Embedding of the Hankel codomain conj(z * K) into L2 of a measure.

    The basis vector conj(z e_k) restricts to the trace
    zeta -> conj(zeta e_k(zeta)); rows carry the usual sqrt-weight.
    """
    return _conjugate_embedding(basis, measure, basis.sample(measure.atoms))


def _conjugate_embedding(basis: ModelSpaceBasis, measure: ClarkMeasure,
                         samples) -> ClarkUnitary:
    """`conjugate_clark_unitary` from the basis sampled at the atoms."""
    traces = np.conj(measure.atoms[None, :] * samples)
    entries = np.sqrt(measure.weights)[:, None] * traces.T
    op = OperatorMatrix(entries, basis.conjugate_space_tag(), measure.space_tag(),
                        "clark-embedding-conjugate")
    return ClarkUnitary(op, measure)


def clark_reconstruct(measure: ClarkMeasure, theta: BlaschkeProduct,
                      atom_values, z):
    """Interior values of the model-space function with the given boundary
    traces on the atoms:
    F(z) = sum_j w_j f(xi_j) (1 - conj(alpha) theta(z)) / (1 - conj(xi_j) z)."""
    z = np.asarray(z, dtype=complex)
    vals = np.asarray(atom_values, dtype=complex)
    front = 1.0 - np.conj(measure.alpha) * theta(z)
    cauchy = 1.0 / (1.0 - np.conj(measure.atoms) * z[..., None])
    return front * (cauchy @ (measure.weights * vals))


def hilbert_transform_matrix(plus: ClarkMeasure, minus: ClarkMeasure) -> OperatorMatrix:
    """Unitary Hilbert transform between the two atomic spaces, from its
    closed-form kernel: entry (j, k) = 2 sqrt(w_k^+ w_j^-) / (1 - conj(xi_k) zeta_j).

    Equals the composition (embedding at -alpha) o (embedding at alpha)^{-1};
    the factor 2 reflects that 1 - conj(-alpha) alpha = 2 on the level set.
    """
    denom = 1.0 - np.conj(plus.atoms)[None, :] * minus.atoms[:, None]
    entries = 2.0 * np.sqrt(np.outer(minus.weights, plus.weights)) / denom
    return OperatorMatrix(entries, plus.space_tag(), minus.space_tag(),
                          "hilbert:kernel")


def hilbert_route_defect(basis: ModelSpaceBasis, plus: ClarkMeasure,
                         minus: ClarkMeasure) -> float:
    """Max entry difference between the kernel form of the Hilbert
    transform and the unitary composition route."""
    kernel = hilbert_transform_matrix(plus, minus)
    vp = clark_unitary(basis, plus).matrix
    vm = clark_unitary(basis, minus).matrix
    composed = vm @ vp.adjoint()  # adjoint = inverse for a unitary
    return float(np.max(np.abs(kernel.entries - composed.entries)))


def commutator_matrix(phi: Symbol, plus: ClarkMeasure,
                      minus: ClarkMeasure) -> OperatorMatrix:
    """Commutator-type operator with the difference-quotient kernel:
    entry (j, k) = sqrt(w_k^+ w_j^-) (phi(zeta_j) - phi(xi_k)) / (1 - conj(xi_k) zeta_j).

    Only atom values of phi enter.  The same matrix equals half of
    diag(phi(zeta)) H - H diag(phi(xi)) with H the unitary Hilbert
    transform; the kernel differences output-side values minus
    input-side values, the orientation that matches the Hankel operator
    exactly (not merely up to phase).
    """
    return _commutator(*_atom_values(phi, plus, minus), plus, minus)


def _atom_values(phi: Symbol, plus: ClarkMeasure, minus: ClarkMeasure):
    """phi at the atoms of plus and at those of minus, from one evaluation."""
    values = np.asarray(phi(np.concatenate([plus.atoms, minus.atoms])), dtype=complex)
    return values[:plus.atoms.size], values[plus.atoms.size:]


def _commutator(pv, mv, plus: ClarkMeasure, minus: ClarkMeasure) -> OperatorMatrix:
    """`commutator_matrix` from the values pv, mv of phi at the atoms."""
    denom = 1.0 - np.conj(plus.atoms)[None, :] * minus.atoms[:, None]
    diff = mv[:, None] - pv[None, :]
    entries = np.sqrt(np.outer(minus.weights, plus.weights)) * diff / denom
    return OperatorMatrix(entries, plus.space_tag(), minus.space_tag(),
                          "commutator:kernel")


def commutator_route_defect(phi: Symbol, plus: ClarkMeasure,
                            minus: ClarkMeasure) -> float:
    """Check the kernel form against the multiplication-operator route
    (diag(phi) H - H diag(phi)) / 2."""
    pv, mv = _atom_values(phi, plus, minus)
    kernel = _commutator(pv, mv, plus, minus)
    h = hilbert_transform_matrix(plus, minus).entries
    composed = 0.5 * (mv[:, None] * h - h * pv[None, :])
    return float(np.max(np.abs(kernel.entries - composed)))


# ---------------------------------------------------------------------------
# Cross-route equivalence with the boundary-quadrature Hankel matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Comparison of the quadrature and atomic constructions of a truncated
    Hankel operator."""

    deviation: float        # operator-norm gap after unitary alignment
    singular_gap: float     # max difference of sorted singular values
    embedding_defect: float  # worst unitarity defect among the three unitaries
    hankel: OperatorMatrix
    clark_route: OperatorMatrix


def cross_route_equivalence(phi: Symbol, basis: ModelSpaceBasis,
                            alpha: complex) -> EquivalenceReport:
    """Build the truncated Hankel operator twice and compare.

    Route one integrates phi against basis products over the circle, at
    the basis's quadrature settings.
    Route two never integrates: it samples phi at the level sets
    {theta = alpha} and {theta = -alpha}, forms the commutator-type
    kernel there, and conjugates back with the Clark embeddings.  For
    symbols whose conjugate lies in the squared model space the two
    matrices must agree entrywise.
    """
    theta = basis.theta
    gamma = hankel_by_quadrature(phi, basis)

    plus, minus = clark_pair(theta, alpha)
    # the basis at both atom sets in one sampling, which also gives phi
    # there when phi can be read off the basis's samples
    atoms = np.concatenate([plus.atoms, minus.atoms])
    samples = basis.sample(atoms)
    n = plus.atoms.size
    embed = _embedding(basis, plus, samples[:, :n])
    embed_conj = _conjugate_embedding(basis, minus, samples[:, n:])
    read = _symbol_from_samples(phi, theta.zeros)
    if read is None:
        core = commutator_matrix(phi, plus, minus)
    else:
        values = read(samples, atoms)
        core = _commutator(values[:n], values[n:], plus, minus)
    clark_route = embed_conj.matrix.adjoint() @ core @ embed.matrix

    deviation = float(np.linalg.norm(gamma.entries - clark_route.entries, 2))
    sv_gap = float(np.max(np.abs(gamma.singular_values() - core.singular_values())))
    defect = max(embed.unitarity_defect(), embed_conj.unitarity_defect())
    return EquivalenceReport(deviation, sv_gap, defect, gamma, clark_route)
