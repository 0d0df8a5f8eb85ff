"""Command-line front end.

Subcommands fall into three groups: one-shot object dumps (basis,
op-matrix, clark, spectrum), the invariant runner (verify), and the
experiments (essential, lemma1, nehari, besov, conjecture).  Everything
reads an optional JSON config, applies --set overrides, and writes
deterministic JSON/CSV reports into the output directory.

Exit codes: 0 all checks passed, 1 a check failed or a numerical step
refused its input (a basis, Clark or quadrature error, reported in one
line and with no report written), 2 configuration or usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .besov import conjecture_probe, oscillation_report, probe_summary
from .blaschke import BlaschkeProduct
from .clark import ClarkError, clark_measure, clark_unitary, expected_mass, \
    poisson_identity_defect, square_clark_measure
from .config import ConfigError, RunConfig, apply_overrides, load_config
from .corpus import random_blaschke, random_conjugate_square_symbol, \
    random_interior_points, random_trig_poly, spawn_rngs
from .harmonic import QuadratureError, QuadratureSettings, TrigPoly
from .modelspace import ModelSpaceError, build_basis
from .nehari import NehariError, convolution_table, dual_distance, \
    minimax_certificate, nehari_gap
from .reports import canonical_json, csv_table, output_dir, write_text
from .spectra import essential_spectrum_experiment, geometric_zero_generator, \
    spectral_report, test_vector_decay_experiment
from .truncops import hankel_matrix, toeplitz_matrix
from .verify import run_verification, suite_names

PROG = "ttolab"


def parse_theta(spec: str) -> BlaschkeProduct:
    """Inner-function argument: 'z', 'z^3', inline JSON, or a JSON file."""
    spec = spec.strip()
    if spec == "z":
        return BlaschkeProduct([0.0])
    if spec.startswith("z^"):
        try:
            k = int(spec[2:])
        except ValueError:
            raise ConfigError(f"bad monomial spec {spec!r}")
        if k < 1:
            raise ConfigError("monomial degree must be >= 1")
        return BlaschkeProduct([0.0] * k)
    if spec.startswith("{"):
        try:
            return BlaschkeProduct.from_dict(json.loads(spec))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad inner-function JSON: {exc}") from exc
    try:
        with open(spec) as fh:
            return BlaschkeProduct.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot load inner function from {spec!r}: {exc}")


def parse_symbol(spec: str) -> TrigPoly:
    """Symbol argument: 'z', 'zbar', 'z^k', 'zbar^k', '1', or JSON
    {"frequency": coefficient} with coefficient a number or [re, im]."""
    spec = spec.strip()
    named = {"z": {1: 1.0}, "zbar": {-1: 1.0}, "1": {0: 1.0}}
    if spec in named:
        return TrigPoly(named[spec])
    for prefix, sign in (("zbar^", -1), ("z^", 1)):
        if spec.startswith(prefix):
            try:
                k = int(spec[len(prefix):])
            except ValueError:
                raise ConfigError(f"bad symbol spec {spec!r}")
            return TrigPoly({sign * k: 1.0})
    if spec.startswith("{"):
        try:
            raw = json.loads(spec)
            coeffs = {}
            for key, val in raw.items():
                if isinstance(val, (list, tuple)):
                    val = complex(val[0], val[1])
                coeffs[int(key)] = complex(val)
            return TrigPoly(coeffs)
        except (json.JSONDecodeError, ValueError, TypeError, IndexError) as exc:
            raise ConfigError(f"bad symbol JSON: {exc}") from exc
    raise ConfigError(f"unrecognized symbol spec {spec!r}")


def parse_alpha(spec: str) -> complex:
    try:
        val = complex(spec.replace("i", "j")) if spec else 1.0
    except ValueError:
        raise ConfigError(f"bad unimodular parameter {spec!r}")
    mod = abs(val)
    if not 1e-12 <= mod < math.inf:
        raise ConfigError(f"unimodular parameter must be nonzero and finite, "
                          f"got {spec!r}")
    return val / mod


def _set_overrides(pairs) -> dict:
    out = {}
    for item in pairs or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            out[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            out[key.strip()] = raw
    return out


def _prepare(args) -> tuple:
    config = load_config(args.config)
    overrides = _set_overrides(getattr(args, "set", None))
    if getattr(args, "seed", None) is not None:
        overrides["sweep.seed"] = args.seed
    config = apply_overrides(config, overrides)
    out = output_dir(getattr(args, "output_dir", None), config.output_dir)
    return config, out


def _emit(args, path, payload: dict):
    text = canonical_json(payload)
    written = write_text(path, text)
    if getattr(args, "print", False):
        sys.stdout.write(text)
    else:
        print(f"wrote {written}")


# ----------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    config, out = _prepare(args)
    only = set(args.only.split(",")) if args.only else None
    if only:
        unknown = only.difference(suite_names())
        if unknown:
            raise ConfigError(f"unknown suites: {', '.join(sorted(unknown))}")
    report = run_verification(config, only)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        # wall time goes to stdout only: verify.json stays byte-identical
        print(f"{status} {r.name:40s} worst={r.worst:.3e} tol={r.tolerance:g} "
              f"checks={r.checks} seconds={r.seconds:.3f}")
    _emit(args, out / "verify.json", report.to_dict())
    return 0 if report.passed else 1


# ------------------------------------------------------- one-shot dumps

def cmd_basis(args) -> int:
    config, out = _prepare(args)
    theta = parse_theta(args.theta)
    basis = build_basis(theta, config.quadrature.settings(),
                        config.tolerances.identity)
    payload = {
        "inner_function": theta.to_dict(),
        "degree": theta.degree,
        "space": basis.space_tag(),
        "gram_defect": basis.gram_defect,
        "gram_rule": "clark-eigen",
    }
    _emit(args, out / "basis.json", payload)
    return 0


def cmd_op_matrix(args) -> int:
    config, out = _prepare(args)
    theta = parse_theta(args.theta)
    phi = parse_symbol(args.symbol)
    basis = build_basis(theta, config.quadrature.settings())
    build = hankel_matrix if args.kind == "hankel" else toeplitz_matrix
    op = build(phi, basis)
    payload = {
        "inner_function": theta.to_dict(),
        "symbol": {str(k): v for k, v in phi.coeffs.items()},
        "kind": args.kind,
        "matrix": op.to_dict(),
        "singular_values": op.singular_values(),
    }
    _emit(args, out / "op-matrix.json", payload)
    return 0


def cmd_clark(args) -> int:
    config, out = _prepare(args)
    theta = parse_theta(args.theta)
    alpha = parse_alpha(args.alpha)
    measure = clark_measure(theta, alpha)
    basis = build_basis(theta, config.quadrature.settings())
    unitary = clark_unitary(basis, measure)
    rng = np.random.default_rng(config.sweep.seed)
    pts = random_interior_points(rng, 50, 0.9)
    payload = {
        "inner_function": theta.to_dict(),
        "measure": measure.to_dict(),
        "mass": measure.mass,
        "expected_mass": expected_mass(theta, alpha),
        "poisson_defect": poisson_identity_defect(measure, theta, pts),
        "unitarity_defect": unitary.unitarity_defect(),
        "phase_evaluations": measure.phase_evaluations,
        "bisections": measure.bisections,
    }
    _emit(args, out / "clark.json", payload)
    return 0


def _p_list(spec: str) -> list:
    """--p-list: comma-separated positive Schatten exponents."""
    try:
        exponents = [float(p) for p in spec.split(",")]
        if all(p > 0 for p in exponents):
            return exponents
    except ValueError:
        pass
    raise ConfigError("--p-list entries must be positive numbers")


def cmd_spectrum(args) -> int:
    config, out = _prepare(args)
    theta = parse_theta(args.theta)
    phi = parse_symbol(args.symbol)
    p_list = _p_list(args.p_list or "1,2")
    quad = config.quadrature.settings()
    basis = build_basis(theta, quad)
    toep = toeplitz_matrix(phi, basis)
    rep = spectral_report(toep, p_list)
    payload = {
        "inner_function": theta.to_dict(),
        "symbol": {str(k): v for k, v in phi.coeffs.items()},
        "eigenvalues": rep.eigenvalues,
        "singular_values": rep.singular_values,
        "schatten": {f"{p:g}": v for p, v in rep.schatten.items()},
        "hankel_singular_values":
            hankel_matrix(phi, basis).singular_values(),
    }
    _emit(args, out / "spectrum.json", payload)
    return 0


# ---------------------------------------------------------- experiments

def cmd_essential(args) -> int:
    config, out = _prepare(args)
    ess = config.essential
    quad = QuadratureSettings(config.quadrature.m_init,
                              config.quadrature.m_cap, ess.quad_tol)
    gen = geometric_zero_generator(ess.ratio)
    phi = TrigPoly({-1: 1.0})
    reports = essential_spectrum_experiment(
        gen, phi, ess.n_list, ess.delta, quad, ess.gram_tol)
    rows = []
    for rep in reports:
        for t, dist in zip(rep.targets, rep.target_distances):
            rows.append((rep.size, t.real, t.imag, dist, len(rep.clusters)))
    worst = [rep.worst_target_distance for rep in reports]
    decreasing = all(b <= a + 1e-12 for a, b in zip(worst, worst[1:]))
    passed = bool(worst and worst[-1] < ess.delta and decreasing)
    payload = {
        "seed": config.sweep.seed,
        "n_list": ess.n_list,
        "delta": ess.delta,
        "worst_distance": worst,
        "decreasing": decreasing,
        "passed": passed,
        "eigenvalues": {str(rep.size): rep.eigenvalues for rep in reports},
    }
    write_text(out / "essential.csv", csv_table(
        ("n", "target_re", "target_im", "nearest_eig_distance", "clusters"),
        rows))
    _emit(args, out / "essential.json", payload)
    print(f"essential: final distance {worst[-1]:.6f} "
          f"(delta {ess.delta:g}) -> {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_lemma1(args) -> int:
    config, out = _prepare(args)
    dec = config.decay
    quad = QuadratureSettings(config.quadrature.m_init,
                              config.quadrature.m_cap, dec.quad_tol)
    gen = geometric_zero_generator(dec.ratio)
    rows = test_vector_decay_experiment(gen, TrigPoly({-1: 1.0}), None, 1.0,
                                        dec.n_max, quad, dec.gram_tol)
    table = [(r.n, r.lam.real, r.lam.imag, r.estimate.ratio,
              r.estimate.poisson_bound, r.estimate.multiplier_bound,
              r.combined_bound) for r in rows]
    passed = bool(rows) and rows[-1].estimate.ratio < dec.threshold
    payload = {
        "seed": config.sweep.seed,
        "threshold": dec.threshold,
        "final_ratio": rows[-1].estimate.ratio if rows else None,
        "passed": passed,
    }
    write_text(out / "lemma1.csv", csv_table(
        ("n", "lam_re", "lam_im", "ratio", "poisson_bound",
         "multiplier_bound", "combined_bound"), table))
    _emit(args, out / "lemma1.json", payload)
    print(f"decay: final ratio {rows[-1].estimate.ratio:.6f} "
          f"(threshold {dec.threshold:g}) -> {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_nehari(args) -> int:
    config, out = _prepare(args)
    neh = config.nehari
    quad = config.quadrature.settings()
    slack = config.tolerances.nehari_slack
    rngs = spawn_rngs(config.sweep.seed, ["theta", "symbol"])
    rows, errors = [], []
    max_ratio = 0.0
    violations = 0
    for idx in range(neh.instances):
        degree = int(rngs["theta"].integers(1, neh.max_degree + 1))
        theta = random_blaschke(rngs["theta"], degree,
                                config.sweep.max_zero_modulus,
                                config.sweep.min_zero_gap)
        phi = random_trig_poly(rngs["symbol"], neh.max_band)
        try:
            gap = nehari_gap(phi, theta, grid_m=neh.grid_m, quad=quad, slack=slack)
        except NehariError as exc:
            violations += 1
            errors.append(f"instance {idx}: {exc}")
            continue
        except Exception as exc:    # log and keep sweeping
            errors.append(f"instance {idx}: {exc}")
            continue
        ratio = gap.ratio if gap.ratio is not None else float("nan")
        if gap.ratio is not None:
            max_ratio = max(max_ratio, gap.ratio)
        rows.append((idx, degree, gap.hankel_norm, gap.dual.value, ratio,
                     gap.dual.coarse_iterations, gap.dual.iterations))
    shift, square_shift = TrigPoly({-1: 1.0}), BlaschkeProduct([0.0, 0.0])
    cert = minimax_certificate(shift, square_shift, grid_m=neh.grid_m)
    # an upper side below the dual lower bound: the grid cannot see the band
    try:
        bound = dual_distance(shift, square_shift, grid_m=neh.grid_m, quad=quad).value
    except QuadratureError as exc:
        errors.append(f"certificate: no dual lower bound: {exc}")
    else:
        if cert.value < bound - slack:
            errors.append(f"certificate: grid sup {cert.value:.12g} is below the "
                          f"dual lower bound {bound:.12g} beyond slack {slack:g}")
    conv = convolution_table(shift, square_shift, neh.r_list, certificate=cert,
                             grid_m=neh.grid_m)
    passed = not errors     # violations are filed under errors too
    payload = {
        "seed": config.sweep.seed,
        "instances": neh.instances,
        "violations": violations,
        "empirical_constant": max_ratio,
        "errors": errors,
        "passed": passed,
        "convolution": [(r.r, r.sup_gap, r.theta_gap) for r in conv],
        "certificate": {"value": cert.value, "iterations": cert.iterations,
                        "band": cert.band, "grid_m": cert.grid_m},
    }
    write_text(out / "nehari.csv", csv_table(
        ("instance", "degree", "hankel_norm", "dual_distance", "ratio",
         "coarse_iterations", "iterations"),
        rows))
    _emit(args, out / "nehari.json", payload)
    print(f"nehari: {len(rows)} instances, empirical constant "
          f"{max_ratio:.6f}, violations {violations}")
    return 0 if passed else 1


def cmd_besov(args) -> int:
    config, out = _prepare(args)
    bes = config.besov
    rng = np.random.default_rng(config.sweep.seed)
    theta = random_blaschke(rng, bes.degree, config.sweep.max_zero_modulus,
                            config.sweep.min_zero_gap)
    alpha = complex(np.exp(1j * bes.alpha_angle))
    nu = square_clark_measure(theta, alpha)
    phi = random_conjugate_square_symbol(rng, theta, zero_mean=True)
    values = np.asarray(phi(nu.atoms), dtype=complex)
    report = oscillation_report(values, nu, bes.eps_grid, bes.p_list)
    payload = {
        "seed": config.sweep.seed,
        "inner_function": theta.to_dict(),
        "measure": nu.to_dict(),
        "eps_grid": report.eps_grid,
        "modulus": report.modulus,
        "besov": {f"{p:g}": {"norm": prof.norm, "r": prof.r,
                             "generation_sums": list(prof.generation_sums),
                             "depth": prof.depth}
                  for p, prof in report.besov.items()},
    }
    write_text(out / "besov.csv", csv_table(
        ("eps", "modulus"),
        list(zip(report.eps_grid, report.modulus))))
    _emit(args, out / "besov.json", payload)
    return 0


def cmd_conjecture(args) -> int:
    config, out = _prepare(args)
    con = config.conjecture
    quad = config.quadrature.settings()
    alpha = complex(np.exp(1j * con.alpha_angle))
    rows_csv = []
    summaries = {}
    rng = np.random.default_rng(config.sweep.seed)
    for degree in con.degrees:
        theta = BlaschkeProduct([0.0] * degree)
        corpus = []
        for i in range(con.corpus):
            corpus.append((f"deg{degree}-{i}",
                           random_trig_poly(rng, con.max_band)))
        rows = conjecture_probe(theta, alpha, con.p_list, corpus, quad)
        summaries[f"z^{degree}"] = probe_summary(rows, con.p_list)
        for row in rows:
            for p in con.p_list:
                rows_csv.append((f"z^{degree}", row.tag, p, row.schatten[p],
                                 row.besov[p], row.ratio[p], row.depth[p]))
    payload = {
        "seed": config.sweep.seed,
        "alpha_angle": con.alpha_angle,
        "p_list": con.p_list,
        "summaries": {k: {f"{p:g}": v for p, v in s.items()}
                      for k, s in summaries.items()},
        "note": "exploratory: paired quantities only, no pass/fail",
    }
    write_text(out / "conjecture.csv", csv_table(
        ("theta", "tag", "p", "schatten_norm", "besov_norm", "ratio", "depth"),
        rows_csv))
    _emit(args, out / "conjecture.json", payload)
    return 0


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Numerical laboratory for truncated Toeplitz and "
                    "Hankel operators on model spaces of finite Blaschke "
                    "products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--output-dir", help="report directory "
                       "(overrides TTOLAB_OUTPUT_DIR and config)")
        p.add_argument("--seed", type=int, help="override sweep.seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. "
                            "--set nehari.grid_m=2048")
        p.add_argument("--print", action="store_true",
                       help="also print the JSON report to stdout")

    p = sub.add_parser("verify", help="run the invariant suites")
    common(p)
    p.add_argument("--only", help="comma-separated suite names")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis", help="build and check an orthonormal basis")
    common(p)
    p.add_argument("--theta", required=True, help="inner function: z, z^k, "
                   "JSON, or a JSON file")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("op-matrix", help="assemble an operator matrix")
    common(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--symbol", required=True, help="z, zbar, z^k, zbar^k, 1, "
                   "or JSON {frequency: coefficient}")
    p.add_argument("--kind", choices=("toeplitz", "hankel"),
                   default="toeplitz")
    p.set_defaults(func=cmd_op_matrix)

    p = sub.add_parser("clark", help="atomic spectral measure of an inner "
                       "function")
    common(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--alpha", default="1", help="unimodular parameter")
    p.set_defaults(func=cmd_clark)

    p = sub.add_parser("spectrum", help="eigenvalues and Schatten norms")
    common(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--p-list", help="comma-separated Schatten exponents")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("essential", help="eigenvalue clustering along a "
                       "boundary-accumulating family")
    common(p)
    p.set_defaults(func=cmd_essential)

    p = sub.add_parser("lemma1", help="almost-eigenvector decay table")
    common(p)
    p.set_defaults(func=cmd_lemma1)

    p = sub.add_parser("nehari", help="operator norm vs dual distance sweep")
    common(p)
    p.set_defaults(func=cmd_nehari)

    p = sub.add_parser("besov", help="oscillation profile of a standard "
                       "symbol")
    common(p)
    p.set_defaults(func=cmd_besov)

    p = sub.add_parser("conjecture", help="Schatten vs Besov paired table")
    common(p)
    p.set_defaults(func=cmd_conjecture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{PROG}: configuration error: {exc}", file=sys.stderr)
        return 2
    except (ModelSpaceError, ClarkError, QuadratureError) as exc:
        print(f"{PROG}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
