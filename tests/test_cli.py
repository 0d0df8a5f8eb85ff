import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ttolab

from ttolab.cli import main, parse_alpha, parse_symbol, parse_theta
from ttolab.config import ConfigError, RunConfig
from ttolab import verify
from ttolab.harmonic import unit_nodes
from ttolab.modelspace import ModelSpaceBasis
from ttolab.nehari import NehariError, nehari_gap

FAST_VERIFY = ["--set", "nehari.multistart=6", "--set", "nehari.grid_m=512"]


def run(argv):
    return main(argv)


def test_import_loads_no_scipy():
    # every command starts by importing the package; scipy loads only in
    # the functions that use it
    src = str(Path(ttolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ttolab; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_module_runs_the_command_line(tmp_path):
    # python -m ttolab from a checkout, as with the installed script
    src = str(Path(ttolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "ttolab", "basis", "--theta", "z",
                          "--output-dir", str(tmp_path)], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "basis.json").exists()


def test_dual_basis_loads_no_scipy():
    # the subspace vanishing at the origin comes from a numpy SVD
    src = str(Path(ttolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from ttolab import BlaschkeProduct; "
            "from ttolab.nehari import dual_basis; "
            "dual_basis(BlaschkeProduct([0.3, -0.5j, 0.0])); "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------ parsers

def test_parse_theta_shorthand():
    assert parse_theta("z").degree == 1
    assert parse_theta("z^4").degree == 4
    theta = parse_theta('{"zeros": [[0.3, 0.0], [0.0, -0.4]]}')
    assert theta.degree == 2


def test_parse_theta_from_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text('{"zeros": [[0.5, 0.0]]}')
    assert parse_theta(str(path)).degree == 1


def test_parse_theta_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_theta("zz^bad")


def test_parse_symbol_shorthand():
    nodes = unit_nodes(8)
    import numpy as np

    assert np.allclose(parse_symbol("zbar")(nodes), np.conj(nodes))
    assert np.allclose(parse_symbol("z^2")(nodes), nodes**2)
    assert np.allclose(parse_symbol("1")(nodes), 1.0)
    mixed = parse_symbol('{"-1": [0.0, 1.0], "2": 2.0}')
    assert np.allclose(mixed(nodes), 1j * np.conj(nodes) + 2 * nodes**2)


def test_parse_alpha_normalizes():
    import numpy as np

    assert abs(parse_alpha("i") - 1j) < 1e-15
    assert abs(abs(parse_alpha("1+1i")) - 1.0) < 1e-15
    with pytest.raises(ConfigError):
        parse_alpha("0")


# ------------------------------------------------------------ commands

def test_verify_subset_passes(tmp_path):
    code = run(["verify", "--only", "basis-orthonormality,hankel-toeplitz-link",
                "--output-dir", str(tmp_path), *FAST_VERIFY])
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is True
    names = [r["name"] for r in report["suites"]]
    assert names == ["basis-orthonormality", "hankel-toeplitz-link"]


def test_verify_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["verify", "--only", "basis-orthonormality,rank-one-identity",
            *FAST_VERIFY]
    assert run(args + ["--output-dir", str(a)]) == 0
    assert run(args + ["--output-dir", str(b)]) == 0
    assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()
    # per-suite wall time is printed, never written to the report
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("PASS")]
    assert len(lines) == 4 and all(" seconds=" in ln for ln in lines)
    assert "seconds" not in (a / "verify.json").read_text()


def test_verify_unattainable_tolerance_fails(tmp_path):
    code = run(["verify", "--only", "basis-orthonormality",
                "--set", "tolerances.identity=1e-20",
                "--output-dir", str(tmp_path), *FAST_VERIFY])
    assert code == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is False


def test_verify_seed_change_keeps_verdicts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["verify", "--only", "cross-route-hankel,spectral-mapping",
            *FAST_VERIFY]
    assert run(args + ["--seed", "1", "--output-dir", str(a)]) == 0
    assert run(args + ["--seed", "2", "--output-dir", str(b)]) == 0
    ra = json.loads((a / "verify.json").read_text())
    rb = json.loads((b / "verify.json").read_text())
    assert [r["passed"] for r in ra["suites"]] == [r["passed"] for r in rb["suites"]]
    assert ra["seed"] != rb["seed"]


def test_verify_reports_a_suite_that_raises(tmp_path, monkeypatch):
    # the first Nehari instance yields a deviation, the second raises: the
    # suite fails with the exception's message and no partial worst
    calls = []

    def second_raises(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise NehariError("operator norm 2 exceeds dual distance estimate 1")
        return nehari_gap(*args, **kwargs)

    monkeypatch.setattr(verify, "nehari_gap", second_raises)
    assert run(["verify", "--only", "nehari-bound,rank-one-identity",
                "--output-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    intact, crashed = report["suites"]
    assert len(calls) == 2 and report["passed"] is False
    assert crashed == {"name": "nehari-bound", "passed": False, "worst": None,
                       "tolerance": crashed["tolerance"], "checks": 0,
                       "detail": "error: operator norm 2 exceeds dual distance estimate 1"}
    assert intact["passed"] is True and intact["checks"] == 8


def test_verify_only_replays_the_default_run(tmp_path):
    # the rng streams are spawned over every suite, so a suite chosen alone
    # draws the instances it draws in the default run
    assert run(["verify", "--only", "rank-one-identity", "--output-dir", str(tmp_path)]) == 0
    (suite,) = json.loads((tmp_path / "verify.json").read_text())["suites"]
    assert suite["worst"] == 7.108895957933346e-16
    full = {r.name: r.worst for r in verify.run_verification(RunConfig()).results}
    chosen = {"clark-poisson", "clark-rule-route"}
    for result in verify.run_verification(RunConfig(), chosen).results:
        assert result.worst == full[result.name], result.name


def test_clark_rule_suite_builds_each_basis_once(monkeypatch):
    # one basis of theta and one of theta^2 per instance: the standard
    # symbol and the quadrature pairing share the theta^2 basis
    builds = []
    init = ModelSpaceBasis.__init__

    def counted(self, theta, *args):
        builds.append(theta.degree)
        init(self, theta, *args)

    monkeypatch.setattr(ModelSpaceBasis, "__init__", counted)
    (result,) = verify.run_verification(RunConfig(), {"clark-rule-route"}).results
    assert result.passed
    assert len(builds) == 12


def test_unknown_suite_is_config_error(tmp_path):
    assert run(["verify", "--only", "bogus", "--output-dir", str(tmp_path)]) == 2


def test_bad_override_is_config_error(tmp_path, capsys):
    assert run(["verify", "--set", "nehari.instances=lots",
                "--output-dir", str(tmp_path)]) == 2
    assert run(["verify", "--set", "nope.key=1",
                "--output-dir", str(tmp_path)]) == 2
    # a bool for an integer, and an integer field's 1.7 is not truncated
    for pair in ("sweep.seed=true", "nehari.grid_m=1.7"):
        assert run(["besov", "--set", pair, "--output-dir", str(tmp_path)]) == 2
        assert pair.partition("=")[0] in capsys.readouterr().err


def test_basis_dump(tmp_path):
    assert run(["basis", "--theta", "z^3", "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "basis.json").read_text())
    assert payload["degree"] == 3
    assert payload["gram_defect"] < 1e-10
    assert payload["gram_rule"] == "clark-eigen"


def test_op_matrix_dump(tmp_path):
    assert run(["op-matrix", "--theta", "z^2", "--symbol", "zbar",
                "--kind", "hankel", "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "op-matrix.json").read_text())
    assert payload["kind"] == "hankel"
    mat = payload["matrix"]
    assert len(mat["entries"]) == 2


def test_clark_dump(tmp_path):
    assert run(["clark", "--theta", "z^2", "--alpha", "1",
                "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "clark.json").read_text())
    assert abs(payload["mass"] - payload["expected_mass"]) < 1e-10
    assert payload["poisson_defect"] < 1e-8
    assert payload["unitarity_defect"] < 1e-10
    assert isinstance(payload["phase_evaluations"], int)
    assert 2 <= payload["phase_evaluations"] <= 12
    assert payload["bisections"] == 0


def test_spectrum_dump(tmp_path):
    assert run(["spectrum", "--theta", "z^3", "--symbol", "z",
                "--p-list", "1,2", "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(payload["eigenvalues"]) == 3
    assert "1" in payload["schatten"] or "1.0" in payload["schatten"]


@pytest.mark.parametrize("p_list", ["0,1", "a", "1,-2"])
def test_spectrum_bad_exponent_is_config_error(tmp_path, p_list):
    assert run(["spectrum", "--theta", "z^3", "--symbol", "z",
                "--p-list", p_list, "--output-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "spectrum.json").exists()


def test_bad_schatten_exponent_is_config_error(tmp_path):
    assert run(["conjecture", "--set", "conjecture.p_list=[0.5, 0]",
                "--output-dir", str(tmp_path)]) == 2
    assert run(["besov", "--set", "besov.p_list=[-1]",
                "--output-dir", str(tmp_path)]) == 2


def test_old_besov_generation_cap_is_config_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"besov": {"max_generation": 8}}))
    assert run(["besov", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "besov.json").exists()


def test_bad_theta_is_config_error(tmp_path):
    assert run(["basis", "--theta", "frog", "--output-dir", str(tmp_path)]) == 2


def test_theta_zero_of_wrong_type_is_config_error(tmp_path):
    assert run(["basis", "--theta", '{"zeros": [[0.5, "nan"]]}',
                "--output-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "basis.json").exists()


def test_non_finite_alpha_is_config_error(tmp_path):
    for alpha in ("nan", "inf", "1+nani"):
        assert run(["clark", "--theta", "z^2", "--alpha", alpha,
                    "--output-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "clark.json").exists()


def test_zero_rounding_to_one_is_config_error(tmp_path, capsys):
    # 1 - 0.5^n rounds to 1 from n = 54: no zero inside the disk, so the
    # step is refused before any report, by the key that sets it
    for command, pair, key in (("essential", "essential.n_list=[2,60]", "essential.n_list[1]"),
                               ("lemma1", "decay.n_max=54", "decay.n_max"),
                               ("lemma1", "decay.n_max=" + "1" + "0" * 400, "decay.n_max")):
        assert run([command, "--set", pair, "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ttolab: configuration error: {key} = ")
        assert len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, pair", [("essential", "essential.n_list=[40]"),
                                           ("lemma1", "decay.n_max=40")])
def test_numerical_refusal_ends_in_one_line(tmp_path, capsys, command, pair):
    # zeros 1 - 2^-k up to n = 40 fail the basis's Gram check: the run
    # names the error in one stderr line, exits 1 and writes no report
    assert run([command, "--set", pair, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ttolab: ModelSpaceError: basis Gram matrix deviates")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_output_dir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("TTOLAB_OUTPUT_DIR", str(target))
    assert run(["basis", "--theta", "z"]) == 0
    assert (target / "basis.json").exists()


def test_config_file_feeds_run(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sweep": {"seed": 4242}}))
    out = tmp_path / "out"
    assert run(["verify", "--only", "rank-one-identity", "--config", str(cfg),
                "--output-dir", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["seed"] == 4242


def test_lemma1_small_run(tmp_path):
    import csv

    code = run(["lemma1", "--set", "decay.n_max=6",
                "--set", "decay.threshold=0.5", "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "lemma1.json").read_text())
    assert payload["passed"] is True
    with open(tmp_path / "lemma1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    # the table itself decays
    assert float(rows[-1]["ratio"]) < float(rows[0]["ratio"])


def test_essential_small_run(tmp_path):
    code = run(["essential", "--set", "essential.n_list=[2,4,6]",
                "--set", "essential.delta=0.9", "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "essential.csv").exists()


def test_besov_command(tmp_path):
    assert run(["besov", "--set", "besov.degree=2",
                "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "besov.json").read_text())
    assert payload["modulus"] == sorted(payload["modulus"])


def test_nehari_command(tmp_path):
    code = run(["nehari", "--set", "nehari.instances=2",
                "--set", "nehari.multistart=6", "--set", "nehari.grid_m=512",
                "--set", "nehari.max_degree=2", "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "nehari.json").read_text())
    assert payload["violations"] == 0
    assert payload["empirical_constant"] >= 1.0 - 1e-6


def test_nehari_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["nehari", "--set", "nehari.instances=6"]
    assert run(args + ["--output-dir", str(a)]) == 0
    assert run(args + ["--output-dir", str(b)]) == 0
    for name in ("nehari.csv", "nehari.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the solver's step count is deterministic, so it is part of the report
    header, *rows = (a / "nehari.csv").read_text().splitlines()
    assert header.split(",")[-1] == "iterations"
    assert len(rows) == 6 and all(int(row.split(",")[-1]) >= 0 for row in rows)
    # the coarse stage's steps are a part of them
    assert header.split(",")[-2] == "coarse_iterations"
    assert all(0 <= int(row.split(",")[-2]) <= int(row.split(",")[-1])
               for row in rows)
    # so are the minimax certificate's value, iterations, band and grid
    cert = json.loads((a / "nehari.json").read_text())["certificate"]
    assert sorted(cert) == ["band", "grid_m", "iterations", "value"]
    assert 0.0 < cert["value"] < 1.0 + 1e-12 and cert["iterations"] >= 1
    assert cert["band"] == 10 and cert["grid_m"] == 4096


def test_nehari_errors_fail_the_run(tmp_path):
    # a quadrature cap too low for any instance: every one is an error, and
    # so is the certificate, whose dual lower bound needs the same quadrature
    code = run(["nehari", "--set", "quadrature.m_cap=256",
                "--set", "nehari.instances=3", "--output-dir", str(tmp_path)])
    payload = json.loads((tmp_path / "nehari.json").read_text())
    assert len(payload["errors"]) == 4
    assert payload["errors"][-1].startswith("certificate: no dual lower bound")
    assert payload["passed"] is False
    assert code == 1


@pytest.mark.parametrize("grid_m", [2, 3])
def test_nehari_certificate_below_dual_bound_is_an_error(tmp_path, grid_m):
    # on a grid smaller than the band a competitor interpolates conj(z), so
    # the grid sup falls under the distance 1 that the dual solve bounds
    code = run(["nehari", "--set", "nehari.instances=1", "--set", "nehari.max_degree=1",
                "--set", f"nehari.grid_m={grid_m}", "--output-dir", str(tmp_path)])
    payload = json.loads((tmp_path / "nehari.json").read_text())
    assert payload["certificate"]["value"] < 1e-14
    assert any(e.startswith("certificate: grid sup") for e in payload["errors"])
    assert payload["passed"] is False
    assert code == 1


def test_conjecture_command(tmp_path):
    code = run(["conjecture", "--set", "conjecture.degrees=[2]",
                "--set", "conjecture.corpus=2", "--output-dir", str(tmp_path)])
    assert code == 0
    header, *rows = (tmp_path / "conjecture.csv").read_text().splitlines()
    assert header.split(",")[-1] == "depth"
    # theta = z^2: the four Clark atoms of z^4 sit at the dyadic ends, so
    # each arc holds at most r + 1 of them from generation 1 at p = 0.5
    # and 1 (r = 2, 1) and from generation 2 at p = 2 (r = 0)
    depths = {float(row.split(",")[2]): row.split(",")[-1] for row in rows}
    assert depths == {0.5: "1", 1.0: "1", 2.0: "2"}
    payload = json.loads((tmp_path / "conjecture.json").read_text())
    assert "exploratory" in payload["note"]


def test_conjecture_needs_no_quadrature(tmp_path, monkeypatch):
    from ttolab import harmonic

    calls = []
    levels = harmonic._adaptive_levels

    def counting(*args, **kwargs):
        calls.append(args)
        return levels(*args, **kwargs)

    monkeypatch.setattr(harmonic, "_adaptive_levels", counting)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["conjecture", "--output-dir", str(out)]) == 0
    assert calls == []
    for name in ("conjecture.csv", "conjecture.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("section", [
    {"nehari": {"grid_m": 0}}, {"nehari": {"grid_m": "abc"}}, {"quadrature": {"tol": "x"}},
    {"besov": {"eps_grid": ["a"]}}, {"decay": {"gram_tol": -1}}, {"essential": {"delta": -1}}],
    ids=["grid_m=0", "grid_m=abc", "tol=x", "eps_grid=a", "gram_tol=-1", "delta=-1"])
def test_bad_file_value_is_config_error(tmp_path, capsys, section):
    # the run exits 2 and names the key, before any report is written
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(section))
    assert run(["besov", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    (name, value), = section.items()
    assert f"{name}.{next(iter(value))}" in capsys.readouterr().err
    assert not (tmp_path / "besov.json").exists()


def test_besov_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["besov", "--output-dir", str(a)]) == 0
    assert run(["besov", "--output-dir", str(b)]) == 0
    for name in ("besov.csv", "besov.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
