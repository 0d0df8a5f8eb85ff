import dataclasses
import json

import pytest

from ttolab.cli import main
from ttolab.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)


def test_defaults_validate():
    config = RunConfig().validate()
    assert config.sweep.seed == 20250815
    assert config.quadrature.tol == 1e-12


def test_roundtrip_through_dict():
    config = RunConfig().validate()
    back = config_from_dict(config.to_dict())
    assert back.to_dict() == config.to_dict()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"swep": {"seed": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"sweep": {"sed": 1}})
    # removed keys are refused by name, so an old config fails loudly
    with pytest.raises(ConfigError, match="sweep.instances"):
        config_from_dict({"sweep": {"instances": 100}})
    # Besov profiles run to termination: the generation cap is gone
    with pytest.raises(ConfigError, match="besov.max_generation"):
        config_from_dict({"besov": {"max_generation": 8}})


def test_validation_bounds():
    with pytest.raises(ConfigError):
        config_from_dict({"nehari": {"instances": 0}})
    with pytest.raises(ConfigError):
        config_from_dict({"essential": {"ratio": 1.5}})
    with pytest.raises(ConfigError):
        config_from_dict({"tolerances": {"identity": -1.0}})


@pytest.mark.parametrize("section", ["besov", "conjecture"])
@pytest.mark.parametrize("p_list", [[0.5, 0.0], [-1.0], ["a"], [None], 2.0])
def test_schatten_exponents_must_be_positive(section, p_list):
    with pytest.raises(ConfigError, match=f"{section}.p_list"):
        config_from_dict({section: {"p_list": p_list}})


def test_overrides_dotted_paths():
    config = RunConfig().validate()
    apply_overrides(config, {"sweep.seed": 7, "nehari.grid_m": 512})
    assert config.sweep.seed == 7
    assert config.nehari.grid_m == 512


def test_override_type_coercion():
    config = RunConfig().validate()
    apply_overrides(config, {"sweep.seed": "12", "decay.threshold": "0.1"})
    assert config.sweep.seed == 12
    assert abs(config.decay.threshold - 0.1) < 1e-15
    with pytest.raises(ConfigError):
        apply_overrides(config, {"nehari.instances": "many"})
    with pytest.raises(ConfigError):
        apply_overrides(config, {"essential.n_list": "2,4"})
    with pytest.raises(ConfigError):
        apply_overrides(config, {"sweep.bogus": 1})


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"sweep": {"seed": 99}, "besov": {"degree": 2}}))
    config = load_config(path)
    assert config.sweep.seed == 99
    assert config.besov.degree == 2


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.parametrize("section,key,value", [
    ("nehari", "grid_m", 0), ("nehari", "grid_m", "abc"), ("nehari", "grid_m", 1.7),
    ("nehari", "grid_m", True), ("sweep", "seed", True), ("quadrature", "tol", "x"),
    ("quadrature", "tol", False), ("besov", "eps_grid", ["a"]), ("besov", "eps_grid", [0.1, -1]),
    ("decay", "gram_tol", -1), ("decay", "quad_tol", 0), ("essential", "delta", -1),
    ("essential", "quad_tol", -1e-10), ("essential", "gram_tol", 0.0),
    ("essential", "n_list", 4)])
def test_file_values_take_the_field_type(section, key, value):
    # a file value goes through the same typed path as an override, and
    # the error names the key
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        config_from_dict({section: {key: value}})
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        apply_overrides(RunConfig().validate(), {f"{section}.{key}": value})


def test_file_values_are_converted():
    config = config_from_dict({"nehari": {"grid_m": 2048.0}, "quadrature": {"tol": 1},
                               "sweep": {"seed": "12"}})
    assert config.nehari.grid_m == 2048 and type(config.nehari.grid_m) is int
    assert config.quadrature.tol == 1.0 and type(config.quadrature.tol) is float
    assert config.sweep.seed == 12
    # integers keep every digit
    assert config_from_dict({"sweep": {"seed": 2**60 + 1}}).sweep.seed == 2**60 + 1


# Inputs that once ran into a traceback or were accepted silently: the
# command that reads the key, the key, its JSON value, and the name the
# error gives.
_REFUSED = [
    ("essential", "essential.n_list", ["a"], "essential.n_list[0]"),
    ("nehari", "nehari.r_list", ["a"], "nehari.r_list[0]"),
    ("conjecture", "conjecture.degrees", [2.5], "conjecture.degrees[0]"),
    ("essential", "essential.n_list", [2.5, 3], "essential.n_list[0]"),
    ("essential", "essential.n_list", [], "essential.n_list"),
    ("besov", "besov.p_list", [True], "besov.p_list[0]"),
    ("besov", "quadrature.tol", "nan", "quadrature.tol"),
    ("nehari", "nehari.max_degree", 0, "nehari.max_degree"),
    ("nehari", "nehari.max_band", -1, "nehari.max_band"),
    ("besov", "sweep.min_zero_gap", 5, "sweep.min_zero_gap"),
    # json writes inf as Infinity and reads it back as inf, as it reads 1e400
    ("conjecture", "conjecture.alpha_angle", float("inf"), "conjecture.alpha_angle"),
    ("besov", "besov.alpha_angle", 10**400, "besov.alpha_angle"),
    ("besov", "sweep.seed", -1, "sweep.seed"),
]


@pytest.mark.parametrize("via", ["file", "set"])
@pytest.mark.parametrize("command,key,value,name", _REFUSED,
                         ids=[f"{k}={json.dumps(v)[:12]}" for _, k, v, _ in _REFUSED])
def test_bad_value_exits_2_naming_the_key(tmp_path, capsys, via, command, key, value,
                                          name):
    out = tmp_path / "out"
    if via == "file":
        section, _, field = key.partition(".")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({section: {field: value}}))
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, "--set", f"{key}={json.dumps(value)}"]
    assert main(argv + ["--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ttolab: configuration error: {name} ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert not out.exists()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    assert main(["besov", "--seed", "-1", "--output-dir", str(tmp_path / "out")]) == 2
    assert "sweep.seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_list_entries_take_the_type_of_the_default_entries():
    config = config_from_dict({"essential": {"n_list": [2.0, "3"]},
                               "nehari": {"r_list": [0.5, 1e-3]},
                               "conjecture": {"degrees": [4], "p_list": [1, "2"]}})
    assert config.essential.n_list == [2, 3]
    assert all(type(n) is int for n in config.essential.n_list)
    assert config.conjecture.p_list == [1.0, 2.0]
    assert all(type(p) is float for p in config.conjecture.p_list)


def test_every_section_field_declares_a_range():
    # QuadratureSettings checks quadrature.*, and output_dir is a path; a
    # section added later cannot ship an unchecked field
    config = RunConfig()
    unranged = set()
    for top in dataclasses.fields(config):
        section = getattr(config, top.name)
        if not dataclasses.is_dataclass(section):
            unranged.add(top.name)
            continue
        unranged.update(f"{top.name}.{f.name}" for f in dataclasses.fields(section)
                        if "range" not in f.metadata)
    assert {k for k in unranged if not k.startswith("quadrature.")} == {"output_dir"}
