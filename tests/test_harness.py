import argparse
import json
import os

import pytest

from rwpot import cli, harness
from rwpot import solver as solver_mod
from rwpot.errors import AssumptionError, ParameterError
from rwpot.harness import (EXPERIMENTS, ExperimentConfig, oracle_check, run)
from rwpot.io import sha256_of_json

TP_JSON = {"kind": "TwoPoint",
           "params": {"v_lo": 0.2, "v_hi": 1.0, "p_hi": 0.5}}


def _config(experiment, seed=1, geometry=None, sampling=None, **kw):
    sampling = dict(sampling or {})
    sampling.setdefault("seed", seed)
    return ExperimentConfig.from_json({
        "experiment": experiment,
        "spec": TP_JSON,
        "geometry": geometry or {},
        "sampling": sampling,
        **kw,
    })


def test_config_validation_names_offending_field():
    with pytest.raises(ParameterError, match="experiment"):
        ExperimentConfig.from_json({"experiment": "fly", "spec": TP_JSON,
                                    "sampling": {"seed": 1}})
    with pytest.raises(ParameterError, match="sampling.seed"):
        ExperimentConfig.from_json({"experiment": "solve", "spec": TP_JSON})
    with pytest.raises(ParameterError, match="sampling.seed"):
        ExperimentConfig.from_json({"experiment": "solve", "spec": TP_JSON,
                                    "sampling": {"seed": 1.5}})
    with pytest.raises(ParameterError, match="spec"):
        ExperimentConfig.from_json({"experiment": "solve"})


def test_config_keys_no_runner_reads_are_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps({
        "experiment": "tails", "spec": TP_JSON,
        "geometry": {"x": [3, 0], "box_facter": 3},
        "sampling": {"seed": 1, "sample": 20},
    }))
    code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "r"),
                     "tails"])
    assert code == 2
    err = capsys.readouterr().err
    assert "geometry.box_facter" in err and "sampling.sample" in err
    assert "not read by tails" in err
    assert not (tmp_path / "r").exists()
    with pytest.raises(ParameterError, match="output.dir: not read by solve"):
        _config("solve", output={"dir": "x"})
    with pytest.raises(ParameterError, match="samplng: not a config"):
        ExperimentConfig.from_json({"experiment": "solve", "spec": TP_JSON,
                                    "samplng": {"seed": 1}})
    # a key one runner reads is still foreign to another
    with pytest.raises(ParameterError, match="geometry.side: not read by"):
        _config("compare", geometry={"side": "UpperExp"})


def test_config_values_of_the_wrong_type_are_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps({
        "experiment": "tails", "spec": TP_JSON,
        "geometry": {"x": [3, 0]}, "sampling": {"seed": 1, "samples": "40"},
    }))
    code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "r"),
                     "tails"])
    assert code == 2
    assert "sampling.samples: must be int" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    for experiment, part, value, name in (
            ("tails", "geometry", {"x": [3, 0.5]}, "geometry.x"),
            ("tails", "geometry", {"box_factor": "2"}, "geometry.box_factor"),
            ("lyapunov", "sampling", {"samples": True}, "sampling.samples"),
            ("psi", "sampling", {"lambda_grid": [-0.5, None]},
             "sampling.lambda_grid"),
            ("oracle-check", "sampling", {"battery": [{"seed": 1, "x": [2, 1]}]},
             "sampling.battery")):
        with pytest.raises(ParameterError, match=f"{name}: must be"):
            _config(experiment, **{part: value})


# a two-site solve: the cheapest run that reads a spec
TWO_SITES = {"x": [1, 0], "sites": [[0, 0], [1, 0]]}


def _write(tmp_path, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("spec, key", [
    ({"kind": "Constant", "params": {"value": 30}}, "spec.params.c: missing"),
    ({"kind": "TwoPoint", "params": {"v_lo": 0.2, "v_hi": 1.0}}, "spec.params.p_hi: missing"),
    ({"kind": "TwoPoint", "params": {"v_lo": 0.2, "v_hi": "1.0", "p_hi": 0.5}},
     "spec.params.v_hi: must be"),
    ("Exponential", "spec: must be an object"),
    ({"kind": "Exponential"}, "spec: must be an object"),
    ({"kind": "Exponential", "params": {"rate": True}}, "spec.params.rate: must be"),
    ({"kind": "Exponential", "params": {"rate": 1.0, "extra": 1}},
     "spec.params.extra: not a parameter"),
    ({"kind": "Poisson", "params": {}}, "spec.kind: unknown"),
])
def test_cli_rejects_a_bad_spec_naming_the_key(tmp_path, capsys, spec, key):
    code = cli.main(["solve", "--config", str(_write(tmp_path, {
        "experiment": "solve", "spec": spec, "geometry": TWO_SITES,
        "sampling": {"seed": 1}})), "--out", str(tmp_path / "r")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("config, key", [
    ([{"experiment": "solve"}], "config: must be a JSON object"),
    ({"experiment": "solve", "spec": TP_JSON, "geometry": TWO_SITES,
      "sampling": [["seed", 1]]}, "sampling: must be an object"),
    ({"experiment": "solve", "spec": TP_JSON, "geometry": TWO_SITES,
      "sampling": {"seed": 1}, "override_assumptions": "yes"}, "override_assumptions: must be"),
])
def test_cli_rejects_a_config_of_the_wrong_shape(tmp_path, capsys, config, key):
    code = cli.main(["solve", "--config", str(_write(tmp_path, config)),
                     "--seed", "1", "--out", str(tmp_path / "r")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("experiment, part, value, key", [
    ("lyapunov", "sampling", {"n_grid": []}, "sampling.n_grid: must have length >= 1"),
    ("lyapunov", "sampling", {"samples": 0}, "sampling.samples: must be >= 1"),
    ("tails", "sampling", {"t_grid": []}, "sampling.t_grid: must have length >= 1"),
    ("compare", "geometry", {"box_factor_grid": []},
     "geometry.box_factor_grid: must have length >= 2"),
    ("compare", "geometry", {"box_factor_grid": [2.0]},
     "geometry.box_factor_grid: must have length >= 2"),
    ("compare", "sampling", {"samples": 0}, "sampling.samples: must be >= 1"),
    ("perturb", "sampling", {"samples": 0}, "sampling.samples: must be >= 1"),
    ("entropy", "sampling", {"samples": 0}, "sampling.samples: must be >= 1"),
    ("entropy", "sampling", {"lambda_grid": []}, "sampling.lambda_grid: must have length >= 1"),
    ("psi", "sampling", {"samples": 0}, "sampling.samples: must be >= 1"),
    ("psi", "geometry", {"x_grid": []}, "geometry.x_grid: must have length >= 1"),
    ("chi", "sampling", {"trials": -1}, "sampling.trials: must be >= 1"),
    # a target at the origin, or with no coordinates
    ("tails", "geometry", {"x": [0, 0]}, "geometry.x: must be nonzero [int]"),
    ("compare", "geometry", {"x": [0, 0]}, "geometry.x: must be nonzero [int]"),
    ("tails", "geometry", {"x": []}, "geometry.x: must be nonzero [int]"),
    ("solve", "geometry", {"x": []}, "geometry.x: must have length >= 1"),
    ("lyapunov", "geometry", {"direction": []}, "geometry.direction: must have length >= 1"),
    ("psi", "geometry", {"x_grid": [[2, 0], [0, 0]]}, "geometry.x_grid: must be [nonzero [int]]"),
    ("oracle-check", "sampling", {"battery": [{"seed": 1, "x": [0, 0], "radius": 3, "L": 4,
                                              "episodes": 10}]}, "sampling.battery: must be"),
    # an integer geometry key below the least value its experiment runs with
    ("animals", "geometry", {"d": 0}, "geometry.d: must be >= 1"),
    ("chi", "geometry", {"d": 0}, "geometry.d: must be >= 1"),
    ("animals", "geometry", {"M": 0}, "geometry.M: must be >= 1"),
    ("animals", "geometry", {"l_cap": 0}, "geometry.l_cap: must be >= 1"),
    ("chi", "geometry", {"l": 2}, "geometry.l: must be >= 4"),
    ("lyapunov", "geometry", {"box_factor": 0.5}, "geometry.box_factor: must be >= 1"),
    # a number that is not finite, a box factor that is not positive, and
    # one whose box radius ceil(F |x|_1) is past the largest float: each used
    # to crash, run for nothing or write its CSV before failing
    *[(experiment, "geometry", {"box_factor": 1e308},
       "geometry.box_factor: the box radius F |x|_1 is past the largest float")
      for experiment in ("solve", "tails", "perturb", "psi")],
    *[(experiment, "geometry", {"box_factor": float("inf")},
       "geometry.box_factor: inf is not a finite number")
      for experiment in ("solve", "tails", "perturb", "psi")],
    ("solve", "geometry", {"box_factor": float("nan")},
     "geometry.box_factor: nan is not a finite number"),
    ("solve", "geometry", {"box_factor": -1}, "geometry.box_factor: must be positive number"),
    ("tails", "geometry", {"alpha_ref": float("nan")},
     "geometry.alpha_ref: nan is not a finite number"),
    ("entropy", "sampling", {"lambda_grid": [float("nan")]},
     "sampling.lambda_grid: nan is not a finite number"),
    ("chi", "geometry", {"kappa": float("nan")}, "geometry.kappa: nan is not a finite number"),
])
def test_cli_rejects_no_samples_and_empty_grids(tmp_path, capsys, experiment, part,
                                                value, key):
    config = {"experiment": experiment, "spec": TP_JSON, "geometry": {}, "sampling": {"seed": 1}}
    config[part] = {**config[part], **value}
    code = cli.main([experiment, "--config", str(_write(tmp_path, config)),
                     "--out", str(tmp_path / "r")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("experiment, geometry, key", [
    # a one-site environment box is below the target's reach, refused by name
    ("entropy", {"env_radius": 0}, "geometry.env_radius"),
    # prop_box of the origin is the origin alone
    ("perturb", {"x": [0, 0]}, "geometry.x"),
    ("perturb", {"x": [0, 0, 0]}, "geometry.x"),
])
def test_cli_with_no_site_to_draw_exits_2(tmp_path, capsys, experiment, geometry, key):
    config = {"experiment": experiment, "spec": TP_JSON, "geometry": geometry,
              "sampling": {"seed": 1, "samples": 1}}
    code = cli.main([experiment, "--config", str(_write(tmp_path, config)),
                     "--out", str(tmp_path / "r")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("radius", [1, -1])
def test_cli_env_radius_below_the_targets_reach_exits_2(tmp_path, capsys, radius):
    # the default target (4, 0) needs env_radius >= 4: a smaller box is
    # refused by name before any field is drawn
    config = {"experiment": "entropy", "spec": TP_JSON, "geometry": {"env_radius": radius},
              "sampling": {"seed": 1, "samples": 1}}
    code = cli.main(["entropy", "--config", str(_write(tmp_path, config)),
                     "--out", str(tmp_path / "r")])
    assert code == 2
    assert "geometry.env_radius: must be >= 4" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    # the least value follows the resolved target, and is enough
    config["geometry"] = {"x": [1, -3], "env_radius": 3}
    config["sampling"]["lambda_grid"] = [-0.5]
    assert cli.main(["entropy", "--config", str(_write(tmp_path, config)),
                     "--out", str(tmp_path / "r")]) == 0


def test_cli_rejects_a_battery_item_key_it_does_not_read(tmp_path, capsys):
    item = {"seed": 11, "x": [2, 1], "radius": 3, "L": 24, "episodes": 2000, "episode": 10}
    config = {"experiment": "oracle-check", "spec": TP_JSON,
              "sampling": {"seed": 1, "battery": [item]}}
    code = cli.main(["oracle-check", "--config", str(_write(tmp_path, config)),
                     "--out", str(tmp_path / "r")])
    assert code == 2
    assert "sampling.battery: episode not read by oracle-check" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_solve_may_target_the_origin(tmp_path):
    # e(0, 0) = 1 is defined: solve alone reads a target at the origin
    assert run(_config("solve", geometry={"x": [0, 0]}), out_dir=tmp_path).all_passed()


@pytest.mark.parametrize("spec, geometry, refusal", [
    # E[omega^2] = 5e399 and E[exp(omega)] overflow to inf: (A2) fails
    ({"kind": "TwoPoint", "params": {"v_lo": 0.2, "v_hi": 1e200, "p_hi": 0.5}},
     {"side": "LowerGauss"}, "refused: (A2)"),
    # E[omega^2] = 2e400 overflows to inf; in d = 2 the floor (A3) fails first
    ({"kind": "Exponential", "params": {"rate": 1e-200}}, {}, "refused: (A3)"),
])
def test_cli_refuses_a_law_whose_moments_overflow(tmp_path, capsys, spec, geometry, refusal):
    config = {"experiment": "tails", "spec": spec, "geometry": geometry,
              "sampling": {"seed": 1, "samples": 5}}
    code = cli.main(["tails", "--config", str(_write(tmp_path, config)),
                     "--out", str(tmp_path / "r")])
    assert code == 3
    assert refusal in capsys.readouterr().err


def test_cli_log_space_overflow_fails_its_residual_check_quietly(tmp_path, capsys):
    # (A1) and (A3) hold, so tails runs; the weights underflow, and the
    # log-space gauge (c about 5e199) overflows exp to inf and NaN, which
    # the residual check refuses with exit 2, and no numpy warning escapes
    # on the way (the suite makes rwpot's warnings errors)
    config = {"experiment": "tails",
              "spec": {"kind": "TwoPoint", "params": {"v_lo": 0.2, "v_hi": 1e200, "p_hi": 0.5}},
              "sampling": {"seed": 1, "samples": 5}}
    code = cli.main(["tails", "--config", str(_write(tmp_path, config)),
                     "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "residual" in err and "Warning" not in err


def test_cli_perturb_in_six_dimensions_exits_2(tmp_path, capsys):
    # the pinned return probability refuses d = 6 before any solve
    config = {"experiment": "perturb", "spec": TP_JSON,
              "geometry": {"x": [1, 0, 0, 0, 0, 0]}, "sampling": {"seed": 1, "samples": 1}}
    code = cli.main(["perturb", "--config", str(_write(tmp_path, config)),
                     "--out", str(tmp_path / "r")])
    assert code == 2
    assert "d <= 5" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, config, code", [
    ("perturb", {"geometry": {"x": [1, 0, 0, 0, 0, 0]}, "sampling": {"seed": 1, "samples": 1}}, 2),
    ("tails", {"spec": {"kind": "LogNormal", "params": {"mu": 0.0, "sigma": 1.0}},
               "geometry": {"x": [3, 0]}, "sampling": {"seed": 1, "samples": 5}}, 3),
])
def test_refused_run_leaves_no_output_directory_it_made(tmp_path, experiment, config, code):
    # both pass validation and refuse in the experiment, after the output
    # directory is made: the run removes it, and only if it made it
    path = _write(tmp_path, {"experiment": experiment, "spec": TP_JSON, **config})
    out = tmp_path / "made" / "r"
    assert cli.main([experiment, "--config", str(path), "--out", str(out)]) == code
    assert not (tmp_path / "made").exists()
    there = tmp_path / "there"
    there.mkdir()
    assert cli.main([experiment, "--config", str(path), "--out", str(there)]) == code
    assert there.is_dir() and not any(there.iterdir())


@pytest.mark.parametrize("flags", [[], ["--override-assumptions"]])
def test_entropy_refuses_a_law_without_finite_support_even_overridden(tmp_path, capsys,
                                                                      flags):
    # the per-site inequality is an exact sum over the support: no flag lifts that
    path = _write(tmp_path, {"experiment": "entropy", "spec": {
        "kind": "LogNormal", "params": {"mu": 0.0, "sigma": 1.0}}, "sampling": {"seed": 1}})
    out = tmp_path / "r"
    assert cli.main(["entropy", "--config", str(path), "--out", str(out), *flags]) == 3
    assert "refused: (finite-support)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_flags_apply_before_the_config_is_validated(tmp_path, capsys):
    # no sampling.seed in the file: mandatory without --seed, supplied by it
    path = _write(tmp_path, {"experiment": "solve", "spec": TP_JSON, "geometry": TWO_SITES})
    out = tmp_path / "r"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert "sampling.seed: mandatory" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["solve", "--config", str(path), "--seed", "7", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 7


def test_shipped_configs_read_every_key():
    from test_acceptance import _SMALL_RUNS

    for name in EXPERIMENTS:
        cli.default_config(name).validate()
    for name, extra in _SMALL_RUNS.items():
        _config(name, geometry=extra["geometry"],
                sampling=extra["sampling"]).validate()


def test_config_round_trip(tmp_path):
    cfg = _config("tails", seed=9, geometry={"x": [3, 0]},
                  sampling={"samples": 10, "seed": 9})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json()))
    loaded = ExperimentConfig.from_json(json.loads(path.read_text()))
    assert loaded.to_json() == cfg.to_json()


def test_solve_run_writes_expected_value(tmp_path):
    import math

    from rwpot.lattice import BoxRegion
    from rwpot.potential import DistributionSpec, sample_field

    # two-site region: forced single step, e(0) = e^{-omega(0)}/(2d) exactly
    cfg = _config("solve", geometry={"x": [1, 0],
                                     "sites": [[0, 0], [1, 0]]})
    manifest = run(cfg, out_dir=tmp_path)
    assert manifest.all_passed()
    lines = (tmp_path / "solve.csv").read_text().splitlines()
    assert lines[0] == "z1,z2,e_value"
    field = sample_field(DistributionSpec.from_json(TP_JSON),
                         BoxRegion((0, 0), (2, 1)), cfg.seed)
    expected = math.exp(-field.value_at((0, 0))) / 4.0
    values = {tuple(row.split(",")[:2]): float(row.split(",")[2])
              for row in lines[1:]}
    assert values[("0", "0")] == pytest.approx(expected, abs=1e-15)
    assert values[("1", "0")] == 1.0
    names = {f["name"] for f in manifest.files}
    assert names == {"solve.csv", "solve.json"}


def test_solve_csv_rows_follow_the_region_order(tmp_path):
    # shuffled explicit sites with a hole at (3, 1) and a taboo site: the
    # rows are the region's sites less the taboo one, in the region's order
    sites = [[2, 1], [0, 0], [1, 1], [3, 0], [1, 0], [0, 1], [2, 0]]
    cfg = _config("solve", geometry={"x": [3, 0], "sites": sites,
                                     "taboo": [[1, 1]]})
    assert run(cfg, out_dir=tmp_path).all_passed()
    rows = (tmp_path / "solve.csv").read_text().splitlines()[1:]
    assert [[int(c) for c in r.split(",")[:2]] for r in rows] == \
        [s for s in sites if s != [1, 1]]


def test_manifest_schema_and_reproducibility(tmp_path):
    cfg = _config("tails", geometry={"x": [3, 0]},
                  sampling={"samples": 40, "seed": 5})
    m1 = run(cfg, out_dir=tmp_path / "a")
    bytes1 = (tmp_path / "a" / "tails.csv").read_bytes()
    m2 = run(cfg, out_dir=tmp_path / "b")
    bytes2 = (tmp_path / "b" / "tails.csv").read_bytes()
    assert bytes1 == bytes2  # same config: identical bytes
    obj = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert set(obj) == {"config_hash", "code_version", "experiment", "seed",
                        "runtime_seconds", "assertions", "files",
                        "format_version", "warnings", "blas_threads", "config"}
    assert m1.config_hash == m2.config_hash == sha256_of_json(obj["config"])
    assert obj["config"]["sampling"] == {
        "samples": 40, "seed": 5, "t_grid": [0.0, 0.5, 1.0, 1.5, 2.0]}
    assert obj["seed"] == 5 and obj["experiment"] == "tails"
    assert obj["blas_threads"] is None or obj["blas_threads"] >= 1
    for f in obj["files"]:
        assert len(f["sha256"]) == 64


def test_manifest_config_repeats_the_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["tails", "--seed", "1", "--out", str(a)]) == 0
    first = json.loads((a / "manifest.json").read_text())
    path = _write(tmp_path, first["config"])
    assert cli.main(["tails", "--config", str(path), "--out", str(b)]) == 0
    second = json.loads((b / "manifest.json").read_text())
    assert second["config"] == first["config"]
    assert second["config_hash"] == first["config_hash"]
    for name in ("tails.csv", "tails.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_hash_covers_the_defaults(tmp_path, monkeypatch):
    def config_hash(argv, out):
        assert cli.main(["tails", *argv, "--out", str(tmp_path / out)]) == 0
        return json.loads((tmp_path / out / "manifest.json").read_text())["config_hash"]

    spelt = _write(tmp_path, {"experiment": "tails", "spec": TP_JSON,
                              "sampling": {"seed": 1, "samples": 500}})
    default = config_hash(["--seed", "1"], "a")
    assert config_hash(["--config", str(spelt)], "b") == default
    # a default changed in code changes the hash
    monkeypatch.setitem(harness._PARAMS["tails"], "sampling.samples", (int, 40, 1))
    assert config_hash(["--seed", "1"], "c") != default


class _Reads(dict):
    """A config section that records in log every key read from it."""

    def __init__(self, items, log, part):
        super().__init__(items)
        self.log, self.part = log, part

    def __getitem__(self, key):
        self.log.add(f"{self.part}.{key}")
        return super().__getitem__(key)

    def __contains__(self, key):
        self.log.add(f"{self.part}.{key}")
        return super().__contains__(key)

    def get(self, key, default=None):
        self.log.add(f"{self.part}.{key}")
        return super().get(key, default)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_runners_read_exactly_their_table(tmp_path, name):
    cfg = cli.default_config(name)
    table = harness._PARAMS[name]
    read = set()
    # a derived default reads the keys it is computed from
    for _, default, _ in table.values():
        if callable(default):
            default(_Reads(cfg.geometry, read, "geometry"))
    cfg.geometry = _Reads(cfg.geometry, read, "geometry")
    cfg.sampling = _Reads(cfg.sampling, read, "sampling")
    if name == "oracle-check":
        oracle_check(cfg, str(tmp_path))
    else:
        harness._DISPATCH[name](cfg, str(tmp_path))
    assert read - {"sampling.seed"} <= set(table)
    assert {key for key, (_, default, _) in table.items() if default is not None} <= read


def test_run_refuses_by_assumption_name(tmp_path):
    cfg = ExperimentConfig.from_json({
        "experiment": "tails",
        "spec": {"kind": "LogNormal", "params": {"mu": 0.0, "sigma": 1.0}},
        "geometry": {"x": [3, 0]},
        "sampling": {"samples": 5, "seed": 1},
    })
    with pytest.raises(AssumptionError) as err:
        run(cfg, out_dir=tmp_path)
    assert err.value.name == "A1"
    cfg.override_assumptions = True
    assert run(cfg, out_dir=tmp_path).experiment == "tails"


def test_oracle_check_passes_and_detects_corruption(tmp_path, monkeypatch):
    battery = [{"seed": 11, "x": [2, 1], "radius": 3, "L": 24,
                "episodes": 4000}]
    cfg = _config("oracle-check", sampling={"seed": 1, "battery": battery})
    report, assertions, _, warn = oracle_check(cfg)
    assert assertions == {"all_sandwich_ok": True, "all_mc_ok": True}
    assert not warn
    # corrupt the solver's operator only, scaling its stored pair weights
    # (the steps of P) by 1 - 1e-4: the path enumerator builds its own step
    # matrix, so it still sums the true walk
    real = solver_mod._KilledWalk.__init__

    def corrupted(kw, *args, **kwargs):
        real(kw, *args, **kwargs)
        kw.coupling *= 1.0 - 1e-4

    monkeypatch.setattr(solver_mod._KilledWalk, "__init__", corrupted)
    _, bad, _, _ = oracle_check(cfg)
    assert not bad["all_sandwich_ok"]


def test_oracle_check_empty_battery_warns_vacuous(tmp_path):
    cfg = _config("oracle-check", sampling={"seed": 1, "battery": []})
    with pytest.warns(UserWarning, match="vacuous"):
        manifest = run(cfg, out_dir=tmp_path)
    assert manifest.all_passed()
    assert any("vacuous" in w for w in manifest.warnings)


def test_cli_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = cli.main(["--out", out, "--seed", "2", "solve"])
    assert code == 0
    captured = capsys.readouterr()
    assert "pass" in captured.out
    assert os.path.exists(os.path.join(out, "manifest.json"))

    cfg_path = tmp_path / "ln.json"
    cfg_path.write_text(json.dumps({
        "experiment": "tails",
        "spec": {"kind": "LogNormal", "params": {"mu": 0.0, "sigma": 1.0}},
        "geometry": {"x": [3, 0]},
        "sampling": {"samples": 5, "seed": 1},
    }))
    code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "r2"),
                     "tails"])
    assert code == 3
    assert "refused: (A1)" in capsys.readouterr().err
    code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "r3"),
                     "--override-assumptions", "tails"])
    assert code == 0


def test_cli_builds_one_parser_per_process(tmp_path, monkeypatch):
    # main reuses the parser: a bad flag after good runs still exits 2
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        for seed in ("1", "2"):
            assert cli.main(["solve", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--bogus", "--out", str(tmp_path / "r")])
    finally:
        cli.build_parser.cache_clear()
    assert exc.value.code == 2
    assert built.count("rwpot") == 1
    assert not (tmp_path / "r").exists()


def test_cli_crash_exits_4_naming_the_exception(tmp_path, capsys, monkeypatch):
    # exit 1 means "some assertion failed": a crash has its own code
    def crash(cfg, out):
        raise RuntimeError("boom")

    monkeypatch.setitem(harness._DISPATCH, "solve", crash)
    out = tmp_path / "made" / "r"
    assert cli.main(["solve", "--seed", "1", "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == ["crash: RuntimeError: boom"]
    assert not (tmp_path / "made").exists()

    def interrupt(cfg, out):
        raise KeyboardInterrupt

    monkeypatch.setitem(harness._DISPATCH, "solve", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["solve", "--seed", "1", "--out", str(out)])


def test_cli_rejects_unknown_threads_flag(tmp_path, capsys):
    for argv in (["tails", "--threads", "8"], ["--threads", "8", "tails"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_chi_supermartingale_runs_in_the_configured_dimension(tmp_path,
                                                              monkeypatch):
    from rwpot import coarse, solver

    dims = []
    exit_functionals = solver.exit_functionals

    def spy(field, *args, **kwargs):
        dims.append(field.dimension)
        return exit_functionals(field, *args, **kwargs)

    # chi_evaluate calls coarse's name; exit_functional, solver's
    for module in (coarse, solver):
        monkeypatch.setattr(module, "exit_functionals", spy)
    cfg = _config("chi", geometry={"d": 3, "l": 4},
                  sampling={"seed": 3, "samples": 1, "trials": 4})
    assert run(cfg, out_dir=tmp_path).all_passed()
    assert set(dims) == {3}
    assert len(dims) == 2 + 4  # one per probed field, then one per trial


def test_default_chi_run_builds_a_handful_of_layouts(tmp_path):
    # one layout per shape: the field box, and one stack of shells per count
    solver_mod._box_site_set.cache_clear()
    solver_mod._shell_stack.cache_clear()
    assert run(cli.default_config("chi"), out_dir=tmp_path).all_passed()
    assert solver_mod._box_site_set.cache_info().misses <= 3
    assert solver_mod._shell_stack.cache_info().misses <= 3


def test_cli_default_configs_cover_every_experiment():
    for name in EXPERIMENTS:
        cfg = cli.default_config(name)
        assert cfg.experiment == name
        assert cfg.seed == 1
