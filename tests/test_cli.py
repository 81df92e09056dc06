import csv
from pathlib import Path

import pytest
import yaml

from riskbandits.cli import main
from riskbandits.config import ExperimentConfig, load_config, parse_config, parse_distribution
from riskbandits.errors import ConfigError
from riskbandits.policy import SimplePolicy, UcbPolicy
from riskbandits.sim import read_report_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, doc):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _base_doc():
    return {
        "version": 1,
        "seed": 7,
        "arms": [
            {"kind": "gaussian", "mean": 0.0, "stddev": 1.0},
            {"kind": "point-mass", "value": -0.5},
        ],
        "criterion": {"kind": "cvar", "alpha": 0.1},
    }


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_parse_distribution_kinds():
    assert parse_distribution({"kind": "gaussian", "mean": 0, "stddev": 1})
    assert parse_distribution({"kind": "uniform", "lo": 0, "hi": 1})
    assert parse_distribution({"kind": "bernoulli-scaled", "p": 0.4, "lo": -1, "hi": 2})
    pw = parse_distribution(
        {"kind": "piecewise-linear-cdf", "knots": [[0, 0], [1, 0.1], [5, 0.1], [50, 1]]}
    )
    assert pw.quantile(0.9) == pytest.approx(45.0)
    with pytest.raises(ConfigError):
        parse_distribution({"kind": "gaussian", "mean": 0})
    with pytest.raises(ConfigError):
        parse_distribution({"kind": "gaussian", "mean": 0, "stddev": 1, "extra": 2})
    with pytest.raises(ConfigError):
        parse_distribution({"kind": "lognormal", "mu": 0})
    with pytest.raises(ConfigError):
        parse_distribution({"kind": "uniform", "lo": 2, "hi": 1})


def test_parse_config_requires_core_keys():
    doc = _base_doc()
    for key in ("version", "seed", "arms", "criterion"):
        broken = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(ConfigError):
            parse_config(broken)


def test_parse_config_rejects_unknown_keys():
    doc = _base_doc()
    doc["horizon"] = 100  # misspelling of 'horizons'
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "horizon" in str(err.value)
    doc2 = _base_doc()
    doc2["criterion"]["alpa"] = 0.2
    with pytest.raises(ConfigError):
        parse_config(doc2)


def test_parse_config_version_gate():
    doc = _base_doc()
    doc["version"] = 2
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_config_estimator_and_mixture_validation():
    doc = _base_doc()
    doc["estimators"] = ["performance", "regret"]
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = _base_doc()
    doc["mixtures"] = [[0.5, 0.3, 0.2]]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_policy_resolution_uses_certificate():
    cfg = parse_config({**_base_doc(), "policies": [{"kind": "ucb", "alpha": 2.5}]})
    policy = cfg.policy_objects()[0][1]
    assert isinstance(policy, UcbPolicy)
    cert = cfg.criterion.stability_certificate(cfg.arms)
    assert policy.certificate == cert and policy.ucb_alpha == 2.5
    # explicit overrides win
    cfg2 = parse_config(
        {**_base_doc(), "policies": [{"kind": "ucb", "a": 2.0, "b": 0.4, "q": 2.0}]}
    )
    assert cfg2.policy_objects()[0][1].certificate.b == 0.4
    cfg3 = parse_config({**_base_doc(), "policies": [{"kind": "simple", "p": [1, 0]}]})
    assert isinstance(cfg3.policy_objects()[0][1], SimplePolicy)
    cfg4 = parse_config(
        {**_base_doc(), "policies": [{"kind": "bad1-oracle"}, {"kind": "bad2-oracle"}]}
    )
    labels = [label for label, _ in cfg4.policy_objects()]
    assert labels == ["bad1-oracle", "bad2-oracle"]


def test_shipped_example_configs_parse():
    for name in ("cvar_gaussians.yaml", "bad1_counterexample.yaml", "var_flat_rate.yaml"):
        cfg = load_config(CONFIG_DIR / name)
        assert cfg.version == 1


# ---------------------------------------------------------------------------
# Subcommands and exit codes
# ---------------------------------------------------------------------------


def test_eval_outputs_table(tmp_path, capsys):
    doc = _base_doc()
    doc["mixtures"] = [[0.5, 0.5]]
    code = main(["eval", "--config", _write(tmp_path, doc), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "arm1" in out and "mix[0.5,0.5]" in out
    assert (tmp_path / "eval.csv").exists()


def test_eval_bad1_vertices(tmp_path, capsys):
    code = main(["eval", "--config", str(CONFIG_DIR / "bad1_counterexample.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    assert "46" in out and "10" in out


def test_eval_cvar_gaussian_value(tmp_path, capsys):
    doc = {
        "version": 1,
        "seed": 0,
        "arms": [{"kind": "gaussian", "mean": 0.0, "stddev": 1.0}],
        "criterion": {"kind": "cvar", "alpha": 0.05},
    }
    main(["eval", "--config", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert "-2.0627" in out


def test_eval_mean_point_mass(tmp_path, capsys):
    doc = {
        "version": 1,
        "seed": 0,
        "arms": [{"kind": "point-mass", "value": 5.0}],
        "criterion": {"kind": "mean"},
    }
    main(["eval", "--config", _write(tmp_path, doc)])
    assert "5" in capsys.readouterr().out


def test_invalid_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("version: 1\nseed: 1\n")  # no arms/criterion
    assert main(["eval", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["eval", "--config", str(tmp_path / "missing.yaml")]) == 1


def test_oracle_command(tmp_path, capsys):
    doc = _base_doc()
    doc["grid_resolution"] = 0.25
    doc["horizons"] = [100]
    doc["criterion"]["certificate"] = {"a": 2.0, "b": 0.5, "q": 2.0}
    code = main(["oracle", "--config", _write(tmp_path, doc), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "best arm: arm2" in out  # point mass at -0.5 beats the Gaussian tail
    assert (tmp_path / "oracle.csv").exists()


def test_policy_labels_round_trip():
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [1.0, 0.0], "label": "always-first"}]
    cfg = parse_config(doc)
    labels = [label for label, _ in cfg.policy_objects()]
    assert labels == ["always-first"]
    doc["reference"] = {"kind": "bad1-oracle", "label": "oracle-schedule"}
    cfg = parse_config(doc)
    assert cfg.resolve_policy(cfg.reference) is not None


def test_simulate_roundtrip_metadata(tmp_path):
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [1.0, 0.0]}]
    doc["horizons"] = [64]
    doc["replications"] = 5
    doc["estimators"] = ["performance", "horizon-gap"]
    code = main(
        ["simulate", "--config", _write(tmp_path, doc), "--out", str(tmp_path), "--reps", "4"]
    )
    assert code == 0
    files = list(tmp_path.glob("simulate_*.csv"))
    assert len(files) == 1
    report = read_report_csv(files[0])
    assert report.meta["seed"] == "7"
    assert report.meta["version"] == "1"
    assert report.meta["criterion"] == "cvar(alpha=0.1)"
    assert report.meta["replications"] == "4"
    assert all(r.reps == 4 for r in report.rows)
    assert {r.estimator for r in report.rows} == {"performance", "horizon-gap"}


@pytest.mark.parametrize(
    "field,value",
    [
        ("certificate-a", float("nan")),
        ("certificate-b", float("inf")),
        ("ucb-alpha", float("nan")),
        ("simple-p", [float("nan"), 0.0, 1.0]),
    ],
)
def test_simulate_rejects_non_finite_policy_parameters(tmp_path, capsys, field, value):
    doc = _base_doc()
    doc["arms"].append({"kind": "gaussian", "mean": 0.5, "stddev": 1.0})
    doc["criterion"]["certificate"] = {"a": 2.0, "b": 0.5, "q": 2.0}
    doc["policies"] = [{"kind": "ucb"}]
    doc["horizons"] = [64]
    doc["replications"] = 2
    if field.startswith("certificate-"):
        doc["criterion"]["certificate"][field[-1]] = value
    elif field == "ucb-alpha":
        doc["policies"] = [{"kind": "ucb", "alpha": value}]
    else:
        doc["policies"] = [{"kind": "simple", "p": value}]
    path = _write(tmp_path, doc)
    assert ".nan" in Path(path).read_text() or ".inf" in Path(path).read_text()
    code = main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "section,spec",
    [
        ("arm", {"kind": "gaussian", "mean": NAN, "stddev": 1.0}),
        ("arm", {"kind": "gaussian", "mean": 0.0, "stddev": INF}),
        ("arm", {"kind": "point-mass", "value": NAN}),
        ("arm", {"kind": "uniform", "lo": 0.0, "hi": INF}),
        ("arm", {"kind": "bernoulli-scaled", "p": 0.5, "lo": -INF, "hi": 1.0}),
        ("arm", {"kind": "piecewise-linear-cdf", "knots": [[0, 0.0], [NAN, 0.5], [2, 1.0]]}),
        ("arm", {"kind": "piecewise-linear-cdf", "knots": [[0, 0.0], [1, NAN], [2, 1.0]]}),
        ("criterion", {"kind": "neg-tsv", "r": NAN}),
        ("criterion", {"kind": "mean-variance", "rho": NAN}),
        ("criterion", {"kind": "entropic", "theta": NAN}),
        ("criterion", {"kind": "sharpe", "r": NAN, "eps_sigma": 0.5}),
        ("criterion", {"kind": "sharpe", "r": 0.0, "eps_sigma": NAN}),
        ("criterion", {"kind": "sortino", "r": NAN, "eps_sigma": 0.5}),
        ("criterion", {"kind": "sortino", "r": 0.0, "eps_sigma": INF}),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(
        [v["kind"]] + [k for k, x in v.items() if "nan" in str(x) or "inf" in str(x)]
    ),
)
def test_simulate_rejects_non_finite_arm_and_criterion_parameters(tmp_path, capsys, section, spec):
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [1.0, 0.0]}]
    doc["horizons"] = [64]
    doc["replications"] = 2
    if section == "arm":
        doc["arms"][1] = spec
    else:
        doc["criterion"] = spec
    path = _write(tmp_path, doc)
    assert ".nan" in Path(path).read_text() or ".inf" in Path(path).read_text()
    code = main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("parallel", ["0", "-2"])
def test_simulate_refuses_fewer_than_one_worker(tmp_path, capsys, parallel):
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [1.0, 0.0]}]
    doc["horizons"] = [16]
    doc["replications"] = 2
    path = _write(tmp_path, doc)
    code = main(["simulate", "--config", path, "--out", str(tmp_path), "--parallel", parallel])
    assert code == 1
    assert "error: need at least one worker process" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_resolves_each_policy_once_for_all_horizons(tmp_path, monkeypatch):
    kinds = []
    resolve = ExperimentConfig.resolve_policy

    def counting_resolve(self, spec):
        kinds.append(spec["kind"])
        return resolve(self, spec)

    monkeypatch.setattr(ExperimentConfig, "resolve_policy", counting_resolve)
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [1.0, 0.0]}, {"kind": "ucb"}]
    doc["reference"] = {"kind": "simple", "p": [0.5, 0.5], "label": "half"}
    doc["horizons"] = [16, 32, 64]
    doc["replications"] = 2
    assert main(["simulate", "--config", _write(tmp_path, doc), "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("simulate_*.csv"))) == 6
    assert sorted(kinds) == ["simple", "simple", "ucb"]


def test_simulate_seed_override_changes_results(tmp_path):
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [1.0, 0.0]}]
    doc["horizons"] = [64]
    doc["replications"] = 3
    doc["estimators"] = ["performance"]
    cfg_path = _write(tmp_path, doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg_path, "--out", str(out_a)])
    main(["simulate", "--config", cfg_path, "--out", str(out_b), "--seed", "8"])
    rows_a = read_report_csv(next(out_a.glob("*.csv"))).rows
    rows_b = read_report_csv(next(out_b.glob("*.csv"))).rows
    assert any(a.value != b.value for a, b in zip(rows_a, rows_b))


def test_check_command_passes_on_good_config(tmp_path, capsys):
    doc = {
        "version": 1,
        "seed": 3,
        "arms": [
            {"kind": "gaussian", "mean": 0.0, "stddev": 1.0},
            {"kind": "gaussian", "mean": 0.1, "stddev": 1.0},
        ],
        "criterion": {"kind": "cvar", "alpha": 0.1},
        "check": {"pairs": 30, "dkw_reps": 500},
    }
    code = main(["check", "--config", _write(tmp_path, doc), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] C1" in out and "[PASS] C2" in out
    assert "C3" in out and "fitted b_alpha" in out
    assert (tmp_path / "check.csv").exists()


def test_check_validates_shipped_certificate_not_override(tmp_path, capsys):
    doc = {
        "version": 1,
        "seed": 3,
        "arms": [
            {"kind": "gaussian", "mean": 0.0, "stddev": 1.0},
            {"kind": "gaussian", "mean": 0.1, "stddev": 1.0},
        ],
        "criterion": {
            "kind": "cvar",
            "alpha": 0.1,
            "certificate": {"a": 2.0, "b": 0.01, "q": 2.0},  # policy knob, not a claim
        },
        "check": {"pairs": 30, "dkw_reps": 500},
    }
    code = main(["check", "--config", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] modulus[cvar]" in out


def test_check_command_fails_on_flat_level_set(tmp_path, capsys):
    doc = {
        "version": 1,
        "seed": 3,
        "arms": [
            {
                "kind": "piecewise-linear-cdf",
                "knots": [[0, 0], [1, 0.3], [2, 0.3], [3, 1.0]],
            }
        ],
        "criterion": {"kind": "var", "alpha": 0.3},
        "check": {"pairs": 20, "dkw_reps": 500},
    }
    code = main(["check", "--config", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] C3" in out and "[FAIL] C4" in out


def test_check_default_dkw_grid_passes_on_correct_code(tmp_path, capsys):
    doc = {
        "version": 1,
        "seed": 14,
        "arms": [
            {"kind": "gaussian", "mean": 0.0, "stddev": 1.0},
            {"kind": "gaussian", "mean": 0.1, "stddev": 1.0},
        ],
        "criterion": {"kind": "cvar", "alpha": 0.1},
        "check": {"pairs": 20},
    }
    main(["check", "--config", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert "[PASS] dkw-concentration" in out


def _arms(*specs):
    return {"arms": [{"kind": "gaussian", "mean": 0.0, "stddev": 1.0}, *specs]}


@pytest.mark.parametrize(
    "command,patch,expect",
    [
        pytest.param("simulate", {"seed": "x"}, "seed", id="seed-string"),
        pytest.param("simulate", {"horizons": [100.7]}, "horizons", id="horizon-fraction"),
        pytest.param("simulate", {"horizons": ["abc"]}, "horizons", id="horizon-string"),
        pytest.param("simulate", {"horizons": 100}, "horizons", id="horizons-scalar"),
        pytest.param("simulate", {"checkpoints": [2, "x"]}, "checkpoints", id="checkpoint-string"),
        pytest.param("simulate", {"replications": 2.9}, "replications", id="replications-fraction"),
        pytest.param("simulate", {"replications": True}, "replications", id="replications-bool"),
        pytest.param("simulate", {"ucb_alpha": "x"}, "ucb_alpha", id="ucb-alpha-string"),
        pytest.param(
            "eval", {"policies": [{"kind": "ucb", "typo_key": 7}]}, "typo_key",
            id="policy-unknown-key",
        ),
        pytest.param(
            "eval", {"policies": [{"kind": "nosuchpolicy"}]}, "nosuchpolicy", id="policy-unknown-kind"
        ),
        pytest.param("eval", {"policies": [{"kind": "simple"}]}, "'p'", id="policy-missing-p"),
        pytest.param(
            "eval", {"reference": {"kind": "simple", "p": [1.0, 0.0], "bogus": 1}}, "bogus",
            id="reference-unknown-key",
        ),
        pytest.param("eval", {"reference": "best-arms"}, "best-arms", id="reference-unknown"),
        pytest.param(
            "eval", {"policies": [{"kind": "ucb", "label": 5}]}, "policy label must be a string",
            id="policy-label-int",
        ),
        pytest.param(
            "eval", {"policies": [{"kind": "ucb", "a": NAN}]}, "policy a must be finite",
            id="policy-a-nan",
        ),
        pytest.param(
            "oracle", {"reference": {"kind": "simple", "p": [INF, 0.0]}},
            "reference p entry must be finite", id="reference-p-inf",
        ),
        pytest.param("eval", {"mixtures": [[0.5, "a"]]}, "mixture", id="mixture-string"),
        pytest.param("eval", {"mixtures": [0.5, 0.5]}, "mixture", id="mixture-scalar"),
        pytest.param(
            "eval", {"mixtures": [[float("nan"), 1.0]]}, "mixture weights", id="mixture-nan"
        ),
        pytest.param(
            "simulate", _arms({"kind": "uniform", "lo": "0", "hi": 1.0}), "uniform lo",
            id="arm-string",
        ),
        pytest.param(
            "eval", _arms({"kind": "gaussian", "mean": 0.0, "stddev": 1.0, 7: 1, "x": 2}),
            "unknown gaussian distribution keys: [7, 'x']", id="arm-mixed-type-keys",
        ),
        pytest.param(
            "eval", {7: 1, "x": 2}, "unknown config keys: [7, 'x']", id="config-mixed-type-keys"
        ),
        pytest.param("check", {"check": {"pairz": 40}}, "pairz", id="check-unknown-key"),
        pytest.param("check", {"check": {"pairs": "many"}}, "pairs", id="check-pairs-string"),
        pytest.param("check", {"check": {"dkw_reps": 2.5}}, "dkw_reps", id="check-reps-fraction"),
        pytest.param(
            "check",
            {**_arms({"kind": "gaussian", "mean": 0.0, "stddev": 40.0}),
             "criterion": {"kind": "entropic", "theta": 1.0}},
            "exp-moment finite",
            id="check-entropic-exp-moment-overflow",
        ),
    ],
)
def test_bad_config_values_exit_1_with_an_error(tmp_path, capsys, command, patch, expect):
    assert expect in _error_of(tmp_path, capsys, command, patch)


def _error_of(tmp_path, capsys, command, patch, *flags):
    """The ``error:`` line of ``command`` on a patched config with extra
    ``flags``, which must exit 1 and write no CSV."""
    doc = _base_doc()
    doc.update(policies=[{"kind": "simple", "p": [1.0, 0.0]}], horizons=[64], replications=2)
    doc.update(patch)
    code = main([command, "--config", _write(tmp_path, doc), "--out", str(tmp_path), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert not list(tmp_path.glob("*.csv"))
    return err


@pytest.mark.parametrize("command", ["eval", "oracle", "simulate", "check"])
@pytest.mark.parametrize("key", ["policies", "reference"])
def test_simple_weights_not_one_per_arm_exit_1(tmp_path, capsys, command, key):
    # refused while loading, also by the commands that never build the policy
    spec = {"kind": "simple", "p": [1.0]}
    patch = {key: [spec] if key == "policies" else spec}
    err = _error_of(tmp_path, capsys, command, patch)
    assert "has 1 weights for 2 arms" in err


@pytest.mark.parametrize("command", ["eval", "oracle", "simulate", "check"])
@pytest.mark.parametrize(
    "patch",
    [
        {"ucb_alpha": 2.0},
        {"ucb_alpha": NAN},
        {"policies": [{"kind": "ucb", "alpha": 1.5}]},
        {"reference": {"kind": "ucb", "alpha": INF}},
    ],
    ids=["ucb-alpha-2", "ucb-alpha-nan", "policy-alpha", "reference-alpha"],
)
def test_ucb_alpha_at_or_below_2_or_non_finite_exits_1(tmp_path, capsys, command, patch):
    # refused while loading, before any command builds a UCB policy
    assert "must be finite and exceed 2" in _error_of(tmp_path, capsys, command, patch)


@pytest.mark.parametrize("command", ["eval", "oracle", "simulate", "check"])
@pytest.mark.parametrize(
    "patch,expect",
    [
        pytest.param({"seed": -5}, "seed must be >= 0", id="seed-negative"),
        pytest.param({"check": {"seed": -2}}, "check seed must be >= 0", id="check-seed-negative"),
        pytest.param({"grid_resolution": NAN}, "grid_resolution", id="grid-resolution-nan"),
        pytest.param({"grid_resolution": 0.0}, "grid_resolution", id="grid-resolution-0"),
        pytest.param({"grid_resolution": 1.5}, "grid_resolution", id="grid-resolution-1.5"),
        pytest.param({"check": {"pairs": -4}}, "check pairs must be >= 1", id="pairs-negative"),
        pytest.param({"check": {"pairs": 0}}, "check pairs must be >= 1", id="pairs-0"),
        pytest.param(
            {"check": {"dkw_reps": 50}}, "check dkw_reps must be >= 100, got 50", id="dkw-reps-50"
        ),
        pytest.param({"check": {"grid_step": NAN}}, "check grid_step", id="grid-step-nan"),
        pytest.param({"check": {"grid_step": -1e-3}}, "check grid_step", id="grid-step-negative"),
        pytest.param({"check": {"b_alpha": NAN}}, "check b_alpha", id="b-alpha-nan"),
        pytest.param({"check": {"b_alpha": 0.0}}, "check b_alpha", id="b-alpha-0"),
        pytest.param({"check": {"m_alpha": INF}}, "check m_alpha", id="m-alpha-inf"),
        pytest.param({"check": {"dkw_grid": [[100, NAN]]}}, "check dkw_grid", id="dkw-x-nan"),
        pytest.param({"check": {"dkw_grid": [[100, -0.5]]}}, "check dkw_grid", id="dkw-x-negative"),
        pytest.param({"check": {"dkw_grid": [[0, 0.1]]}}, "check dkw_grid", id="dkw-t-0"),
        pytest.param({"check": {"dkw_grid": [[-6000, 0.1]]}}, "check dkw_grid", id="dkw-t-negative"),
    ],
)
def test_out_of_range_seed_grid_and_check_knobs_exit_1_at_load(
    tmp_path, capsys, command, patch, expect
):
    # refused while loading, also by the commands that never read the value
    assert expect in _error_of(tmp_path, capsys, command, patch)


@pytest.mark.parametrize("command", ["eval", "oracle", "simulate", "check"])
def test_negative_seed_flag_exits_1(tmp_path, capsys, command):
    err = _error_of(tmp_path, capsys, command, {}, "--seed", "-1")
    assert err.startswith("error: --seed must be >= 0")


@pytest.mark.parametrize("command", ["eval", "oracle", "simulate", "check"])
@pytest.mark.parametrize(
    "patch,expect",
    [
        pytest.param({"horizons": [100, 1]}, "horizon must be >= the arm count 2", id="horizon-1"),
        pytest.param({"horizons": [0]}, "horizon must be >= the arm count 2", id="horizon-0"),
        pytest.param({"horizons": [-64]}, "horizon must be >= the arm count 2", id="horizon-negative"),
        pytest.param({"checkpoints": [1, 32]}, "must lie in [2, 64]", id="checkpoint-below-arms"),
        pytest.param({"checkpoints": [2, 65]}, "must lie in [2, 64]", id="checkpoint-above-horizon"),
        pytest.param(
            {"horizons": [128, 64], "checkpoints": [2, 100]}, "must lie in [2, 64]",
            id="checkpoint-above-smallest-horizon",
        ),
    ],
)
def test_horizon_below_arm_count_or_checkpoint_outside_horizon_exits_1_at_load(
    tmp_path, capsys, command, patch, expect
):
    # refused while loading, before simulate writes the CSV of any horizon
    assert expect in _error_of(tmp_path, capsys, command, patch)


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize(
    "policies,labels",
    [
        ([{"kind": "ucb", "alpha": 3.0}, {"kind": "ucb", "alpha": 8.0}], ("ucb", "ucb")),
        (
            [{"kind": "simple", "p": [1, 0], "label": "a/b"}, {"kind": "ucb", "label": "a-b"}],
            ("a/b", "a-b"),
        ),
        (
            [{"kind": "bad1-oracle", "label": "my run"}, {"kind": "ucb", "label": "myrun"}],
            ("my run", "myrun"),
        ),
    ],
    ids=["same-kind", "slash", "space"],
)
def test_two_policies_writing_the_same_csv_exit_1(tmp_path, capsys, command, policies, labels):
    err = _error_of(tmp_path, capsys, command, {"policies": policies})
    assert f"policies {labels[0]!r} and {labels[1]!r}" in err


@pytest.mark.parametrize(
    "config",
    sorted(CONFIG_DIR.glob("*.yaml")) + [CONFIG_DIR.parent / "perfbench" / "close_gaussians.yaml"],
    ids=lambda p: p.stem,
)
def test_every_csv_row_has_one_cell_per_column(tmp_path, capsys, config):
    commands = ["eval", "oracle", "check"] + (["simulate"] if load_config(config).policies else [])
    for command in commands:
        flags = ["--reps", "2"] if command == "simulate" else []
        code = main([command, "--config", str(config), "--out", str(tmp_path / command), *flags])
        assert code in (0, 2)  # a failed check still writes its CSV
    capsys.readouterr()
    paths = sorted(tmp_path.glob("*/*.csv"))
    assert {p.parent.name for p in paths} == set(commands)
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), path
