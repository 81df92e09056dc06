from pathlib import Path

import pytest
import yaml

from riskbandits.cli import main
from riskbandits.config import load_config, parse_config, parse_distribution
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
    assert policy.params.b == cert.b and policy.params.ucb_alpha == 2.5
    # explicit overrides win
    cfg2 = parse_config(
        {**_base_doc(), "policies": [{"kind": "ucb", "a": 2.0, "b": 0.4, "q": 2.0}]}
    )
    assert cfg2.policy_objects()[0][1].params.b == 0.4
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
