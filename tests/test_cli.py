import csv
from pathlib import Path

import pytest
import yaml

from riskbandits import checks, cli, criteria, norms, sim
from riskbandits.cli import main
from riskbandits.config import _file_stem, load_config, parse_config, parse_distribution
from riskbandits.criteria import CVaRCriterion, StabilityCertificate
from riskbandits.dist import Gaussian
from riskbandits.errors import ConfigError
from riskbandits.oracle import expected_pull_bound, lipschitz_constant, proxy_regret_bound
from riskbandits.policy import Bad1OraclePolicy, SimplePolicy, UcbPolicy
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
    policy = cfg.policies[0][1]
    assert isinstance(policy, UcbPolicy)
    cert = cfg.criterion.stability_certificate(cfg.arms)
    assert policy.certificate == cert and policy.ucb_alpha == 2.5
    # explicit overrides win
    cfg2 = parse_config(
        {**_base_doc(), "policies": [{"kind": "ucb", "a": 2.0, "b": 0.4, "q": 2.0}]}
    )
    assert cfg2.policies[0][1].certificate.b == 0.4
    cfg3 = parse_config({**_base_doc(), "policies": [{"kind": "simple", "p": [1, 0]}]})
    assert isinstance(cfg3.policies[0][1], SimplePolicy)
    cfg4 = parse_config(
        {**_base_doc(), "policies": [{"kind": "bad1-oracle"}, {"kind": "bad2-oracle"}]}
    )
    labels = [label for label, _ in cfg4.policies]
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


@pytest.mark.parametrize(
    "config",
    sorted(CONFIG_DIR.glob("*.yaml")) + [CONFIG_DIR.parent / "perfbench" / "close_gaussians.yaml"],
    ids=lambda p: p.stem,
)
def test_libyaml_and_python_loaders_read_the_same_document(config):
    text = config.read_text(encoding="utf-8")
    fast = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    slow = yaml.load(text, Loader=yaml.SafeLoader)
    assert fast == slow and repr(fast) == repr(slow)


def test_malformed_yaml_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("version: 1\narms: [{kind: gaussian, mean: 0\n")
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: could not parse {path}:")


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


def test_oracle_prints_the_best_arm_sweep_and_bounds(tmp_path, capsys):
    doc = {
        **_base_doc(),
        "arms": [{"kind": "point-mass", "value": 1.0}, {"kind": "point-mass", "value": 0.2}],
        "criterion": {"kind": "mean"},
        "grid_resolution": 0.5,
        "horizons": [100],
    }
    assert main(["oracle", "--config", _write(tmp_path, doc)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "best arm: arm1  value 1"
    assert "simplex sweep argmax: p=(1,0)  value 1" in out
    assert any(line.startswith("stationary-gap constant L: ") for line in out)
    assert any(line.startswith("T=100: expected pulls arm2<=") for line in out)


def test_oracle_without_a_certificate_prints_no_constant_and_no_bounds(capsys):
    # the Bad1 criterion has no stability certificate
    assert main(["oracle", "--config", str(CONFIG_DIR / "bad1_counterexample.yaml")]) == 0
    out = capsys.readouterr().out
    assert "simplex sweep argmax: p=(" in out
    assert "stationary-gap constant" not in out
    assert "expected pulls" not in out


def test_oracle_takes_each_norm_distance_once(monkeypatch, capsys):
    # three pairwise distances for L, then one per suboptimal arm for the
    # proxy-regret bounds of both horizons
    calls = []
    sup_distance = norms.sup_distance

    def counting_sup_distance(*args, **kwargs):
        calls.append(args)
        return sup_distance(*args, **kwargs)

    monkeypatch.setattr(norms, "sup_distance", counting_sup_distance)
    assert main(["oracle", "--config", str(CONFIG_DIR / "cvar_gaussians.yaml")]) == 0
    assert capsys.readouterr().out.count("expected pulls") == 2
    assert len(calls) <= 5


def _close_cvar_doc(policies):
    return {
        **_base_doc(),
        "arms": [{"kind": "gaussian", "mean": 0.0, "stddev": 1.0},
                 {"kind": "gaussian", "mean": -0.75, "stddev": 1.0}],
        "policies": policies,
        "horizons": [1000],
    }


def test_oracle_bounds_a_ucb_record_at_its_own_alpha_and_certificate(tmp_path, capsys):
    own = {"kind": "ucb", "alpha": 6.0, "a": 2.0, "b": 0.45, "q": 2.0}
    cfg = parse_config(_close_cvar_doc([own]))
    cert = StabilityCertificate(2.0, 0.45, 2.0)
    pulls = expected_pull_bound(cfg.criterion, cfg.arms, cert, 6.0, [1000])
    lipschitz = lipschitz_constant(cert, cfg.arms, cfg.criterion.functionals)
    regret = proxy_regret_bound(cfg.criterion, cfg.arms, lipschitz, pulls)[1000]
    path = _write(tmp_path, _close_cvar_doc([own]))
    assert main(["oracle", "--config", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    # the criterion's default certificate gave arm2<=7.32156e+07 here
    assert f"T=1000 [ucb]: expected pulls arm2<={pulls[1000][1]:.6g}; " \
        f"proxy-regret bound {regret:.6g}" in out
    assert pulls[1000][1] == pytest.approx(122.366, abs=1e-3)
    assert not any(line.startswith("T=1000:") for line in out)
    rows = (tmp_path / "oracle.csv").read_text().splitlines()
    assert f"pull-bound[ucb],2,1000,{pulls[1000][1]!r}" in rows
    assert f"proxy-regret-bound[ucb],,1000,{regret!r}" in rows
    assert f"lipschitz[ucb],,,{lipschitz!r}" in rows


def test_oracle_prints_each_distinct_ucb_learner_once(tmp_path, capsys):
    own = {"kind": "ucb", "alpha": 6.0, "a": 2.0, "b": 0.45, "q": 2.0}
    doc = _close_cvar_doc([{"kind": "ucb"}, {**own, "label": "six"}, {**own, "label": "same"}])
    doc["criterion"]["certificate"] = {"a": 2.0, "b": 0.45, "q": 2.0}
    doc["reference"] = {**own, "alpha": 4.0, "label": "six"}
    assert main(["oracle", "--config", _write(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    # the bare record is the criterion's learner and keeps the unlabelled
    # lines; equal records share one learner; a taken label gets #position
    assert [line.split(":")[0] for line in out.splitlines() if "expected pulls" in line] == [
        "T=1000", "T=1000 [six]", "T=1000 [six#4]",
    ]
    assert out.count("stationary-gap constant L") == 3


def test_oracle_marks_a_pull_bound_at_or_above_its_horizon_vacuous(tmp_path, capsys):
    doc = yaml.safe_load((CONFIG_DIR / "cvar_gaussians.yaml").read_text(encoding="utf-8"))
    del doc["criterion"]["certificate"]
    doc["horizons"] = [1000]
    assert main(["oracle", "--config", _write(tmp_path, doc), "--out", str(tmp_path)]) == 0
    # the criterion's own certificate bounds arm2 by far more than T pulls
    assert "T=1000: expected pulls arm2<=1.67433e+08 (vacuous); " in capsys.readouterr().out
    assert "vacuous" not in (tmp_path / "oracle.csv").read_text()
    doc = yaml.safe_load((CONFIG_DIR / "cvar_gaussians.yaml").read_text(encoding="utf-8"))
    doc["policies"] = [{"kind": "ucb", "alpha": 6.0, "a": 1.0, "label": "wide"}]
    doc["horizons"] = [100, 1000]
    assert main(["oracle", "--config", _write(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    # one bound of a line can be vacuous and the next not, and at a longer
    # horizon the same arm's bound falls below T
    assert "T=100 [wide]: expected pulls arm2<=162.155 (vacuous); arm3<=42.7887; " in out
    assert "T=1000 [wide]: expected pulls arm2<=241.732; arm3<=62.683; " in out


def test_policy_labels_round_trip():
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [1.0, 0.0], "label": "always-first"}]
    cfg = parse_config(doc)
    labels = [label for label, _ in cfg.policies]
    assert labels == ["always-first"]
    doc["policies"][0]["label"] = ""
    assert parse_config(doc).policies[0][0] == ""
    doc["reference"] = {"kind": "bad1-oracle", "label": "oracle-schedule"}
    cfg = parse_config(doc)
    label, reference = cfg.reference
    assert label == "oracle-schedule" and isinstance(reference, Bad1OraclePolicy)


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
    meta, rows = read_report_csv(files[0])
    assert meta["seed"] == "7"
    assert meta["version"] == "1"
    assert meta["criterion"] == "cvar(alpha=0.1)"
    assert meta["replications"] == "4"
    assert all(r.reps == 4 for r in rows)
    assert {r.estimator for r in rows} == {"performance", "horizon-gap"}


def test_simulate_writes_under_the_output_key_unless_out_is_given(tmp_path, capsys):
    doc = _base_doc()
    doc.update(policies=[{"kind": "simple", "p": [1.0, 0.0]}], horizons=[64], replications=2)
    doc["output"] = str(tmp_path / "configured")
    path = _write(tmp_path, doc)
    assert main(["simulate", "--config", path]) == 0
    assert [p.name for p in (tmp_path / "configured").iterdir()] == ["simulate_simple[1,0]_T64.csv"]
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "flag")]) == 0
    assert [p.name for p in (tmp_path / "flag").iterdir()] == ["simulate_simple[1,0]_T64.csv"]
    assert len(list((tmp_path / "configured").iterdir())) == 1
    capsys.readouterr()
    doc["output"] = 5
    assert main(["simulate", "--config", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == "error: output must be a directory path, got 5\n"


@pytest.mark.parametrize("key", ["policies", "reference"])
def test_a_label_that_breaks_a_line_exits_1(tmp_path, capsys, key):
    # a label names simulate's CSV files, oracle.csv rows and check lines;
    # a line break in it corrupts each of them
    name = "policy" if key == "policies" else "reference"
    for brk in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        spec = {"kind": "simple", "p": [0.5, 0.5], "label": f"half{brk}half"}
        err = _error_of(tmp_path, capsys, "simulate", {key: [spec] if key == "policies" else spec})
        assert f"error: {name} label must not break a line, got {spec['label']!r}" in err


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
    for cls, hook in ((SimplePolicy, "__init__"), (UcbPolicy, "__post_init__")):

        def counting(self, *args, _build=getattr(cls, hook), _kind=cls.__name__):
            kinds.append(_kind)
            return _build(self, *args)

        monkeypatch.setattr(cls, hook, counting)
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [1.0, 0.0]}, {"kind": "ucb"}]
    doc["reference"] = {"kind": "simple", "p": [0.5, 0.5], "label": "half"}
    doc["horizons"] = [16, 32, 64]
    doc["replications"] = 2
    assert main(["simulate", "--config", _write(tmp_path, doc), "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("simulate_*.csv"))) == 6
    assert sorted(kinds) == ["SimplePolicy", "SimplePolicy", "UcbPolicy"]


def _oracle_simulate(cfg, out_dir, reps, parallel):
    """The per-(policy, horizon) loop that played every episode afresh at
    each horizon, the reference first: the oracle of the shared episodes."""
    p_star_value = cli._stationary_optimum(cfg)
    want = set(cfg.estimators)
    if "reference-regret" in want:
        ref_label, ref_policy = cli._reference_policy(cfg)
    for horizon in cfg.horizons:
        checkpoints = None if cfg.checkpoints is None else sorted({*cfg.checkpoints, horizon})
        if "reference-regret" in want:
            ref_episodes = sim.run_replications(
                cfg.arms, ref_policy, cfg.criterion, horizon, reps, cfg.seed, checkpoints, parallel
            )
        for label, policy in cfg.policies:
            episodes = sim.run_replications(
                cfg.arms, policy, cfg.criterion, horizon, reps, cfg.seed, checkpoints, parallel
            )
            rows = []
            if "performance" in want:
                rows += sim.estimate_performance(episodes)
            if "proxy-regret" in want and p_star_value is not None:
                rows += sim.estimate_proxy_regret(episodes, p_star_value)
            if "horizon-gap" in want and reps >= 2:
                rows += sim.estimate_horizon_gap(episodes)
            if "reference-regret" in want:
                rows += sim.estimate_reference_regret(episodes, ref_episodes)
            meta = cli._base_meta(cfg)
            meta.update({"policy": label, "horizon": horizon, "replications": reps})
            if "reference-regret" in want:
                meta["reference"] = ref_label
            if p_star_value is not None:
                meta["stationary-optimum"] = repr(float(p_star_value))
            path = out_dir / f"simulate_{_file_stem(label)}_T{horizon}.csv"
            sim.write_report_csv(path, meta, rows)
            print(f"wrote {path} ({len(rows)} rows)")


_BAD1_ARMS = [
    {"kind": "piecewise-linear-cdf", "knots": [[0, 0.0], [1, 0.1], [5, 0.1], [50, 1.0]]},
    {"kind": "point-mass", "value": 5.0},
]

# (config patch, distinct policies among the records and the reference)
_SHARED_CASES = {
    "ucb-reference-equal": (
        {"policies": [{"kind": "ucb"}, {"kind": "simple", "p": [0.5, 0.5]},
                      {"kind": "simple", "p": [0.0, 1.0]}]},
        3,
    ),
    "ucb-reference-new": (
        {"policies": [{"kind": "ucb"}, {"kind": "simple", "p": [0.0, 1.0]}],
         "reference": {"kind": "simple", "p": [0.3, 0.7]}},
        3,
    ),
    "bad1-reference-equal": (
        {"arms": _BAD1_ARMS, "criterion": {"kind": "bad1"}, "grid_resolution": 0.25,
         "policies": [{"kind": "bad1-oracle"}, {"kind": "simple", "p": [0.5, 0.5]}],
         "reference": {"kind": "bad1-oracle", "label": "schedule"}},
        2,
    ),
    "bad1-reference-new": (
        {"arms": _BAD1_ARMS, "criterion": {"kind": "bad1"},
         "policies": [{"kind": "bad1-oracle"}, {"kind": "simple", "p": [0.5, 0.5]}],
         "reference": {"kind": "bad2-oracle"}},
        3,
    ),
}


@pytest.mark.parametrize(
    "horizons,parallel",
    [([64, 16, 40], 1), ([64, 16, 40], 2), ([40, 64, 16], 1)],
    ids=["longest-first-serial", "longest-first-parallel", "longest-second-serial"],
)
@pytest.mark.parametrize("checkpoints", [None, [2, 10]], ids=["doubling", "configured"])
@pytest.mark.parametrize("case", list(_SHARED_CASES))
def test_shared_episodes_write_the_per_horizon_loop_bytes(
    tmp_path, capsys, monkeypatch, case, checkpoints, horizons, parallel
):
    # unsorted horizons off the doubling grid; every distinct policy plays
    # once, and every CSV and stdout line is the per-horizon loop's
    patch, distinct = _SHARED_CASES[case]
    doc = {**_base_doc(), "horizons": horizons, "replications": 3, **patch}
    if checkpoints is not None:
        doc["checkpoints"] = checkpoints
    path = _write(tmp_path, doc)
    (tmp_path / "old").mkdir()
    _oracle_simulate(load_config(path), tmp_path / "old", 3, parallel)
    want_out = capsys.readouterr().out.replace(str(tmp_path / "old"), "DIR")
    played = []

    def counting(arms, policy, *args):
        played.append(policy)
        return sim.run_replications(arms, policy, *args)

    monkeypatch.setattr(cli, "run_replications", counting)
    argv = ["simulate", "--config", path, "--out", str(tmp_path / "new"), "--parallel", str(parallel)]
    assert main(argv) == 0
    assert capsys.readouterr().out.replace(str(tmp_path / "new"), "DIR") == want_out
    assert len(played) == distinct
    assert all(a != b for i, a in enumerate(played) for b in played[:i])
    names = sorted(p.name for p in (tmp_path / "old").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "new").iterdir())
    assert len(names) == 3 * len(doc["policies"])
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


def test_simulate_rows_end_at_each_horizon_with_configured_checkpoints(tmp_path):
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [0.5, 0.5]}]
    doc["horizons"] = [64, 128]
    doc["checkpoints"] = [2, 32]
    doc["replications"] = 3
    doc["estimators"] = ["performance"]
    assert main(["simulate", "--config", _write(tmp_path, doc), "--out", str(tmp_path)]) == 0
    for horizon in (64, 128):
        (path,) = tmp_path.glob(f"simulate_*_T{horizon}.csv")
        meta, rows = read_report_csv(path)
        assert meta["horizon"] == str(horizon)
        assert [r.checkpoint for r in rows] == [2, 32, horizon]


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
    _, rows_a = read_report_csv(next(out_a.glob("*.csv")))
    _, rows_b = read_report_csv(next(out_b.glob("*.csv")))
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


def test_check_validates_shipped_certificate_and_override(tmp_path, capsys):
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
            "certificate": {"a": 2.0, "b": 0.01, "q": 2.0},  # far below the default b
        },
        "check": {"pairs": 30, "dkw_reps": 500},
    }
    code = main(["check", "--config", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 2
    assert "[PASS] modulus[cvar]" in out
    assert "[FAIL] modulus-override[cvar]" in out


def test_check_fails_the_shipped_cvar_override(tmp_path, capsys):
    # the UCB radii and pull bounds of cvar_gaussians.yaml use this certificate
    path = CONFIG_DIR / "cvar_gaussians.yaml"
    assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "[PASS] modulus[cvar]: worst ratio 0.0143 over 120 pairs" in lines
    assert (
        "[FAIL] modulus-override[cvar]: |dR|=0.373803 exceeds psi(||.||)=0.18881"
        " at distance 0.318277"
    ) in lines
    rows = (tmp_path / "check.csv").read_text(encoding="utf-8").splitlines()
    assert sum(r.startswith("modulus-override[cvar],0,") for r in rows) == 1


def test_check_scores_each_distinct_ucb_certificate_on_a_line_of_its_own(tmp_path, capsys):
    doc = {
        "version": 1,
        "seed": 314159,
        "arms": [
            {"kind": "gaussian", "mean": 0.0, "stddev": 1.0},
            {"kind": "gaussian", "mean": -0.75, "stddev": 1.0},
        ],
        "criterion": {"kind": "cvar", "alpha": 0.1},
        "policies": [
            {"kind": "ucb", "alpha": 6.0, "a": 2.0, "b": 0.45, "q": 2.0},
            {"kind": "ucb", "label": "plain"},  # the default certificate: no line
        ],
        "reference": {"kind": "ucb", "b": 40.0, "label": "ucb"},
        "check": {"pairs": 30, "dkw_reps": 200},
    }
    assert main(["check", "--config", _write(tmp_path, doc), "--out", str(tmp_path)]) == 2
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "modulus" in ln]
    assert lines == [
        "[PASS] modulus[cvar]: worst ratio 0.0134 over 30 pairs",
        "[FAIL] modulus-ucb[ucb]: |dR|=2.38562 exceeds psi(||.||)=2.35444 at distance 1.84139",
        # a second record under the same label is named by its position
        "[PASS] modulus-ucb[ucb#3]: worst ratio 0.1042 over 30 pairs",
    ]
    # each line is scored on the pairs of the default line
    crit, arms = CVaRCriterion(0.1), [Gaussian(0.0, 1.0), Gaussian(-0.75, 1.0)]
    cert = StabilityCertificate(2.0, 0.45, 2.0)
    own = checks.modulus_check(crit, arms, {f"modulus[{crit.tag}]": cert}, 30, 314159)[0]
    assert own.line() == lines[1].replace("modulus-ucb[ucb]", "modulus[cvar]")
    rows = (tmp_path / "check.csv").read_text(encoding="utf-8").splitlines()
    assert sum(r.startswith("modulus-ucb[ucb],0,") for r in rows) == 1


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
    "patch,expect",
    [
        pytest.param(
            {"policies": [{"kind": "simple", "p": [0.7, 0.7]}]},
            "policy 'simple[0.7,0.7]': weights must be a probability vector", id="policy-p-sum",
        ),
        pytest.param(
            {"policies": [{"kind": "ucb", "b": -1.0}]}, "policy 'ucb': certificate needs a>0, b>0",
            id="policy-b-negative",
        ),
        pytest.param(
            {"reference": {"kind": "simple", "p": [-0.5, 1.5]}},
            "reference 'simple[-0.5,1.5]': weights must be a probability vector",
            id="reference-p-negative",
        ),
        pytest.param(
            {"criterion": {"kind": "bad1"}, "policies": [{"kind": "ucb"}]},
            "policy 'ucb': criterion 'bad1' has no stability certificate", id="ucb-no-certificate",
        ),
        pytest.param(
            {"mixtures": [[0.7, 0.7]]}, "mixture [0.7, 0.7]: mixture weights must sum to 1",
            id="mixture-sum",
        ),
        *[
            pytest.param(
                {
                    **_arms({"kind": "point-mass", "value": 0}, {"kind": "uniform", "lo": 0, "hi": 1}),
                    "policies": [{"kind": "simple", "p": [1.0, 0.0, 0.0]}],
                    key: [{"kind": kind}] if key == "policies" else {"kind": kind},
                },
                f"{name} {kind!r}: this oracle schedule is defined for exactly 2 arms, got 3",
                id=f"{name}-{kind}-3-arms",
            )
            for key, name in (("policies", "policy"), ("reference", "reference"))
            for kind in ("bad1-oracle", "bad2-oracle")
        ],
    ],
)
def test_out_of_range_policy_or_mixture_exits_1_at_load(tmp_path, capsys, command, patch, expect):
    # the policy and mixture constructors are the range check, run while loading
    err = _error_of(tmp_path, capsys, command, patch)
    assert expect in err and err.count("\n") == 1


def test_oracle_fits_the_growth_constants_once(monkeypatch, capsys):
    # no certificate exists for the flat VaR arm; the report must not refit it
    fits = []
    fit = criteria.fit_c4_constants

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(criteria, "fit_c4_constants", counting_fit)
    assert main(["oracle", "--config", str(CONFIG_DIR / "var_flat_rate.yaml")]) == 0
    assert "stationary-gap constant" not in capsys.readouterr().out
    assert len(fits) == 1


def test_check_builds_the_certificate_once(monkeypatch, capsys):
    # without a certificate override the phi identity reuses the modulus
    # suite's certificate; C4 fits its own constants
    fits = []
    fit = criteria.fit_c4_constants

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(criteria, "fit_c4_constants", counting_fit)
    monkeypatch.setattr(checks, "fit_c4_constants", counting_fit)
    assert main(["check", "--config", str(CONFIG_DIR / "var_flat_rate.yaml")]) == 2
    assert "[FAIL] C3: flat stretch [1, 2]" in capsys.readouterr().out
    assert len(fits) == 2


def test_unlabelled_reference_is_named_like_a_policy_record(tmp_path):
    doc = _base_doc()
    doc["policies"] = [{"kind": "simple", "p": [1.0, 0.0]}]
    doc["reference"] = {"kind": "simple", "p": [0.5, 0.5]}
    doc["horizons"] = [16]
    doc["replications"] = 2
    doc["estimators"] = ["reference-regret"]
    assert main(["simulate", "--config", _write(tmp_path, doc), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "simulate_simple[1,0]_T16.csv").read_text().splitlines()
    assert "# reference=simple[0.5,0.5]" in header


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
        # a lone C4 constant would be dropped for a fitted pair
        pytest.param(
            {"check": {"b_alpha": 1000.0}}, "check b_alpha and m_alpha", id="b-alpha-alone"
        ),
        pytest.param(
            {"check": {"m_alpha": 0.05}}, "check b_alpha and m_alpha", id="m-alpha-alone"
        ),
        pytest.param({"check": {"dkw_grid": [[100, NAN]]}}, "check dkw_grid", id="dkw-x-nan"),
        pytest.param({"check": {"dkw_grid": [[100, -0.5]]}}, "check dkw_grid", id="dkw-x-negative"),
        pytest.param({"check": {"dkw_grid": [[0, 0.1]]}}, "check dkw_grid", id="dkw-t-0"),
        pytest.param({"check": {"dkw_grid": [[-6000, 0.1]]}}, "check dkw_grid", id="dkw-t-negative"),
        pytest.param(
            {"check": {"dkw_grid": []}}, "check dkw_grid needs at least one", id="dkw-grid-empty"
        ),
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
        pytest.param({"horizons": [200, 200]}, "horizons must not repeat", id="horizon-repeated"),
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
