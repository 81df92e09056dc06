"""Experiment configuration: a versioned YAML file with tagged records.

Validation is strict: unknown and repeated keys are rejected at every level
so stale or misspelled fields never silently change an archived experiment.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass
from numbers import Integral, Real

import yaml

from .criteria import RiskCriterion, build_criterion
from .dist import (
    Gaussian,
    MixtureDistribution,
    PiecewiseLinearCDF,
    PointMass,
    RewardDistribution,
    TwoPoint,
    Uniform,
)
from .errors import ConfigError, DomainError
from .policy import (
    Bad1OraclePolicy,
    Bad2OraclePolicy,
    Policy,
    SimplePolicy,
    UcbPolicy,
    check_oracle_arms,
    check_ucb_alpha,
)

__all__ = ["ExperimentConfig", "load_config", "parse_config", "parse_distribution"]

CONFIG_VERSION = 1

_ESTIMATOR_NAMES = ("performance", "proxy-regret", "horizon-gap", "reference-regret")

# the keys of each policy kind besides ``kind`` and ``label``
_POLICY_KEYS = {
    "simple": {"p"},
    "bad1-oracle": set(),
    "bad2-oracle": set(),
    "ucb": {"alpha", "a", "b", "q"},
}


@dataclass
class ExperimentConfig:
    """A checked experiment; ``parse_config`` sets every field and builds
    each policy record and mixture (kept beside its raw weights)."""

    version: int
    seed: int
    arms: list[RewardDistribution]
    criterion: RiskCriterion
    certificate_overrides: dict
    policies: list[tuple[str, Policy]]
    horizons: list[int]
    checkpoints: list[int] | None
    replications: int
    mixtures: list[tuple[list[float], MixtureDistribution]]
    estimators: tuple[str, ...]
    reference: tuple[str, Policy] | str  # "best-arm" is resolved by simulate
    grid_resolution: float | None
    ucb_alpha: float
    check_options: dict
    output: str | None


def _file_stem(label: str) -> str:
    """The part of a ``simulate`` CSV name that names the policy."""
    return label.replace("/", "-").replace(" ", "")


def _reject_extra(context: str, mapping: dict) -> None:
    if mapping:
        raise ConfigError(f"unknown {context} keys: {sorted(mapping, key=str)}")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context} is missing required key {key!r}")
    return mapping.pop(key)


def _list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return list(value)


def _number(value, name: str, integer: bool = False):
    """``value`` if it is a real number, as an int if ``integer``.  Strings and
    booleans are refused, and so are fractions where an integer is asked for
    (an integral float such as 1.0e4 passes)."""
    if integer and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integer else value


def _numbers(value, name: str, integer: bool = False) -> list:
    return [_number(v, f"{name} entry", integer) for v in _list(value, name)]


def _pairs(value, name: str) -> list:
    pairs = [_numbers(p, f"{name} entry") for p in _list(value, name)]
    if any(len(p) != 2 for p in pairs):
        raise ConfigError(f"{name} must be a list of pairs, got {value!r}")
    return pairs


def _build_policy(spec, name: str, arms, criterion, overrides: dict, ucb_alpha: float):
    """``(label, policy)`` from a policy record.  The record's structure and
    types are checked here; its ranges by the policy's constructor, whose
    ``DomainError`` (or a missing UCB certificate) names the record."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{name} spec must be a mapping with 'kind': {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _POLICY_KEYS:
        raise ConfigError(f"unknown policy kind {kind!r}")
    _reject_extra(f"{kind} {name}", set(spec) - _POLICY_KEYS[kind] - {"kind", "label"})
    label = spec.get("label", "")
    if not isinstance(label, str):
        raise ConfigError(f"{name} label must be a string, got {label!r}")
    if "".join(label.splitlines()) != label:
        # a label names CSV files, rows and report lines, one line each
        raise ConfigError(f"{name} label must not break a line, got {label!r}")
    if "\0" in label:  # which no file name holds
        raise ConfigError(f"{name} label must not hold a NUL character, got {label!r}")
    if kind == "simple" and "p" not in spec:
        raise ConfigError(f"simple {name} is missing required key 'p'")
    if "alpha" in spec:
        _number(spec["alpha"], f"{name} alpha")
    values = [(f"{name} {k}", spec[k]) for k in ("a", "b", "q") if k in spec]
    values += [(f"{name} p entry", w) for w in _list(spec.get("p", []), f"{name} p")]
    for label, value in values:
        if not math.isfinite(_number(value, label)):
            raise ConfigError(f"{label} must be finite, got {value!r}")
    if kind == "simple" and len(spec["p"]) != len(arms):
        raise ConfigError(f"simple {name} has {len(spec['p'])} weights for {len(arms)} arms")
    weights = "[" + ",".join(f"{w:g}" for w in spec["p"]) + "]" if kind == "simple" else ""
    label = spec.get("label", kind + weights)
    try:
        if kind == "simple":
            return label, SimplePolicy(spec["p"])
        if kind in ("bad1-oracle", "bad2-oracle"):
            check_oracle_arms(len(arms))
            return label, (Bad1OraclePolicy if kind == "bad1-oracle" else Bad2OraclePolicy)()
        radii = {**overrides, **{k: spec[k] for k in ("a", "b", "q") if k in spec}}
        cert = criterion.stability_certificate(arms, **radii)
        if cert is None:
            raise ConfigError(
                f"{name} {label!r}: criterion {criterion.tag!r} has no stability "
                "certificate for these arms; supply a, b, q explicitly"
            )
        return label, UcbPolicy(cert, spec.get("alpha", ucb_alpha))
    except DomainError as exc:
        raise ConfigError(f"{name} {label!r}: {exc}") from exc


def parse_distribution(spec: dict) -> RewardDistribution:
    """Tagged record -> distribution. Kinds: gaussian, point-mass, uniform,
    bernoulli-scaled, piecewise-linear-cdf."""
    if not isinstance(spec, dict):
        raise ConfigError(f"distribution spec must be a mapping, got {spec!r}")
    spec = dict(spec)
    kind = _require(spec, "kind", "distribution")

    def number(key):
        return _number(_require(spec, key, kind), f"{kind} {key}")

    try:
        if kind == "gaussian":
            out = Gaussian(number("mean"), number("stddev"))
        elif kind == "point-mass":
            out = PointMass(number("value"))
        elif kind == "uniform":
            out = Uniform(number("lo"), number("hi"))
        elif kind == "bernoulli-scaled":
            out = TwoPoint(number("p"), number("lo"), number("hi"))
        elif kind == "piecewise-linear-cdf":
            out = PiecewiseLinearCDF.from_pairs(_pairs(_require(spec, "knots", kind), "knots"))
        else:
            raise ConfigError(f"unknown distribution kind {kind!r}")
    except DomainError as exc:
        raise ConfigError(f"invalid {kind} distribution: {exc}") from exc
    _reject_extra(f"{kind} distribution", spec)
    return out


def _parse_criterion(spec: dict):
    if not isinstance(spec, dict):
        raise ConfigError(f"criterion spec must be a mapping, got {spec!r}")
    spec = dict(spec)
    kind = _require(spec, "kind", "criterion")
    overrides = spec.pop("certificate", {})
    if not isinstance(overrides, dict) or set(overrides) - {"a", "b", "q"}:
        raise ConfigError("criterion certificate override allows only keys a, b, q")
    for key, value in overrides.items():
        _number(value, f"certificate {key}")
    try:
        criterion = build_criterion(kind, **spec)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return criterion, overrides


_KNOWN_KEYS = {
    "version",
    "seed",
    "arms",
    "criterion",
    "policies",
    "horizons",
    "checkpoints",
    "replications",
    "mixtures",
    "estimators",
    "reference",
    "grid_resolution",
    "ucb_alpha",
    "check",
    "output",
}


def _seed(value, name: str) -> int:
    seed = _number(value, name, integer=True)
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return seed


def _parse_check_options(raw) -> dict:
    """The ``check:`` knobs: integers pairs >= 1, seed >= 0 and dkw_reps;
    finite positive reals b_alpha and m_alpha (both or neither) and
    grid_step; dkw_grid, a non-empty list of [t, x] points with t >= 1 and
    a finite x >= 0."""
    if not isinstance(raw, dict):
        raise ConfigError(f"check options must be a mapping, got {raw!r}")
    opts = {}
    for key, value in raw.items():
        if key == "seed":
            opts[key] = _seed(value, "check seed")
        elif key in ("pairs", "dkw_reps"):
            opts[key] = _number(value, f"check {key}", integer=True)
        elif key in ("b_alpha", "m_alpha", "grid_step"):
            opts[key] = float(_number(value, f"check {key}"))
            if not (math.isfinite(opts[key]) and opts[key] > 0):
                raise ConfigError(f"check {key} must be finite and > 0, got {value!r}")
        elif key == "dkw_grid":
            grid = _pairs(value, "check dkw_grid")
            opts[key] = [(_number(t, "check dkw_grid t", integer=True), x) for t, x in grid]
            if not opts[key]:
                raise ConfigError("check dkw_grid needs at least one [t, x] point, got []")
            if not all(t >= 1 and math.isfinite(x) and x >= 0 for t, x in opts[key]):
                raise ConfigError(f"check dkw_grid needs t >= 1 and finite x >= 0, got {value!r}")
        else:
            raise ConfigError(f"unknown check key {key!r}")
    for key, least in (("pairs", 1), ("dkw_reps", 100)):
        if opts.get(key, least) < least:
            raise ConfigError(f"check {key} must be >= {least}, got {opts[key]}")
    if ("b_alpha" in opts) != ("m_alpha" in opts):
        raise ConfigError("check b_alpha and m_alpha go together: give both or neither")
    return opts


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    if "version" not in raw:
        raise ConfigError("config is missing required key 'version'")
    if _number(raw["version"], "version", integer=True) != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {raw['version']!r}; expected {CONFIG_VERSION}"
        )
    if "seed" not in raw:
        raise ConfigError("config is missing required key 'seed'")
    if "arms" not in raw or not raw["arms"]:
        raise ConfigError("config needs a non-empty 'arms' list")
    if "criterion" not in raw:
        raise ConfigError("config is missing required key 'criterion'")

    arms = [parse_distribution(s) for s in _list(raw["arms"], "arms")]
    criterion, overrides = _parse_criterion(raw["criterion"])

    estimators = tuple(_list(raw.get("estimators", _ESTIMATOR_NAMES), "estimators"))
    bad = [e for e in estimators if e not in _ESTIMATOR_NAMES]
    if bad:
        raise ConfigError(f"unknown estimators {bad}; known: {_ESTIMATOR_NAMES}")

    mixtures = []
    for p in _list(raw.get("mixtures", []), "mixtures"):
        p = list(map(float, _numbers(p, "mixture")))
        if len(p) != len(arms):
            raise ConfigError(f"mixture weight vector {p} does not match {len(arms)} arms")
        try:
            mixtures.append((p, MixtureDistribution(arms, p)))
        except DomainError as exc:
            raise ConfigError(f"mixture {p}: {exc}") from exc
    MixtureDistribution.stack([m for _, m in mixtures])

    k = len(arms)
    horizons = _numbers(raw.get("horizons", []), "horizons", integer=True)
    if any(h < k for h in horizons):
        raise ConfigError(f"every horizon must be >= the arm count {k}, got {horizons}")
    if len(set(horizons)) < len(horizons):
        raise ConfigError(f"horizons must not repeat, got {horizons}")
    checkpoints = raw.get("checkpoints")
    if checkpoints is not None:
        checkpoints = _numbers(checkpoints, "checkpoints", integer=True) or None
    if checkpoints and horizons and not k <= min(checkpoints) <= max(checkpoints) <= min(horizons):
        raise ConfigError(f"checkpoints must lie in [{k}, {min(horizons)}], got {checkpoints}")
    grid_resolution = raw.get("grid_resolution")
    if grid_resolution is not None and not (0 < _number(grid_resolution, "grid_resolution") <= 1):
        raise ConfigError(f"grid_resolution must lie in (0, 1], got {grid_resolution!r}")
    output = raw.get("output")
    if output is not None and (not isinstance(output, str) or "\0" in output):
        raise ConfigError(f"output must be a directory path, got {output!r}")
    replications = _number(raw.get("replications", 100), "replications", integer=True)
    if replications < 1:
        raise ConfigError(f"replications must be >= 1, got {replications}")
    seed = _seed(raw["seed"], "seed")
    check_options = _parse_check_options(raw.get("check", {}))
    ucb_alpha = float(_number(raw.get("ucb_alpha", 3.0), "ucb_alpha"))
    try:
        check_ucb_alpha(ucb_alpha)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    # built last: a UCB record's certificate may fit the growth constants
    build = (arms, criterion, overrides, ucb_alpha)
    policies = []
    stems = {}  # file stem -> label: two policies must not write the same CSV
    for spec in _list(raw.get("policies", []), "policies"):
        label, policy = _build_policy(spec, "policy", *build)
        stem = _file_stem(label)
        if stem in stems:
            raise ConfigError(
                f"policies {stems[stem]!r} and {label!r} both write simulate_{stem}_T*.csv"
            )
        stems[stem] = label
        policies.append((label, policy))
    reference = raw.get("reference", "best-arm")
    if reference != "best-arm":
        reference = _build_policy(reference, "reference", *build)

    return ExperimentConfig(
        version=CONFIG_VERSION,
        seed=seed,
        arms=arms,
        criterion=criterion,
        certificate_overrides=overrides,
        policies=policies,
        horizons=horizons,
        checkpoints=checkpoints,
        replications=replications,
        mixtures=mixtures,
        estimators=estimators,
        reference=reference,
        grid_resolution=grid_resolution,
        ucb_alpha=ucb_alpha,
        check_options=check_options,
        output=output,
    )


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's parser where built, with the safe constructor and resolver;
    a key that a mapping repeats is refused (``_mapping``)."""


def _mapping(loader, node):
    """A mapping, refused if it repeats a key.  Checked before merge keys are
    flattened, so a key may override a ``<<`` entry."""
    seen = set()
    for key_node, _ in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":
            continue
        key = loader.construct_object(key_node)
        if not isinstance(key, Hashable):
            continue  # which the mapping's construction refuses
        if key in seen:
            at = key_node.start_mark
            raise ConfigError(f"repeated key {key!r} on line {at.line + 1} of {at.name}")
        seen.add(key)
    yield from loader.construct_yaml_map(node)


_Loader.add_constructor("tag:yaml.org,2002:map", _mapping)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse {path}: {exc}") from exc
    return parse_config(raw)
