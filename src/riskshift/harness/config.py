"""Flat key = value experiment configs with per-kind schemas.

One key per line, `#` starts a comment, unknown or duplicate keys are hard
errors.  Every kind accepts `kind` (must match the subcommand), `master_seed`,
and `output_path`.  Kinds with a regularization sweep accept either an
explicit `lambda_grid` (comma-separated, positive, strictly increasing) or the
trio `lambda_min` / `lambda_max` / `lambda_points`, but not both.
"""

import math
from dataclasses import dataclass

import numpy as np

from riskshift.errors import ConfigError, InvalidDimensionError
from riskshift.subspace import SubspacePairSpec

_REQUIRED = object()

KIND_REGRESSION = "regression-sweep"
KIND_CLASSIFICATION = "classification-sweep"
KIND_RELATION = "relation-curves"
KIND_DENOISE = "denoise"
KIND_COUNTEREXAMPLE = "counterexample"
KIND_CS = "cs-validate"
KIND_SUBSPACE = "subspace-analyze"

ALL_KINDS = (
    KIND_REGRESSION,
    KIND_CLASSIFICATION,
    KIND_RELATION,
    KIND_DENOISE,
    KIND_COUNTEREXAMPLE,
    KIND_CS,
    KIND_SUBSPACE,
)


def _parse_int(key, value):
    if isinstance(value, bool):
        raise ConfigError(f"key '{key}' expects an integer, got a boolean")
    if isinstance(value, (int, np.integer)):
        return int(value)
    try:
        return int(str(value).strip())
    except ValueError as exc:
        raise ConfigError(f"key '{key}' expects an integer, got {value!r}") from exc


def _parse_float(key, value):
    if isinstance(value, bool):
        raise ConfigError(f"key '{key}' expects a number, got a boolean")
    if isinstance(value, (int, float, np.integer, np.floating)):
        out = float(value)
    else:
        try:
            out = float(str(value).strip())
        except ValueError as exc:
            raise ConfigError(f"key '{key}' expects a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"key '{key}' must be finite, got {out}")
    return out


def _parse_bool(key, value):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key '{key}' expects true/false, got {value!r}")


def _parse_str(key, value):
    text = str(value).strip()
    if not text:
        raise ConfigError(f"key '{key}' must be a nonempty string")
    return text


def _list_of(parse_item):
    """Parser of a nonempty comma-separated list (or sequence) of parse_item values."""

    def parse(key, value):
        if isinstance(value, (list, tuple, np.ndarray)):
            items = list(value)
        else:
            items = [t for t in str(value).split(",") if t.strip()]
        if not items:
            raise ConfigError(f"key '{key}' must be a nonempty comma-separated list")
        return [parse_item(key, item) for item in items]

    return parse


@dataclass(frozen=True)
class _Field:
    parse: callable
    default: object
    help: str


def _common_fields(kind):
    return {
        "kind": _Field(_parse_str, kind, "experiment kind; must match the subcommand"),
        "master_seed": _Field(_parse_int, 0, "root seed for all RNG streams"),
        "output_path": _Field(_parse_str, f"{kind}.csv", "CSV destination"),
    }


def _lambda_fields(points):
    return {
        "lambda_min": _Field(_parse_float, 1e-3, "smallest ridge weight of the log grid"),
        "lambda_max": _Field(_parse_float, 1e2, "largest ridge weight of the log grid"),
        "lambda_points": _Field(_parse_int, points, "number of log-spaced ridge weights"),
        "lambda_grid": _Field(_list_of(_parse_float), None, "explicit ridge grid (overrides the trio)"),
    }


_SCHEMAS = {
    KIND_REGRESSION: {
        **_common_fields(KIND_REGRESSION),
        **_lambda_fields(25),
        "d": _Field(_parse_int, 800, "ambient dimension"),
        "n": _Field(_parse_int, 1000, "training sample size"),
        "d_p": _Field(_parse_int, 720, "train-support dimension"),
        "d_q": _Field(_parse_int, 640, "test-support dimension"),
        "d_pq": _Field(_parse_int, 560, "overlap dimension"),
        "tau": _Field(_parse_float, 2.0, "test covariance scale on its support"),
        "sigma_beta_sq": _Field(_parse_float, 1.0, "per-coordinate variance of beta*"),
        "noise_var": _Field(_parse_float, 0.2, "label noise variance"),
        "trials": _Field(_parse_int, 5, "number of independent trials"),
    },
    KIND_CLASSIFICATION: {
        **_common_fields(KIND_CLASSIFICATION),
        **_lambda_fields(25),
        "d": _Field(_parse_int, 800, "ambient dimension"),
        "n": _Field(_parse_int, 1000, "training sample size"),
        "d_p": _Field(_parse_int, 720, "train-support dimension"),
        "d_q": _Field(_parse_int, 640, "test-support dimension"),
        "d_pq": _Field(_parse_int, 560, "overlap dimension"),
        "tau": _Field(_parse_float, 2.0, "test covariance scale before task adjustment"),
        "sigma_beta_sq": _Field(_parse_float, 1.0, "per-coordinate variance of beta*"),
        "sign_correct_prob": _Field(_parse_float, 0.8, "probability a sign label is kept"),
        "task_dependent": _Field(_parse_bool, True, "rebuild Sigma_Q from beta* energies"),
        "kappa_over_gamma": _Field(_parse_float, 5.0, "target kappa/gamma of the rebuild"),
        "theory_points": _Field(_parse_int, 40, "risk grid size for theory rows"),
        "trials": _Field(_parse_int, 3, "number of independent trials"),
    },
    KIND_RELATION: {
        **_common_fields(KIND_RELATION),
        "mu_grid": _Field(_list_of(_parse_float), [1.0, 1.05, 1.1, 1.2, 1.5], "mu values at kappa = gamma"),
        "ratio_grid": _Field(_list_of(_parse_float), [0.2, 0.5, 1.0, 2.0, 5.0], "kappa/gamma values"),
        "mu_fixed": _Field(_parse_float, 1.0, "mu used for the kappa/gamma curves"),
        "risk_p_min": _Field(_parse_float, 0.01, "left end of the train-risk grid"),
        "risk_p_max": _Field(_parse_float, 0.49, "right end of the train-risk grid"),
        "risk_p_points": _Field(_parse_int, 99, "train-risk grid size"),
    },
    KIND_DENOISE: {
        **_common_fields(KIND_DENOISE),
        **_lambda_fields(50),
        "d": _Field(_parse_int, 200, "ambient dimension"),
        "d_p": _Field(_parse_int, 40, "train subspace dimension"),
        "d_q": _Field(_parse_int, 40, "test subspace dimension"),
        "a_grid": _Field(_list_of(_parse_float), [0.0, 0.5, 1.0], "target overlap coefficients"),
        "snr_grid": _Field(_list_of(_parse_float), [1.0, 100.0], "signal-to-noise ratios 1/sigma^2"),
    },
    KIND_COUNTEREXAMPLE: {
        **_common_fields(KIND_COUNTEREXAMPLE),
        "r_p": _Field(_parse_float, 0.9, "train-support fraction"),
        "sigma_beta_sq": _Field(_parse_float, 1.0, "signal variance"),
        "gamma": _Field(_parse_float, 1.0, "shift slope"),
        "kappa": _Field(_parse_float, 1.0, "shift trace factor"),
        "mu": _Field(_parse_float, 1.2, "shift task factor"),
        "b": _Field(_parse_float, 1.0, "resolvent-shift parameter of the estimator family"),
        "c": _Field(_parse_float, 1.0, "noise-energy parameter of the estimator family"),
        "a_min": _Field(_parse_float, 0.05, "smallest alignment value"),
        "a_max": _Field(_parse_float, 30.0, "largest alignment value"),
        "a_points": _Field(_parse_int, 40, "number of log-spaced alignment values"),
    },
    KIND_CS: {
        **_common_fields(KIND_CS),
        "d": _Field(_parse_int, 200, "ambient dimension"),
        "d_p": _Field(_parse_int, 40, "train subspace dimension"),
        "d_q": _Field(_parse_int, 40, "test subspace dimension"),
        "d_pq": _Field(_parse_int, 20, "overlap dimension"),
        "snr": _Field(_parse_float, 100.0, "signal-to-noise ratio 1/sigma^2"),
        "lambda": _Field(_parse_float, 8.0, "ridge weight of the reconstruction"),
        "n_grid": _Field(_list_of(_parse_int), [500, 2000, 8000], "measurement counts"),
        "trials": _Field(_parse_int, 20, "number of independent seeds per n"),
        "include_identity": _Field(_parse_bool, True, "also emit A = I control rows"),
    },
    KIND_SUBSPACE: {
        **_common_fields(KIND_SUBSPACE),
        "input_p": _Field(_parse_str, _REQUIRED, "path to the first numeric matrix (rows = samples)"),
        "input_q": _Field(_parse_str, _REQUIRED, "path to the second numeric matrix"),
        "k_max": _Field(_parse_int, 0, "largest subspace size compared; 0 means all available"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed, validated key-value bundle for one experiment kind."""

    kind: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]


def _build_lambda_grid(values, explicit_keys):
    grid = values["lambda_grid"]
    trio_given = {"lambda_min", "lambda_max", "lambda_points"} & explicit_keys
    if grid is not None:
        if trio_given:
            raise ConfigError(
                "give either lambda_grid or the lambda_min/lambda_max/lambda_points trio, not both"
            )
        arr = np.asarray(grid, dtype=np.float64)
    else:
        lo, hi, points = values["lambda_min"], values["lambda_max"], values["lambda_points"]
        if points < 1:
            raise ConfigError("lambda_points must be >= 1")
        if points > 1 and not lo < hi:
            raise ConfigError("lambda_min must be < lambda_max")
        if lo <= 0:
            raise ConfigError("lambda_min must be positive")
        arr = np.geomspace(lo, hi, points)
    if np.min(arr) <= 0:
        raise ConfigError("lambda grid entries must be positive")
    if arr.size > 1 and np.min(np.diff(arr)) <= 0:
        raise ConfigError("lambda grid must be strictly increasing")
    values["lambda_grid"] = [float(t) for t in arr]


def _require_subspace_spec(values, d_key="d"):
    try:
        SubspacePairSpec(values[d_key], values["d_p"], values["d_q"], values["d_pq"])
    except InvalidDimensionError as exc:
        raise ConfigError(f"invalid subspace dimensions: {exc}") from exc


def _validate_common(values):
    if values["master_seed"] < 0:
        raise ConfigError("master_seed must be >= 0")


def _validate_positive(values, *keys):
    for key in keys:
        if values[key] <= 0:
            raise ConfigError(f"key '{key}' must be positive, got {values[key]}")


def _validate_regression(values):
    _require_subspace_spec(values)
    _validate_positive(values, "n", "tau", "sigma_beta_sq", "trials")
    if values["noise_var"] < 0:
        raise ConfigError("noise_var must be >= 0")


def _validate_classification(values):
    _require_subspace_spec(values)
    _validate_positive(values, "n", "tau", "sigma_beta_sq", "trials", "kappa_over_gamma")
    if not 0.5 < values["sign_correct_prob"] <= 1.0:
        raise ConfigError("sign_correct_prob must lie in (1/2, 1]")
    if values["theory_points"] < 2:
        raise ConfigError("theory_points must be >= 2")


def _validate_relation(values):
    for mu in values["mu_grid"]:
        if mu < 1.0:
            raise ConfigError(f"mu_grid entries must be >= 1, got {mu}")
    for ratio in values["ratio_grid"]:
        if ratio <= 0.0:
            raise ConfigError(f"ratio_grid entries must be positive, got {ratio}")
    if values["mu_fixed"] < 1.0:
        raise ConfigError("mu_fixed must be >= 1")
    if not 0.0 < values["risk_p_min"] < values["risk_p_max"] < 0.5:
        raise ConfigError("risk grid must satisfy 0 < risk_p_min < risk_p_max < 1/2")
    if values["risk_p_points"] < 2:
        raise ConfigError("risk_p_points must be >= 2")


def _validate_denoise(values):
    d, d_p, d_q = values["d"], values["d_p"], values["d_q"]
    for a in values["a_grid"]:
        if not 0.0 <= a <= 1.0:
            raise ConfigError(f"a_grid entries must lie in [0, 1], got {a}")
        d_pq = int(round(a * d_q))
        try:
            SubspacePairSpec(d, d_p, d_q, d_pq)
        except InvalidDimensionError as exc:
            raise ConfigError(f"overlap a={a} gives invalid dimensions: {exc}") from exc
    for snr in values["snr_grid"]:
        if snr <= 0.0:
            raise ConfigError(f"snr_grid entries must be positive, got {snr}")


def _validate_counterexample(values):
    _validate_positive(values, "sigma_beta_sq", "gamma", "kappa", "b", "c")
    if not 0.0 < values["r_p"] <= 1.0:
        raise ConfigError("r_p must lie in (0, 1]")
    if values["mu"] < 1.0:
        raise ConfigError("mu must be >= 1")
    if not 0.0 < values["a_min"] < values["a_max"]:
        raise ConfigError("alignment sweep needs 0 < a_min < a_max")
    if values["a_points"] < 2:
        raise ConfigError("a_points must be >= 2")


def _validate_cs(values):
    _require_subspace_spec(values)
    _validate_positive(values, "snr", "trials")
    if values["lambda"] < 0:
        raise ConfigError("lambda must be >= 0")
    floor = max(values["d_p"], values["d_q"])
    for n in values["n_grid"]:
        if n < floor:
            raise ConfigError(
                f"n_grid entries must be >= max(d_p, d_q) = {floor}, got {n}"
            )


def _validate_subspace(values):
    if values["k_max"] < 0:
        raise ConfigError("k_max must be >= 0")


_VALIDATORS = {
    KIND_REGRESSION: _validate_regression,
    KIND_CLASSIFICATION: _validate_classification,
    KIND_RELATION: _validate_relation,
    KIND_DENOISE: _validate_denoise,
    KIND_COUNTEREXAMPLE: _validate_counterexample,
    KIND_CS: _validate_cs,
    KIND_SUBSPACE: _validate_subspace,
}


def _finalize(kind, raw, seed_override=None, out_override=None):
    schema = _SCHEMAS[kind]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {kind}: {', '.join(unknown)}")
    values = {}
    for key, field in schema.items():
        if key in raw:
            values[key] = field.parse(key, raw[key])
        elif field.default is _REQUIRED:
            raise ConfigError(f"missing required config key '{key}' for {kind}")
        else:
            values[key] = field.default
    if values["kind"] != kind:
        raise ConfigError(f"config kind '{values['kind']}' does not match subcommand '{kind}'")
    if seed_override is not None:
        values["master_seed"] = _parse_int("master_seed", seed_override)
    if out_override is not None:
        values["output_path"] = _parse_str("output_path", out_override)
    _validate_common(values)
    if "lambda_grid" in schema:
        _build_lambda_grid(values, explicit_keys=set(raw))
    _VALIDATORS[kind](values)
    return ExperimentConfig(kind=kind, values=values)


def parse_config_text(text):
    """Raw key -> string-value pairs from flat `key = value` lines."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        raw[key] = value
    return raw


def load_config(path, kind, seed_override=None, out_override=None):
    """Parse, type, and validate a config file for the given kind."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    return config_from_mapping(kind, raw, seed_override, out_override)


def config_from_mapping(kind, mapping=None, seed_override=None, out_override=None):
    """Build a validated config from an in-process mapping (tests, self test)."""
    if kind not in _SCHEMAS:
        raise ConfigError(f"unknown experiment kind '{kind}'")
    return _finalize(kind, dict(mapping or {}), seed_override, out_override)


def describe_keys(kind):
    """(key, default, help) rows for the README / --help reference."""
    schema = _SCHEMAS[kind]
    rows = []
    for key, field in schema.items():
        default = "(required)" if field.default is _REQUIRED else repr(field.default)
        rows.append((key, default, field.help))
    return rows
