"""Flat key = value experiment configs with per-kind schemas.

One key per line, `#` starts a comment, unknown or duplicate keys are hard
errors.  Every kind accepts `kind` (must match the subcommand), `master_seed`,
and `output_path`.  Each swept grid is the trio `<name>_min` / `<name>_max` /
`<name>_points` (`lambda`, `a` or `risk_p`), resolved under one rule to the
strictly increasing float list `values["<name>_grid"]`; a list-valued grid
repeats no entry.

Each key declares its parser, its default and its range: (comparison, limit)
bounds met by the value, or by each entry of a list.  A number's text becomes an
int or a float here, and subspace._checked_count or _checked_real, as for every
library argument, decides whether it is a number within those bounds (a
ConfigError whose message begins `key '<name>'`).  Every given value is parsed
first, then `--seed` / `--out` replace theirs, then each final value is
checked against its key's range, then each trio's grid is resolved and the
kind's one rule across keys (subspace dimensions) runs.
"""

from dataclasses import dataclass

import numpy as np

from riskshift.errors import ConfigError, InvalidDimensionError
from riskshift.subspace import SubspacePairSpec, _checked_count, _checked_real

_REQUIRED = object()

KIND_REGRESSION = "regression-sweep"
KIND_CLASSIFICATION = "classification-sweep"
KIND_RELATION = "relation-curves"
KIND_DENOISE = "denoise"
KIND_COUNTEREXAMPLE = "counterexample"
KIND_CS = "cs-validate"
KIND_SUBSPACE = "subspace-analyze"

def _number(check, from_text):
    """Parser of one number: text becomes from_text(text), and check, a subspace helper, decides what is a number."""

    def parse(key, value, *bounds):
        if isinstance(value, str):
            try:
                value = from_text(value.strip())
            except ValueError:
                pass  # check refuses the text itself
        return check(f"key '{key}'", value, *bounds, error=ConfigError)

    return parse


_parse_int = _number(_checked_count, int)
_parse_float = _number(_checked_real, float)


def _parse_str(key, value, *bounds):
    text = str(value).strip()
    if not text:
        raise ConfigError(f"key '{key}' must be a nonempty string")
    return text


def _list_of(parse_item):
    """Parser of a nonempty comma-separated list (or a list or tuple) of distinct parse_item values."""

    def parse(key, value, *bounds):
        if isinstance(value, str):
            items = [t for t in value.split(",") if t.strip()]
        elif isinstance(value, (list, tuple)):
            items = list(value)
        else:
            items = [value]  # one entry, which parse_item judges
        if not items:
            raise ConfigError(f"key '{key}' must be a nonempty comma-separated list")
        parsed = [parse_item(key, item, *bounds) for item in items]
        if len(set(parsed)) < len(parsed):
            raise ConfigError(f"key '{key}' must not repeat an entry, got {parsed}")
        return parsed

    return parse


_parse_floats = _list_of(_parse_float)


@dataclass(frozen=True)
class _Field:
    parse: callable
    default: object
    # (comparison, limit) pairs the value, or each entry of a list value, must meet
    bounds: tuple = ()


_POSITIVE = ((">", 0),)
_NONNEGATIVE = ((">=", 0),)
_AT_LEAST_ONE = ((">=", 1),)
_AT_LEAST_TWO = ((">=", 2),)


def _schema(kind, fields, rule=lambda values: None):
    """(fields, rule): the common keys then the kind's, and the kind's check across keys."""
    common = {
        "kind": _Field(_parse_str, kind),
        "master_seed": _Field(_parse_int, 0, _NONNEGATIVE),
        "output_path": _Field(_parse_str, f"{kind}.csv"),
    }
    return {**common, **fields}, rule


def _lambda_fields(points):
    return {
        "lambda_min": _Field(_parse_float, 1e-3, _POSITIVE),
        "lambda_max": _Field(_parse_float, 1e2, _POSITIVE),
        "lambda_points": _Field(_parse_int, points, _AT_LEAST_ONE),
    }


_SWEEP_GEOMETRY = {
    "d": _Field(_parse_int, 800),
    "n": _Field(_parse_int, 1000, _POSITIVE),
    "d_p": _Field(_parse_int, 720),
}
_HAAR_GEOMETRY = {
    "d": _Field(_parse_int, 200),
    "d_p": _Field(_parse_int, 40),
    "d_q": _Field(_parse_int, 40),
}


def _require_subspace_spec(values, d_q="d_q", d_pq="d_pq"):
    """The pair the runner builds; the classification sweep's is SubspacePairSpec(d, d_p, d_p, d_p)."""
    try:
        SubspacePairSpec(values["d"], values["d_p"], values[d_q], values[d_pq])
    except InvalidDimensionError as exc:
        raise ConfigError(f"invalid subspace dimensions: {exc}") from exc


def _require_overlaps(values):
    # the overlap dimension of each target, kept for the runner as values["d_pq_grid"]
    values["d_pq_grid"] = [int(round(a * values["d_q"])) for a in values["a_grid"]]
    for a, d_pq in zip(values["a_grid"], values["d_pq_grid"]):
        try:
            SubspacePairSpec(values["d"], values["d_p"], values["d_q"], d_pq)
        except InvalidDimensionError as exc:
            raise ConfigError(f"a_grid entry {a} gives invalid dimensions: {exc}") from exc


def _require_cs(values):
    _require_subspace_spec(values)
    floor = max(values["d_p"], values["d_q"])
    for n in values["n_grid"]:
        if n < floor:
            raise ConfigError(f"n_grid entries must be >= max(d_p, d_q) = {floor}, got {n}")


_SCHEMAS = {
    KIND_REGRESSION: _schema(KIND_REGRESSION, {
        **_lambda_fields(25),
        **_SWEEP_GEOMETRY,
        "d_q": _Field(_parse_int, 640),
        "d_pq": _Field(_parse_int, 560, _AT_LEAST_ONE),
        "sigma_beta_sq": _Field(_parse_float, 1.0, _POSITIVE),
        "tau": _Field(_parse_float, 2.0, _POSITIVE),
        "noise_var": _Field(_parse_float, 0.2, _NONNEGATIVE),
        "trials": _Field(_parse_int, 5, _POSITIVE),
    }, _require_subspace_spec),
    KIND_CLASSIFICATION: _schema(KIND_CLASSIFICATION, {
        **_lambda_fields(25),
        **_SWEEP_GEOMETRY,
        "sign_correct_prob": _Field(_parse_float, 0.8, ((">", 0.5), ("<=", 1))),
        "kappa_over_gamma": _Field(_parse_float, 5.0, _POSITIVE),
        "trials": _Field(_parse_int, 3, _POSITIVE),
    }, lambda values: _require_subspace_spec(values, "d_p", "d_p")),
    KIND_RELATION: _schema(KIND_RELATION, {
        "mu_grid": _Field(_parse_floats, [1.0, 1.05, 1.1, 1.2, 1.5], _AT_LEAST_ONE),
        "ratio_grid": _Field(_parse_floats, [0.2, 0.5, 1.0, 2.0, 5.0], _POSITIVE),
        "mu_fixed": _Field(_parse_float, 1.0, _AT_LEAST_ONE),
        "risk_p_min": _Field(_parse_float, 0.01, _POSITIVE),
        "risk_p_max": _Field(_parse_float, 0.49, (("<", 0.5),)),
        "risk_p_points": _Field(_parse_int, 99, _AT_LEAST_TWO),
    }),
    KIND_DENOISE: _schema(KIND_DENOISE, {
        **_lambda_fields(50),
        **_HAAR_GEOMETRY,
        "a_grid": _Field(_parse_floats, [0.0, 0.5, 1.0], ((">=", 0), ("<=", 1))),
        "snr_grid": _Field(_parse_floats, [1.0, 100.0], _POSITIVE),
    }, _require_overlaps),
    KIND_COUNTEREXAMPLE: _schema(KIND_COUNTEREXAMPLE, {
        "r_p": _Field(_parse_float, 0.9, ((">", 0), ("<=", 1))),
        "sigma_beta_sq": _Field(_parse_float, 1.0, _POSITIVE),
        "gamma": _Field(_parse_float, 1.0, _POSITIVE),
        "kappa": _Field(_parse_float, 1.0, _POSITIVE),
        "mu": _Field(_parse_float, 1.2, _AT_LEAST_ONE),
        "b": _Field(_parse_float, 1.0, _POSITIVE),
        "c": _Field(_parse_float, 1.0, _POSITIVE),
        "a_min": _Field(_parse_float, 0.05, _POSITIVE),
        "a_max": _Field(_parse_float, 30.0),
        "a_points": _Field(_parse_int, 40, _AT_LEAST_TWO),
    }),
    KIND_CS: _schema(KIND_CS, {
        **_HAAR_GEOMETRY,
        "d_pq": _Field(_parse_int, 20),
        "snr": _Field(_parse_float, 100.0, _POSITIVE),
        "lambda": _Field(_parse_float, 8.0, _NONNEGATIVE),
        "n_grid": _Field(_list_of(_parse_int), [500, 2000, 8000]),
        "trials": _Field(_parse_int, 20, _POSITIVE),
    }, _require_cs),
    KIND_SUBSPACE: _schema(KIND_SUBSPACE, {
        "input_p": _Field(_parse_str, _REQUIRED),
        "input_q": _Field(_parse_str, _REQUIRED),
        "k_max": _Field(_parse_int, 0, _NONNEGATIVE),
    }),
}

ALL_KINDS = tuple(_SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed, validated key-value bundle for one experiment kind."""

    kind: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]


_TRIO_SPACING = {"lambda": np.geomspace, "a": np.geomspace, "risk_p": np.linspace}


def _resolve_trios(values):
    """values["<name>_grid"] of each trio the kind has: a strictly increasing float list."""
    for name, spacing in _TRIO_SPACING.items():
        if f"{name}_points" not in values:
            continue
        lo, hi, points = values[f"{name}_min"], values[f"{name}_max"], values[f"{name}_points"]
        if points > 1 and not lo < hi:
            raise ConfigError(f"{name}_min must be < {name}_max")
        # geomspace's last power may round past the largest float; it then sets that end to hi
        with np.errstate(over="ignore"):
            arr = spacing(lo, hi, points)
        # ends a few ulps apart give a grid with repeated values
        if arr.size > 1 and np.min(np.diff(arr)) <= 0:
            raise ConfigError(f"{name} grid must be strictly increasing")
        values[f"{name}_grid"] = [float(t) for t in arr]


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
    fields, rule = _SCHEMAS[kind]
    raw = dict(mapping or {})
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config key(s) for {kind}: {', '.join(unknown)}")
    values = {}
    for key, field in fields.items():
        if key in raw:
            values[key] = field.parse(key, raw[key])
        elif field.default is _REQUIRED:
            raise ConfigError(f"missing required config key '{key}' for {kind}")
        else:
            values[key] = field.default
    if values["kind"] != kind:
        raise ConfigError(f"config kind '{values['kind']}' does not match subcommand '{kind}'")
    # the overrides replace parsed file values, and the ranges apply to what results
    if seed_override is not None:
        values["master_seed"] = _parse_int("master_seed", seed_override)
    if out_override is not None:
        values["output_path"] = _parse_str("output_path", out_override)
    for key, field in fields.items():
        values[key] = field.parse(key, values[key], *field.bounds)
    _resolve_trios(values)
    rule(values)
    return ExperimentConfig(kind=kind, values=values)
