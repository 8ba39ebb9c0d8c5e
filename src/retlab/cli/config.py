"""Run configuration: a plain-text section/key file read by configparser.

`KEYS` names every section and key a config may hold, the field each one
sets and how its text is read. A key left out keeps the default of its
field on `RunConfig`, on `RiskConfig` for ``[risk]`` or on
`GeneratorSpec` for ``[synth.<name>]``, so `RunConfig()` is the run of a
config that names nothing. A ``[synth.<name>]`` section must give
``kind`` and ``n``; one without ``seed`` draws from the root seed plus
its position among the synth sections.

Input paths resolve relative to the config file's directory; the output
directory resolves relative to the working directory of the run, so a
bundled read-only config still produces local artifacts. The environment
variable ``RETLAB_SEED``, when set, overrides ``[run] seed``, which is
then not read.

A section or key missing from `KEYS` raises ParseError, so a misspelt
one cannot leave a default in force. No ``[DEFAULT]`` section passes its
keys to the others.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..errors import ParseError, ValidationError
from ..risk import RiskConfig
from ..synth import GeneratorSpec
from ..varmodel.var import _CRITERIA

SEED_ENV_VAR = "RETLAB_SEED"


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run needs, resolved and validated.

    `panel_members` is None when the panel should contain every ingested
    series except the market. `seed_source` records whether the root seed
    came from the config file or the environment override. Each default
    is what a config that leaves the field's key out runs with.
    """

    returns_path: Path | None = None
    layout: str = "wide"
    constituents_path: Path | None = None
    constituents_label: str = "PORT"
    market: str | None = None
    panel_members: tuple[str, ...] | None = None
    n_factors: int = 1
    risk: RiskConfig = field(default_factory=RiskConfig)
    var_max_lag: int = 6
    var_criterion: str = "BIC"
    var_lag: int | None = None
    forecast_horizon: int = 12
    irf_horizon: int = 24
    n_boot: int = 500
    correlogram_lags: int = 12
    output_dir: Path = Path("out")
    seed: int = 0
    seed_source: str = "config"
    synth_specs: tuple[tuple[str, GeneratorSpec], ...] = ()

    def __post_init__(self) -> None:
        if self.n_factors < 1:
            raise ValidationError("factor count must be >= 1")
        if self.var_lag is not None and self.var_lag < 0:
            raise ValidationError("fixed VAR lag must be >= 0")
        if self.var_max_lag < 1:
            raise ValidationError("VAR max_lag must be >= 1")
        if self.var_criterion not in _CRITERIA:
            raise ValidationError(f"VAR criterion must be one of {_CRITERIA}")
        if min(self.forecast_horizon, self.irf_horizon, self.correlogram_lags) < 1:
            raise ValidationError("horizons and correlogram lags must be >= 1")
        if self.n_boot < 0:
            raise ValidationError("bootstrap replication count must be >= 0")
        if self.layout not in ("wide", "long"):
            raise ValidationError(f"layout must be wide or long, got {self.layout!r}")
        if self.seed < 0:
            source = SEED_ENV_VAR if self.seed_source == "env" else "[run] seed"
            raise ValidationError(f"{source}: root seed must be >= 0, got {self.seed}")


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _numbers(text: str) -> tuple[float, ...]:
    numbers = tuple(float(x) for x in _names(text))
    if not numbers:
        raise ParseError("empty list")
    return numbers


def _json_object(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ParseError("expected a JSON object")
    return value


# [section] key -> (the field it sets, how its stripped text is read, what
# a text the reader rejects is called). [risk] sets RiskConfig,
# [synth.<name>] GeneratorSpec and every other section RunConfig. An
# empty market, panel or VAR lag reads as None.
KEYS = {
    "run": {
        "output": ("output_dir", Path, None),
        "seed": ("seed", int, "an integer"),
    },
    "inputs": {
        "returns": ("returns_path", Path, None),
        "layout": ("layout", str, None),
        "constituents": ("constituents_path", Path, None),
    },
    "series": {
        "market": ("market", lambda text: text or None, None),
        "panel": ("panel_members", lambda text: _names(text) if text else None, None),
        "constituents_label": ("constituents_label", str, None),
    },
    "factors": {
        "count": ("n_factors", int, "an integer"),
    },
    "risk": {
        "fractiles": ("fractiles", _numbers, "numbers"),
        "garch_conditioning": ("garch_conditioning", str, None),
        "mixture_k_max": ("mixture_k_max", int, "an integer"),
        "gpd_threshold_quantile": ("gpd_threshold_quantile", float, "a number"),
    },
    "var": {
        "max_lag": ("var_max_lag", int, "an integer"),
        "criterion": ("var_criterion", str.upper, None),
        "lag": ("var_lag", lambda text: int(text) if text else None, "an integer"),
        "forecast_horizon": ("forecast_horizon", int, "an integer"),
        "irf_horizon": ("irf_horizon", int, "an integer"),
        "bootstrap": ("n_boot", int, "an integer"),
    },
    "describe": {
        "correlogram_lags": ("correlogram_lags", int, "an integer"),
    },
    "synth.<name>": {
        "kind": ("kind", str, None),
        "n": ("n", int, "an integer"),
        "seed": ("seed", int, "an integer"),
        "params": ("parameters", _json_object, None),
    },
}


def _keys_of(section: str) -> dict:
    keys = KEYS.get("synth.<name>" if section.startswith("synth.") else section)
    if keys is None:
        raise ParseError(f"[{section}]: unknown section; known: {', '.join(KEYS)}")
    return keys


def _read(parser: configparser.ConfigParser, section: str, into: dict) -> dict:
    """`into` plus the field of each key of `section`, in file order; a
    field `into` already holds (the seed of the environment) is not read."""
    keys = _keys_of(section)
    for key, text in parser.items(section):
        name, read, what = keys[key]
        if name in into:
            continue
        text = text.strip()
        try:
            into[name] = read(text)
        except ParseError as exc:
            raise ParseError(f"[{section}] {key}: {exc}") from exc
        except ValueError as exc:
            raise ParseError(f"[{section}] {key}: expected {what}, got {text!r}") from exc
    return into


def _resolve_input(base: Path, path: Path, what: str) -> Path:
    if not path.is_absolute():
        path = base / path
    if not path.is_file():
        raise ParseError(f"{what} file does not exist: {path}")
    return path


def load_config(path: Path) -> RunConfig:
    """Parse and validate a run configuration file.

    Every section and key is checked before any value is read; values
    are then read in file order.

    Raises:
        ParseError: unreadable or non-UTF-8 file, bad syntax, an unknown
            section or key, bad typed value, or a missing referenced input
            file.
        ValidationError: well-formed values that violate an invariant
            (fractiles outside (0.5,1), bad criterion, ...).
    """
    path = Path(path)
    # no section name can be empty, so [DEFAULT] is an ordinary section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path} is not UTF-8: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc
    for section in parser.sections():
        keys = _keys_of(section)
        for key in parser.options(section):
            if key not in keys:
                raise ParseError(
                    f"[{section}] {key}: unknown key; known: {', '.join(keys)}"
                )

    fields: dict = {}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            fields["seed"] = int(env_seed)
        except ValueError as exc:
            raise ParseError(
                f"{SEED_ENV_VAR}: expected an integer, got {env_seed!r}"
            ) from exc
        fields["seed_source"] = "env"
    risk: dict = {}
    synth = []
    for section in parser.sections():
        if section.startswith("synth."):
            synth.append((section, _read(parser, section, {})))
        else:
            _read(parser, section, risk if section == "risk" else fields)
    base = path.resolve().parent
    for name in ("returns_path", "constituents_path"):
        if name in fields:
            fields[name] = _resolve_input(base, fields[name], name.removesuffix("_path"))
    config = RunConfig(**fields, risk=RiskConfig(**risk))

    specs = []
    for section, values in synth:
        name = section[len("synth.") :]
        if not name:
            raise ParseError("synth section needs a name: [synth.<name>]")
        if "kind" not in values:
            raise ParseError(f"[{section}]: missing 'kind'")
        # a missing n reads as 0, which GeneratorSpec rejects; an unseeded
        # section is offset by position so two of them draw different data
        values = {"n": 0, "seed": config.seed + len(specs), **values}
        try:
            specs.append((name, GeneratorSpec(**values)))
        except ValidationError as exc:
            raise ParseError(f"[{section}]: {exc}") from exc
    return replace(config, synth_specs=tuple(specs))
