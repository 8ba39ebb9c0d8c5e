"""Run configuration: a plain-text section/key file read by configparser.

Example::

    [run]
    output = out
    seed = 20090501

    [inputs]
    returns = demo_returns.csv
    layout = wide
    constituents = demo_constituents.csv

    [series]
    market = MKT
    panel = REIT, HOUSE
    constituents_label = PORT

    [factors]
    count = 2

    [risk]
    fractiles = 0.95, 0.99, 0.999
    garch_conditioning = one-step
    mixture_k_max = 3
    gpd_threshold_quantile = 0.90

    [var]
    max_lag = 6
    criterion = BIC
    forecast_horizon = 12
    irf_horizon = 24
    bootstrap = 500

    [describe]
    correlogram_lags = 12

    [synth.noise]
    kind = garch
    n = 360
    seed = 7
    params = {"mu": 0.3, "omega": 0.2, "alpha": 0.1, "beta": 0.8}

Input paths resolve relative to the config file's directory; the output
directory resolves relative to the working directory of the run, so a
bundled read-only config still produces local artifacts. The environment
variable ``RETLAB_SEED``, when set, overrides ``[run] seed``.

Every section and key must be one shown above or ``[var] lag`` (a fixed
VAR order in place of the criterion's pick): a misspelt one raises
ParseError. No ``[DEFAULT]`` section passes its keys to the others.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ParseError, ValidationError
from ..risk import RiskConfig
from ..synth import GeneratorSpec
from ..varmodel.var import _CRITERIA

SEED_ENV_VAR = "RETLAB_SEED"
# the keys load_config reads; each [synth.<name>] section takes _SYNTH_KEYS
_KEYS = {
    "run": ("output", "seed"),
    "inputs": ("returns", "layout", "constituents"),
    "series": ("market", "panel", "constituents_label"),
    "factors": ("count",),
    "risk": ("fractiles", "garch_conditioning", "mixture_k_max", "gpd_threshold_quantile"),
    "var": ("max_lag", "criterion", "lag", "forecast_horizon", "irf_horizon", "bootstrap"),
    "describe": ("correlogram_lags",),
}
_SYNTH_KEYS = ("kind", "n", "seed", "params")


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run needs, resolved and validated.

    `panel_members` is None when the panel should contain every ingested
    series except the market. `seed_source` records whether the root seed
    came from the config file or the environment override.
    """

    returns_path: Path | None
    layout: str
    constituents_path: Path | None
    constituents_label: str
    market: str | None
    panel_members: tuple[str, ...] | None
    n_factors: int
    risk: RiskConfig
    var_max_lag: int
    var_criterion: str
    var_lag: int | None
    forecast_horizon: int
    irf_horizon: int
    n_boot: int
    correlogram_lags: int
    output_dir: Path
    seed: int
    seed_source: str
    synth_specs: tuple[tuple[str, GeneratorSpec], ...] = field(default_factory=tuple)

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


def _get(parser: configparser.ConfigParser, section: str, key: str, default=None):
    if parser.has_option(section, key):
        return parser.get(section, key).strip()
    return default


def _get_int(parser, section, key, default) -> int:
    raw = _get(parser, section, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key}: expected an integer, got {raw!r}") from exc


def _get_float(parser, section, key, default) -> float:
    raw = _get(parser, section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key}: expected a number, got {raw!r}") from exc


def _name_list(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _resolve_input(base: Path, raw: str | None, what: str) -> Path | None:
    if raw is None:
        return None
    path = Path(raw)
    if not path.is_absolute():
        path = base / path
    if not path.is_file():
        raise ParseError(f"{what} file does not exist: {path}")
    return path


def _risk_config(**keys) -> RiskConfig:
    """RiskConfig of the [risk] keys read; one left out (None) keeps its default."""
    return RiskConfig(**{name: value for name, value in keys.items() if value is not None})


def _check_keys(parser: configparser.ConfigParser) -> None:
    for section in parser.sections():
        known = _SYNTH_KEYS if section.startswith("synth.") else _KEYS.get(section)
        if known is None:
            raise ParseError(
                f"[{section}]: unknown section; known: {', '.join(_KEYS)}, synth.<name>"
            )
        for key in parser.options(section):
            if key not in known:
                raise ParseError(
                    f"[{section}] {key}: unknown key; known: {', '.join(known)}"
                )


def _synth_sections(
    parser: configparser.ConfigParser, root_seed: int
) -> tuple[tuple[str, GeneratorSpec], ...]:
    specs = []
    for section in parser.sections():
        if not section.startswith("synth."):
            continue
        name = section[len("synth.") :]
        if not name:
            raise ParseError("synth section needs a name: [synth.<name>]")
        kind = _get(parser, section, "kind")
        if kind is None:
            raise ParseError(f"[{section}]: missing 'kind'")
        n = _get_int(parser, section, "n", 0)
        # offset by position so two unseeded sections draw different data
        seed = _get_int(parser, section, "seed", root_seed + len(specs))
        raw_params = _get(parser, section, "params", "{}")
        try:
            params = json.loads(raw_params)
        except json.JSONDecodeError as exc:
            raise ParseError(f"[{section}] params: invalid JSON: {exc}") from exc
        if not isinstance(params, dict):
            raise ParseError(f"[{section}] params: expected a JSON object")
        try:
            specs.append((name, GeneratorSpec(kind=kind, n=n, seed=seed, parameters=params)))
        except ValidationError as exc:
            raise ParseError(f"[{section}]: {exc}") from exc
    return tuple(specs)


def load_config(path: Path) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises:
        ParseError: unreadable file, bad syntax, an unknown section or
            key, bad typed value, or a missing referenced input file.
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
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc
    _check_keys(parser)

    base = path.resolve().parent
    returns_raw = _get(parser, "inputs", "returns")
    returns_path = _resolve_input(base, returns_raw, "returns")
    constituents_path = _resolve_input(
        base, _get(parser, "inputs", "constituents"), "constituents"
    )

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ParseError(
                f"{SEED_ENV_VAR}: expected an integer, got {env_seed!r}"
            ) from exc
        seed_source = "env"
    else:
        seed = _get_int(parser, "run", "seed", 0)
        seed_source = "config"

    raw_fractiles = _get(parser, "risk", "fractiles")
    fractiles = None
    if raw_fractiles is not None:
        try:
            fractiles = tuple(float(x) for x in _name_list(raw_fractiles))
        except ValueError as exc:
            raise ParseError(f"[risk] fractiles: expected numbers, got {raw_fractiles!r}") from exc
        if not fractiles:
            raise ParseError("[risk] fractiles: empty list")

    members_raw = _get(parser, "series", "panel")
    var_lag = _get_int(parser, "var", "lag", None) if _get(parser, "var", "lag") else None

    return RunConfig(
        returns_path=returns_path,
        layout=_get(parser, "inputs", "layout", "wide"),
        constituents_path=constituents_path,
        constituents_label=_get(parser, "series", "constituents_label", "PORT"),
        market=_get(parser, "series", "market") or None,
        panel_members=_name_list(members_raw) if members_raw else None,
        n_factors=_get_int(parser, "factors", "count", 1),
        risk=_risk_config(
            fractiles=fractiles,
            garch_conditioning=_get(parser, "risk", "garch_conditioning"),
            mixture_k_max=_get_int(parser, "risk", "mixture_k_max", None),
            gpd_threshold_quantile=_get_float(parser, "risk", "gpd_threshold_quantile", None),
        ),
        var_max_lag=_get_int(parser, "var", "max_lag", 6),
        var_criterion=_get(parser, "var", "criterion", "BIC").upper(),
        var_lag=var_lag,
        forecast_horizon=_get_int(parser, "var", "forecast_horizon", 12),
        irf_horizon=_get_int(parser, "var", "irf_horizon", 24),
        n_boot=_get_int(parser, "var", "bootstrap", 500),
        correlogram_lags=_get_int(parser, "describe", "correlogram_lags", 12),
        output_dir=Path(_get(parser, "run", "output", "out")),
        seed=seed,
        seed_source=seed_source,
        synth_specs=_synth_sections(parser, seed),
    )
