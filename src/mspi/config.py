"""Pipeline configuration: one flat JSON file, defaults pre-filled.

A run builds its config once, from the file and the command-line overrides,
and never changes it: ``PipelineConfig`` is frozen and checks itself on
construction. The SHA-256 hash of the canonical JSON encoding of every
setting but ``out_dir`` is embedded in every artifact for provenance
verification, so the same settings write the same bytes in any directory.

The config holds only the settings that a workload sets, plus the paths.
Every other default belongs to the module that uses it, and a config that
names one is rejected as an unknown field: the initial window, CV folds and
model roles are constants of ``backtest``, the tail threshold of
``features``, the stress rule and price floor the defaults of
``StressConfig`` and ``EligibilityFilter``, and the evaluation and inference
protocol constants of ``evaluation`` and ``econometrics``.

``backtest_config()`` reads every field of ``BacktestConfig`` from the
config field of the same name, ``sim_config()`` every field of ``SimConfig``
from the field with the prefix ``sim_`` and the shared ``seed``. Each range
check sits in one place and raises ConfigError naming the config field: in
the stage dataclass for its own fields, otherwise in ``__post_init__``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .backtest import BENCHMARK_MODEL, INDEX_MODEL, BacktestConfig
from .errors import ConfigError
from .simulate import SimConfig


_KINDS = {"int": int, "float": float, "str": str, "str | None": str, "list": list}


def _is_kind(value, kind: type) -> bool:
    """JSON-level type check: bools are not numbers, ints are valid floats."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


# Each default below is read from the stage dataclass that owns it; the
# simulator's seed has no default and takes the pipeline's ``seed``.
_BACKTEST = BacktestConfig()
_SIM = SimConfig(seed=_BACKTEST.seed)


@dataclass(frozen=True)
class PipelineConfig:
    # inputs/outputs (None means "<out_dir>/<name>.csv" from an earlier stage)
    panel_csv: str | None = None
    market_csv: str | None = None
    out_dir: str = "out"

    # backtest
    l1_grid: list = field(default_factory=lambda: list(_BACKTEST.l1_grid))
    l2_grid: list = field(default_factory=lambda: list(_BACKTEST.l2_grid))
    rf_trees: int = _BACKTEST.rf_trees
    gb_stage_grid: list = field(default_factory=lambda: list(_BACKTEST.gb_stage_grid))
    models: list = field(default_factory=lambda: list(_BACKTEST.models))
    seed: int = _BACKTEST.seed  # also the simulation seed

    # evaluation
    bootstrap_reps: int = 2000

    # simulation
    sim_n_stocks: int = _SIM.n_stocks
    sim_n_years: int = _SIM.n_years
    sim_p_calm_to_stress: float = _SIM.p_calm_to_stress
    sim_p_stress_to_calm: float = _SIM.p_stress_to_calm

    @classmethod
    def from_file(cls, path: str | None, **overrides) -> "PipelineConfig":
        """The config of the JSON file at ``path`` (every default if None),
        each override that is not None in place of the file's value."""
        try:
            raw = {} if path is None else json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
            raise ConfigError(f"config file {path} cannot be read: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(raw, **overrides)

    @classmethod
    def from_dict(cls, raw: dict, **overrides) -> "PipelineConfig":
        """Build a config from parsed JSON and the overrides that are not None;
        raises ConfigError on an unknown field, a value of the wrong type, not
        finite or out of range."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        raw = {**raw, **{name: v for name, v in overrides.items() if v is not None}}
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ConfigError(f"unknown config field '{unknown[0]}'")
        for name, value in raw.items():
            f = known[name]
            if value is None and f.type == "str | None":
                continue
            kind = _KINDS[f.type]
            if not _is_kind(value, kind):
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
            if kind is list:
                item = type(f.default_factory()[0])
                bad = [v for v in value if not _is_kind(v, item)]
                if bad:
                    raise ConfigError(
                        f"{name} entries must be of type {item.__name__}, got {bad[0]!r}"
                    )
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if kind is list else [value])):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        return cls(**raw)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.bootstrap_reps < 1:
            raise ConfigError(f"bootstrap_reps must be >= 1, got {self.bootstrap_reps}")
        for role, name in (("index", INDEX_MODEL), ("benchmark", BENCHMARK_MODEL)):
            if name not in self.models:
                raise ConfigError(f"models must include the {role} model '{name}', "
                                  f"got {self.models}")
        # delegate the rest to the owning dataclasses
        self.sim_config()
        self.backtest_config()

    def config_hash(self) -> str:
        """sha256 of the settings: every field but ``out_dir``."""
        settings = {k: v for k, v in asdict(self).items() if k != "out_dir"}
        canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ---- stage config builders -------------------------------------------

    def _stage(self, cls: type, prefix: str = "", **given):
        """``cls`` with each field not ``given`` read from the field
        ``prefix + name`` of this config, lists as tuples; the prefix also
        goes before the field name that starts a stage's range error."""
        for f in fields(cls):
            if f.name not in given:
                value = getattr(self, prefix + f.name)
                given[f.name] = tuple(value) if isinstance(value, list) else value
        try:
            return cls(**given)
        except ConfigError as exc:
            raise ConfigError(prefix + str(exc)) from None

    def sim_config(self) -> SimConfig:
        return self._stage(SimConfig, "sim_", seed=self.seed)

    def backtest_config(self) -> BacktestConfig:
        return self._stage(BacktestConfig)
