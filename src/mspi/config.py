"""Pipeline configuration: one flat JSON file, defaults pre-filled.

Every stage reads the same config object; the SHA-256 hash of the canonical
JSON encoding is embedded in every artifact for provenance verification.

Each setting has one default. A setting that a stage dataclass owns takes
its default from that dataclass; the functions the stages call take every
other setting as an argument without a default. Each builder reads every
field of its dataclass from the config field of the same name:
``eligibility_filter()``, ``stress_config()`` and ``backtest_config()`` as
they are, ``sim_config()`` with the prefix ``sim_`` and the shared ``seed``.
Each range check sits in one place and raises ConfigError naming the config
field: in the stage dataclass for its own fields, otherwise in ``validate``.

The protocol of the stages after ``backtest`` is not configurable: the ECE
bins, probability bins and bootstrap block length are constants of
``evaluation`` (``ECE_BINS``, ``BIN_EDGES``, ``BOOTSTRAP_BLOCK``), the HAC
lag, crash cutoff and local-projection horizon constants of
``econometrics`` (``HAC_LAG``, ``CRASH_CUTOFF``, ``LP_HORIZON``). No run
sets another value, so each has one owner and a config that names one is
rejected as an unknown field.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .backtest import BacktestConfig
from .errors import ConfigError
from .labels import StressConfig
from .panel import EligibilityFilter
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
_FILTER = EligibilityFilter()
_STRESS = StressConfig()
_BACKTEST = BacktestConfig()
_SIM = SimConfig(seed=_BACKTEST.seed)


@dataclass
class PipelineConfig:
    # inputs/outputs (None means "<out_dir>/<name>.csv" from an earlier stage)
    panel_csv: str | None = None
    market_csv: str | None = None
    out_dir: str = "out"

    # eligibility filter
    min_abs_price: float = _FILTER.min_abs_price

    # features
    tail_threshold: float = 0.05  # |daily return| of an extreme mover

    # stress labeling
    return_cutoff: float = _STRESS.return_cutoff
    vol_quantile: float = _STRESS.vol_quantile
    min_history_months: int = _STRESS.min_history_months

    # backtest
    initial_window_months: int = _BACKTEST.initial_window_months
    cv_folds: int = _BACKTEST.cv_folds
    l1_grid: list = field(default_factory=lambda: list(_BACKTEST.l1_grid))
    l2_grid: list = field(default_factory=lambda: list(_BACKTEST.l2_grid))
    rf_trees: int = _BACKTEST.rf_trees
    gb_stage_grid: list = field(default_factory=lambda: list(_BACKTEST.gb_stage_grid))
    models: list = field(default_factory=lambda: list(_BACKTEST.models))
    seed: int = _BACKTEST.seed  # also the simulation seed

    # evaluation
    bootstrap_reps: int = 2000
    benchmark: str = "l2"

    # econometrics
    regress_model: str = "l1"

    # simulation
    sim_n_stocks: int = _SIM.n_stocks
    sim_n_years: int = _SIM.n_years
    sim_p_calm_to_stress: float = _SIM.p_calm_to_stress
    sim_p_stress_to_calm: float = _SIM.p_stress_to_calm

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
            raise ConfigError(f"config file {path} cannot be read: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Build a config from parsed JSON; raises ConfigError on an unknown
        field, a value of the wrong type, not finite or out of range."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
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
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self):
        if not 0 < self.tail_threshold:
            raise ConfigError(f"tail_threshold must be > 0, got {self.tail_threshold}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.bootstrap_reps < 1:
            raise ConfigError(f"bootstrap_reps must be >= 1, got {self.bootstrap_reps}")
        if self.benchmark not in self.models:
            raise ConfigError(
                f"benchmark '{self.benchmark}' is not among models {self.models}"
            )
        if self.regress_model not in self.models:
            raise ConfigError(
                f"regress_model '{self.regress_model}' is not among models {self.models}"
            )
        # delegate the rest to the owning dataclasses
        self.eligibility_filter()
        self.stress_config()
        self.sim_config()
        self.backtest_config()

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
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

    def eligibility_filter(self) -> EligibilityFilter:
        return self._stage(EligibilityFilter)

    def stress_config(self) -> StressConfig:
        return self._stage(StressConfig)

    def sim_config(self) -> SimConfig:
        return self._stage(SimConfig, "sim_", seed=self.seed)

    def backtest_config(self) -> BacktestConfig:
        return self._stage(BacktestConfig)
