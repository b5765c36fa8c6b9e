"""Pipeline configuration: one flat JSON file, defaults pre-filled.

A run builds its config once, from the file and the command-line overrides,
and never changes it: ``PipelineConfig`` is frozen and checks itself on
construction. The SHA-256 hash of the canonical JSON encoding of every
setting but ``out_dir`` is embedded in every artifact for provenance
verification, so the same settings write the same bytes in any directory.

The config holds only the settings that a workload sets, plus the paths.
Every other default belongs to the module that uses it, and a config that
names one is rejected as an unknown field: the initial window and CV folds
are constants of ``backtest``, the tree depths, leaf sizes and
shrinkage of ``learners.forest`` and ``learners.boosting``, the tail
threshold of ``features``, the stress rule of ``labels``, the price floor
the default of ``EligibilityFilter``, and the evaluation and inference
protocol constants of ``evaluation`` and ``econometrics``.

``PipelineConfig`` is the one settings type: each setting is declared,
defaulted and range-checked here, and the stages read it by name.
``simulate.simulate`` reads ``seed`` and the ``sim_`` fields,
``backtest.run_expanding_backtest`` the grids, ``rf_trees``, ``models`` and
``seed``, and the bootstrap ``bootstrap_reps`` and ``seed``.

The model names and roles live here too, since ``models`` is checked
against them: ``MODEL_NAMES`` are the models a run may list, and it must
list ``INDEX_MODEL`` (l1, the index the regressions read) and
``BENCHMARK_MODEL`` (l2, the benchmark of the bootstrap). This module
imports only the standard library, so a config error exits before NumPy
loads.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

# sha256 from the interpreter's own module, as the standard library's
# ``random`` takes sha512: ``hashlib`` maps OpenSSL's libcrypto, which a
# stage that only hashes its config has no use for.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

MODEL_NAMES = ("l1", "l2", "rf", "gb")
INDEX_MODEL = "l1"
BENCHMARK_MODEL = "l2"

_KINDS = {"int": int, "float": float, "str": str, "str | None": str, "list": list}


def _is_kind(value, kind: type) -> bool:
    """JSON-level type check: bools are not numbers, ints are valid floats."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _lambda_grid() -> list[float]:
    """The default l1 and l2 grid: ``np.logspace(-4, 0, 20)``, as written by ``repr``."""
    return [0.0001, 0.0001623776739188721, 0.00026366508987303583, 0.00042813323987193956,
            0.0006951927961775605, 0.0011288378916846883, 0.0018329807108324356,
            0.002976351441631319, 0.004832930238571752, 0.007847599703514606,
            0.012742749857031334, 0.0206913808111479, 0.03359818286283781,
            0.05455594781168514, 0.08858667904100823, 0.14384498882876628,
            0.23357214690901212, 0.3792690190732246, 0.615848211066026, 1.0]


@dataclass(frozen=True)
class PipelineConfig:
    # inputs/outputs (None means "<out_dir>/<name>.csv" from an earlier stage)
    panel_csv: str | None = None
    market_csv: str | None = None
    out_dir: str = "out"

    # backtest
    l1_grid: list = field(default_factory=_lambda_grid)
    l2_grid: list = field(default_factory=_lambda_grid)
    rf_trees: int = 500
    gb_stage_grid: list = field(default_factory=lambda: [50, 100, 200, 400])
    models: list = field(default_factory=lambda: list(MODEL_NAMES))
    seed: int = 7  # also the simulation seed

    # evaluation
    bootstrap_reps: int = 2000

    # simulation
    sim_n_stocks: int = 500
    sim_n_years: int = 40
    sim_p_calm_to_stress: float = 0.04
    sim_p_stress_to_calm: float = 0.35

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
        if self.sim_n_stocks < 2:
            raise ConfigError(f"sim_n_stocks must be >= 2, got {self.sim_n_stocks}")
        if self.sim_n_years < 1:
            raise ConfigError(f"sim_n_years must be >= 1, got {self.sim_n_years}")
        for name in ("sim_p_calm_to_stress", "sim_p_stress_to_calm"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0,1], got {getattr(self, name)}")
        if self.rf_trees < 1:
            raise ConfigError(f"rf_trees must be >= 1, got {self.rf_trees}")
        if not self.l1_grid or not self.l2_grid or not self.gb_stage_grid:
            raise ConfigError("hyperparameter grids must be non-empty")
        if not all(lam >= 0 for lam in [*self.l1_grid, *self.l2_grid]):
            raise ConfigError("l1_grid and l2_grid entries must be >= 0")
        if min(self.gb_stage_grid) < 1:
            raise ConfigError(f"gb_stage_grid entries must be >= 1, got {min(self.gb_stage_grid)}")
        unknown = [m for m in self.models if m not in MODEL_NAMES]
        if unknown:
            raise ConfigError(f"models: unknown model name(s) {unknown}")
        if len(set(self.models)) < len(self.models):
            raise ConfigError(f"models: each model may be listed once, got {self.models}")

    def config_hash(self) -> str:
        """sha256 of the settings: every field but ``out_dir``."""
        settings = {k: v for k, v in asdict(self).items() if k != "out_dir"}
        canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()
