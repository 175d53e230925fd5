"""Run configuration for the verification suites.

A SuiteConfig is a plain JSON-serializable record: grid sizes, torus
periods, Grassmann generator count, per-family tolerances, the frozen
action/variation conventions, the random seed, and fixture counts (each at
least 1, so no check passes having checked nothing).  The default config
path may be supplied through the SUPERSIGMA_CONFIG environment variable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields

from .sigma2d import ActionCoefficients

__all__ = ["SuiteConfig", "CONFIG_ENV_VAR", "DEFAULT_TOLERANCES", "DEFAULT_FIXTURE_COUNTS"]

CONFIG_ENV_VAR = "SUPERSIGMA_CONFIG"

DEFAULT_TOLERANCES = {
    "grassmann": 0.0,
    "berezin": 1e-12,
    "toy": 1e-10,
    "reduction": 1e-8,
    "susy2d": 1e-8,
    "calibration": 1e-6,
    "classical": 1e-10,
    "conformal": 1e-8,
    "energy_momentum_relative": 1e-6,
    "currents": 1e-8,
    "flow_energy": 1e-6,
    "decompose": 1e-8,
}

DEFAULT_FIXTURE_COUNTS = {
    "grassmann": 1000,
    "berezin": 100,
    "toy": 100,
    "reduction": 50,
    "susy2d": 8,
    "calibration": 4,
    "currents": 10,
    "decompose": 50,
}

def _require_known(kind: str, given: dict, defaults: dict) -> None:
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {kind} families {unknown}; known families are "
                         f"{sorted(defaults)}")


# JSON numbers, as the config hash serializes them; bool is not a number here.
def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class SuiteConfig:
    seed: int = 42
    n_gen: int = 6
    toy_points: int = 64
    grid_shape: tuple[int, int] = (16, 16)
    reduction_grid_shape: tuple[int, int] = (64, 64)
    periods: tuple[float, float] = (6.283185307179586, 6.283185307179586)
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    fixture_counts: dict = field(default_factory=lambda: dict(DEFAULT_FIXTURE_COUNTS))
    conventions: ActionCoefficients = field(default_factory=ActionCoefficients)
    flow_steps: int = 5000
    flow_dt: float = 1e-3

    def __post_init__(self):
        for name in ("grid_shape", "reduction_grid_shape", "periods"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        self.grid_shape = tuple(self.grid_shape)
        self.reduction_grid_shape = tuple(self.reduction_grid_shape)
        self.periods = tuple(self.periods)
        for name in ("tolerances", "fixture_counts"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be an object, got {getattr(self, name)!r}")
        _require_known("tolerance", self.tolerances, DEFAULT_TOLERANCES)
        _require_known("fixture-count", self.fixture_counts, DEFAULT_FIXTURE_COUNTS)
        if isinstance(self.conventions, dict):
            self.conventions = ActionCoefficients.from_dict(self.conventions)
        if not isinstance(self.conventions, ActionCoefficients):
            raise ValueError(f"conventions must be an object, got {self.conventions!r}")
        reals = {f"tolerance {name!r}": tol for name, tol in self.tolerances.items()}
        reals["flow_dt"] = self.flow_dt
        reals.update({f"periods[{i}]": p for i, p in enumerate(self.periods)})
        reals.update({f"convention {k!r}": v for k, v in self.conventions.to_dict().items()})
        for what, value in reals.items():
            if not _is_real(value):
                raise ValueError(f"{what} must be a number, got {value!r}")
        for name, tol in self.tolerances.items():
            if tol < 0.0:
                raise ValueError(f"tolerance {name!r} must be nonnegative")
        positive = {"toy_points": self.toy_points}
        positive.update({f"fixture count {name!r}": n for name, n in self.fixture_counts.items()})
        for name in ("grid_shape", "reduction_grid_shape"):
            positive.update({f"{name}[{i}]": n for i, n in enumerate(getattr(self, name))})
        integers = {"seed": self.seed, "n_gen": self.n_gen, "flow_steps": self.flow_steps,
                    **positive}
        for what, value in integers.items():
            if not _is_integer(value):
                raise ValueError(f"{what} must be an integer, got {value!r}")
        if self.n_gen < 1:
            raise ValueError("n_gen must be positive")
        for what, value in positive.items():
            if value < 1:
                raise ValueError(f"{what} must be at least 1, got {value!r}")
        for i, p in enumerate(self.periods):
            if not (math.isfinite(p) and p > 0.0):
                raise ValueError(f"periods[{i}] must be finite and positive, got {p!r}")
        if self.flow_steps < 0:
            raise ValueError(f"flow_steps must be at least 0, got {self.flow_steps!r}")
        if not (math.isfinite(self.flow_dt) and self.flow_dt > 0.0):
            raise ValueError(f"flow_dt must be finite and positive, got {self.flow_dt!r}")

    def tolerance(self, family: str) -> float:
        merged = dict(DEFAULT_TOLERANCES)
        merged.update(self.tolerances)
        return merged[family]

    def fixtures(self, family: str) -> int:
        merged = dict(DEFAULT_FIXTURE_COUNTS)
        merged.update(self.fixture_counts)
        return merged[family]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_gen": self.n_gen,
            "toy_points": self.toy_points,
            "grid_shape": list(self.grid_shape),
            "reduction_grid_shape": list(self.reduction_grid_shape),
            "periods": list(self.periods),
            "tolerances": dict(sorted(self.tolerances.items())),
            "fixture_counts": dict(sorted(self.fixture_counts.items())),
            "conventions": self.conventions.to_dict(),
            "flow_steps": self.flow_steps,
            "flow_dt": self.flow_dt,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SuiteConfig":
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(d) - set(known))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; known keys are {known}")
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SuiteConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "SuiteConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())

    @classmethod
    def from_environment(cls) -> "SuiteConfig":
        path = os.environ.get(CONFIG_ENV_VAR)
        if path:
            return cls.load(path)
        return cls()

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
