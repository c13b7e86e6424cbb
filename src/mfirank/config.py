"""Pipeline configuration: defaults, JSON config files, CLI overrides.

A run's behaviour is fully described by a PipelineConfig.  Values come
from built-in defaults, then an optional JSON file, then command-line
flags, later sources winning.  Every output artifact embeds
``digest()``, a SHA-256 over the canonical JSON form of the resolved
configuration, so results can be traced back to the exact settings that
produced them.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from .data import (
    DEFAULT_SCHEMA,
    LoanType,
    SchemaConfig,
    Status,
)
from .errors import ConfigError
from .features import ALL_FEATURES, DEFAULT_DURATION_RULES, DurationRule

_LOAN_TYPE_FLAGS = {
    "standard": LoanType.STANDARD,
    "long-term": LoanType.LONG_TERM,
    "interest-free": LoanType.INTEREST_FREE,
    "all": None,
}


@dataclass(frozen=True)
class PipelineConfig:
    features: tuple[str, ...] = ALL_FEATURES
    loan_type: LoanType | None = LoanType.STANDARD
    damping: float = 0.0
    tie_eps: float = 1e-9
    min_support: int = 5
    confidence_level: float = 0.995
    schema: SchemaConfig = DEFAULT_SCHEMA
    duration_rules: tuple[DurationRule, ...] = DEFAULT_DURATION_RULES
    page_constraints: Mapping[str, Any] | None = None

    def to_dict(self) -> dict:
        """Canonical JSON-able form; everything that affects results."""
        return {
            "features": list(self.features),
            "loan_type": self.loan_type.value if self.loan_type else "all",
            "damping": self.damping,
            "tie_eps": self.tie_eps,
            "min_support": self.min_support,
            "confidence_level": self.confidence_level,
            "timestamp_format": self.schema.timestamp_format,
            "status_map": {k: v.value for k, v in sorted(self.schema.status_map.items())},
            "loan_type_map": {
                k: v.value for k, v in sorted(self.schema.loan_type_map.items())
            },
            "true_strings": sorted(self.schema.true_strings),
            "false_strings": sorted(self.schema.false_strings),
            "column_aliases": dict(sorted(self.schema.column_aliases.items())),
            "duration_rules": [
                {"pattern": r.pattern, "scale": r.scale} for r in self.duration_rules
            ],
            "page_constraints": dict(self.page_constraints)
            if self.page_constraints
            else None,
        }

    def digest(self) -> str:
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# A config file holds exactly the keys of the canonical form.
_CONFIG_KEYS = frozenset(PipelineConfig().to_dict())


def _validated(config: PipelineConfig) -> PipelineConfig:
    if not config.features:
        raise ConfigError("at least one feature must be enabled")
    unknown = [f for f in config.features if f not in ALL_FEATURES]
    if unknown:
        raise ConfigError(f"unknown features {unknown}; choose from {list(ALL_FEATURES)}")
    if len(set(config.features)) != len(config.features):
        raise ConfigError("duplicate feature names")
    if not 0.0 <= config.damping < 1.0:
        raise ConfigError("damping must lie in [0, 1)")
    if not 0.0 < config.tie_eps < float("inf"):
        raise ConfigError("tie_eps must be finite and positive")
    if config.min_support < 0:
        raise ConfigError("min_support must be non-negative")
    if not 0.0 < config.confidence_level < 1.0:
        raise ConfigError("confidence_level must lie in (0, 1)")
    # A flag is true exactly when it matches true_strings; false_strings
    # only documents the false spellings, so it must not contradict them.
    both = config.schema.true_strings & config.schema.false_strings
    if both:
        raise ConfigError(
            f"spellings {sorted(both)} are in both true_strings and false_strings"
        )
    return config


def _whole_number(value: Any) -> int:
    """``int(value)``, refusing a float that is not whole (2.7, 1e400, NaN)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _finite(value: Any) -> float | None:
    """A JSON number as a finite float; None for NaN, ±Infinity, text or true/false."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value) if abs(value) <= sys.float_info.max else None
    return None


def _duration_rule(rule: Any) -> DurationRule:
    try:
        pattern, scale = str(rule["pattern"]), _finite(rule["scale"])
    except (TypeError, KeyError):
        raise ConfigError("duration_rules must be a list of {pattern, scale} objects") from None
    try:
        re.compile(pattern)
    except re.error as exc:
        raise ConfigError(f"duration rule pattern {pattern!r} does not compile: {exc}") from None
    if scale is None or scale < 0:
        raise ConfigError(f"duration rule {pattern!r}: scale must be a finite number >= 0")
    return DurationRule(pattern=pattern, scale=scale)


def _page_constraints(constraints: Any) -> Mapping[str, Any] | None:
    if constraints is not None and not isinstance(constraints, dict):
        raise ConfigError("page_constraints must be an object or null")
    for name, want in (constraints or {}).items():
        if isinstance(want, dict) and (
            set(want) - {"min", "max"} or any(_finite(v) is None for v in want.values())
        ):
            raise ConfigError(f"page constraint {name!r}: a range holds only finite min/max")
    return constraints


def parse_loan_type_flag(value: str) -> LoanType | None:
    try:
        return _LOAN_TYPE_FLAGS[value.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"unknown loan type {value!r}; choose from {sorted(_LOAN_TYPE_FLAGS)}"
        ) from None


def _schema_from(data: Mapping[str, Any]) -> SchemaConfig:
    kwargs: dict[str, Any] = {}
    if "timestamp_format" in data:
        kwargs["timestamp_format"] = str(data["timestamp_format"])
    if "status_map" in data:
        try:
            kwargs["status_map"] = {
                str(k).lower(): Status(str(v)) for k, v in data["status_map"].items()
            }
        except ValueError as exc:
            raise ConfigError(f"bad status_map: {exc}") from None
    if "loan_type_map" in data:
        try:
            kwargs["loan_type_map"] = {
                str(k).lower(): LoanType(str(v)) for k, v in data["loan_type_map"].items()
            }
        except ValueError as exc:
            raise ConfigError(f"bad loan_type_map: {exc}") from None
    if "true_strings" in data:
        kwargs["true_strings"] = frozenset(str(s).lower() for s in data["true_strings"])
    if "false_strings" in data:
        kwargs["false_strings"] = frozenset(str(s).lower() for s in data["false_strings"])
    if "column_aliases" in data:
        kwargs["column_aliases"] = {
            str(k): str(v) for k, v in data["column_aliases"].items()
        }
    return replace(DEFAULT_SCHEMA, **kwargs) if kwargs else DEFAULT_SCHEMA


def load_config(
    path: str | None = None, overrides: Mapping[str, Any] | None = None
) -> PipelineConfig:
    """Resolve the effective configuration.

    ``overrides`` holds command-line flag values as a config file would
    hold them (None entries are ignored); flags beat the file, the file
    beats the defaults.  Both go through the same checks.
    """
    data: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    data.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    config = PipelineConfig(schema=_schema_from(data))
    if "features" in data:
        if not isinstance(data["features"], list):
            raise ConfigError("features must be a list of feature names")
        config = replace(config, features=tuple(str(f) for f in data["features"]))
    if "loan_type" in data:
        config = replace(config, loan_type=parse_loan_type_flag(str(data["loan_type"])))
    for key, caster in (
        ("damping", float),
        ("tie_eps", float),
        ("confidence_level", float),
        ("min_support", _whole_number),
    ):
        if key in data:
            try:
                # JSON true/false would pass float() and int() as 1 and 0.
                if isinstance(data[key], bool):
                    raise TypeError(data[key])
                config = replace(config, **{key: caster(data[key])})
            except (TypeError, ValueError):
                kind = "a whole number" if key == "min_support" else "a number"
                raise ConfigError(f"config key {key!r} must be {kind}") from None
    if "duration_rules" in data:
        if not isinstance(data["duration_rules"], list):
            raise ConfigError("duration_rules must be a list of {pattern, scale} objects")
        rules = tuple(_duration_rule(r) for r in data["duration_rules"])
        config = replace(config, duration_rules=rules)
    if "page_constraints" in data:
        config = replace(config, page_constraints=_page_constraints(data["page_constraints"]))
    return _validated(config)
