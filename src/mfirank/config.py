"""Pipeline configuration: defaults, JSON config files, CLI overrides.

A run's behaviour is fully described by a PipelineConfig.  The built-in
defaults, an optional JSON file and command-line flags, later sources
winning, merge into one dict in the canonical form of ``to_dict()``,
which one function parses, reading and checking each key once.  Every
output artifact embeds ``digest()``, a SHA-256 over that canonical form,
so results can be traced back to the exact settings that produced them.

The module imports only :mod:`mfirank.data` and :mod:`mfirank.errors`:
it owns the defaults the stages take (the feature names, the duration
rules, ``TIE_EPS`` and ``DEFAULT_MIN_SUPPORT``), so resolving a
configuration loads no stage.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Any, Mapping

from .data import DEFAULT_SCHEMA, LoanType, SchemaConfig, Status
from .errors import ConfigError

ALL_FEATURES = ("rating", "lar", "fairness", "service_period", "epc")
# Feature values, and stationary masses, that differ by at most this are tied.
TIE_EPS = 1e-9
# Pair observations required before a reapproval frequency is trusted.
DEFAULT_MIN_SUPPORT = 5


@dataclass(frozen=True)
class DurationRule:
    """Maps a phrase pattern to a unit scale in seconds.

    ``scale`` 0 marks instant-service wording where no number appears.
    """

    pattern: str
    scale: float


DEFAULT_DURATION_RULES = (
    DurationRule(r"моментальн|мгновенн|сразу|instant", 0.0),
    DurationRule(r"сек|sec", 1.0),
    DurationRule(r"мин|min", 60.0),
    DurationRule(r"час|hour", 3600.0),
    DurationRule(r"дн|ден|сут|day", 86400.0),
)

_LOAN_TYPES: dict[str, LoanType | None] = {t.value: t for t in LoanType} | {"all": None}


@dataclass(frozen=True)
class PipelineConfig:
    features: tuple[str, ...] = ALL_FEATURES
    loan_type: LoanType | None = LoanType.STANDARD
    damping: float = 0.0
    tie_eps: float = TIE_EPS
    min_support: int = DEFAULT_MIN_SUPPORT
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
            "loan_type_map": {k: v.value for k, v in sorted(self.schema.loan_type_map.items())},
            "true_strings": sorted(self.schema.true_strings),
            "false_strings": sorted(self.schema.false_strings),
            "column_aliases": dict(sorted(self.schema.column_aliases.items())),
            "duration_rules": [
                {"pattern": r.pattern, "scale": r.scale} for r in self.duration_rules
            ],
            "page_constraints": dict(self.page_constraints) if self.page_constraints else None,
        }

    def digest(self) -> str:
        # Imported here: the stages import this module for its defaults,
        # and hashlib maps OpenSSL (about 3.6 MiB of resident memory).
        import hashlib

        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# A config file holds exactly the keys of the canonical form, and a CLI
# flag's argparse ``dest`` is the key it sets.
CONFIG_KEYS = frozenset(PipelineConfig().to_dict())
# A user object under one of these keys extends the default object.
_EXTENDED_KEYS = frozenset({"status_map", "loan_type_map", "column_aliases"})


def _finite(value: Any) -> float | None:
    """A JSON number as a finite float; None for NaN, ±Infinity, text or true/false."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value) if abs(value) <= sys.float_info.max else None
    return None


def _number(value: Any, key: str, kind: str = "a number") -> float:
    """A JSON number as a float, NaN when not finite; text and true/false are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be {kind}")
    return float(value) if abs(value) <= sys.float_info.max else math.nan


def _strings(value: Any) -> bool:
    """Whether ``value`` is a JSON list of strings."""
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def _spellings(value: Any, key: str) -> frozenset[str]:
    if not _strings(value):
        raise ConfigError(f"config key {key!r} must be a list of strings")
    return frozenset(s.lower() for s in value)


def _enum_map(value: Any, key: str, enum: type[Status] | type[LoanType]) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must be an object")
    try:
        return {k: enum(v) for k, v in value.items()}
    except ValueError as exc:
        raise ConfigError(f"bad {key}: {exc}") from None


def _duration_rule(rule: Any) -> DurationRule:
    if not (isinstance(rule, dict) and isinstance(rule.get("pattern"), str) and "scale" in rule):
        raise ConfigError("duration_rules must be a list of {pattern, scale} objects")
    pattern, scale = rule["pattern"], _finite(rule["scale"])
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
    return constraints or None


def _parse(data: Mapping[str, Any]) -> PipelineConfig:
    """The configuration that ``data``, in the form of ``to_dict()``, describes.

    Each key is read once, and its JSON type and range are checked there.
    """
    features = data["features"]
    if not _strings(features):
        raise ConfigError("features must be a list of feature names")
    if not features:
        raise ConfigError("at least one feature must be enabled")
    unknown = [f for f in features if f not in ALL_FEATURES]
    if unknown:
        raise ConfigError(f"unknown features {unknown}; choose from {list(ALL_FEATURES)}")
    if len(set(features)) != len(features):
        raise ConfigError("duplicate feature names")

    loan_type = data["loan_type"]
    loan_key = loan_type.strip().lower() if isinstance(loan_type, str) else None
    if loan_key not in _LOAN_TYPES:
        raise ConfigError(f"unknown loan type {loan_type!r}; choose from {sorted(_LOAN_TYPES)}")

    damping = _number(data["damping"], "damping")
    if not 0.0 <= damping < 1.0:
        raise ConfigError("damping must lie in [0, 1)")
    tie_eps = _number(data["tie_eps"], "tie_eps")
    if not 0.0 < tie_eps < math.inf:
        raise ConfigError("tie_eps must be finite and positive")
    min_support = data["min_support"]  # 3.0 reads as 3; 2.7, 1e400 and NaN are refused
    if not _number(min_support, "min_support", "a whole number").is_integer():
        raise ConfigError("config key 'min_support' must be a whole number")
    if min_support < 0:
        raise ConfigError("min_support must be non-negative")
    confidence_level = _number(data["confidence_level"], "confidence_level")
    if not 0.0 < confidence_level < 1.0:
        raise ConfigError("confidence_level must lie in (0, 1)")

    timestamp_format = data["timestamp_format"]
    if not isinstance(timestamp_format, str):
        raise ConfigError("config key 'timestamp_format' must be a string")
    true_strings = _spellings(data["true_strings"], "true_strings")
    false_strings = _spellings(data["false_strings"], "false_strings")
    # A flag is true exactly when it matches true_strings; false_strings
    # only documents the false spellings, so it must not contradict them.
    both = true_strings & false_strings
    if both:
        raise ConfigError(f"spellings {sorted(both)} are in both true_strings and false_strings")
    column_aliases = data["column_aliases"]
    if not (isinstance(column_aliases, dict) and _strings(list(column_aliases.values()))):
        raise ConfigError("config key 'column_aliases' must be an object of strings")

    rules = data["duration_rules"]
    if not isinstance(rules, list):
        raise ConfigError("duration_rules must be a list of {pattern, scale} objects")
    return PipelineConfig(
        features=tuple(features),
        loan_type=_LOAN_TYPES[loan_key],
        damping=damping,
        tie_eps=tie_eps,
        min_support=int(min_support),
        confidence_level=confidence_level,
        schema=SchemaConfig(
            timestamp_format=timestamp_format,
            status_map=_enum_map(data["status_map"], "status_map", Status),
            loan_type_map=_enum_map(data["loan_type_map"], "loan_type_map", LoanType),
            true_strings=true_strings,
            false_strings=false_strings,
            column_aliases=dict(column_aliases),
        ),
        duration_rules=tuple(_duration_rule(r) for r in rules),
        page_constraints=_page_constraints(data["page_constraints"]),
    )


def load_config(
    path: str | None = None, overrides: Mapping[str, Any] | None = None
) -> PipelineConfig:
    """Resolve the effective configuration.

    ``overrides`` holds command-line flag values by config key (None
    entries are ignored); flags beat the file, the file beats the
    defaults.  The three are merged into one canonical dict, parsed once.
    """
    data: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    data.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    merged = PipelineConfig().to_dict()
    for key, value in data.items():
        if key in _EXTENDED_KEYS and isinstance(value, dict):
            # Lower-cased first, so a user "Sale" replaces the default "sale".
            value = {**merged[key], **{k.lower(): v for k, v in value.items()}}
        merged[key] = value
    return _parse(merged)
