"""Shared fixtures and frozen reference values for the test suite.

The six-MFI reference table, its comparison matrix, stationary vector,
and the Fisher p-values are fixed oracles: the numbers were computed
once by independent means (hand arithmetic, fractions-based enumeration,
a separate linear solve) and are asserted verbatim here.  Tests marked
with ``published_*`` fixtures need the real dataset and are skipped
unless MFIRANK_DATASET_DIR points at a directory with conversions.csv,
products.csv, and clicks.csv.
"""

from __future__ import annotations

import dataclasses
import os
import tracemalloc
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import settings

from mfirank.data import (
    click_table, conversion_table, parse_clicks, parse_conversions, parse_products,
)
from mfirank.features import FeatureVector
from mfirank.fixtures import generate_fixture

settings.register_profile("suite", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("suite")

DATASET_ENV = "MFIRANK_DATASET_DIR"

# Six MFIs with all five features precomputed, in id order:
# (rating_norm, lar_norm, fairness, service_p90_sec, epc).
REFERENCE_TABLE = {
    "18": (3.8687, 0.1329, 1, 126004.2648, 5.3577),
    "20": (3.8599, 0.1229, 3, 58758.7124, 1.5044),
    "29": (3.8630, 0.1277, 4, 310794.5388, 1.1219),
    "56": (3.8690, 0.1256, 1, 68637.8840, 2.1196),
    "64": (3.8747, 0.1323, 1, 90024.9961, 3.5466),
    "87": (3.8712, 0.1247, 3, 23893.1089, 1.9553),
}

# Pairwise loss counts for the table above: row i column j counts the
# features on which MFI j beats MFI i.
REFERENCE_MATRIX = [
    [0, 2, 1, 2, 2, 3],
    [3, 0, 3, 3, 3, 4],
    [4, 2, 0, 3, 4, 3],
    [2, 2, 2, 0, 3, 3],
    [2, 2, 1, 1, 0, 2],
    [2, 0, 2, 2, 3, 0],
]

# Stationary distribution of the row-normalized reference matrix, from
# an independent linear solve, frozen to 6 decimals.
REFERENCE_PI = {
    "18": 0.178772,
    "20": 0.128717,
    "29": 0.137343,
    "56": 0.155119,
    "64": 0.199766,
    "87": 0.200284,
}

# The same vector rounded to 3 decimals, as published.
PUBLISHED_PI = {
    "18": 0.179,
    "20": 0.129,
    "29": 0.137,
    "56": 0.155,
    "64": 0.199,
    "87": 0.200,
}

REFERENCE_RANKING = ["87", "64", "18", "56", "29", "20"]

# One-sided Fisher p-values, frozen from a fractions-based
# hypergeometric enumeration.
FISHER_CLICK_P = 0.04473902173699744  # (126, 7368) vs (206, 14685)
FISHER_CONVERSION_P = 1.557280823582451e-06  # (126, 745) vs (206, 2030)


def reference_vectors() -> list[FeatureVector]:
    return [
        FeatureVector(
            mfi_id=mfi,
            rating_norm=rating,
            lar_norm=lar,
            fairness=fair,
            service_p90_sec=p90,
            epc=earn,
        )
        for mfi, (rating, lar, fair, p90, earn) in REFERENCE_TABLE.items()
    ]


def traced_peak(call) -> int:
    """Bytes ``call()`` allocates at its peak, numpy's buffers included."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.fixture
def golden_vectors() -> list[FeatureVector]:
    return reference_vectors()


def tables(conversions, products, clicks):
    """A record triple as the stages take it: the conversions and clicks as
    tables, the product cards as records."""
    return conversion_table(conversions), products, click_table(clicks)


@pytest.fixture(scope="session")
def fixture_triple():
    """A deterministic synthetic dataset shared by read-only tests."""
    return generate_fixture(0)


@pytest.fixture(scope="session")
def year_999_triple(fixture_triple):
    """The same dataset with every timestamp moved to the year 999, where
    a year is written with a leading zero."""

    def moved(record):
        values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        return dataclasses.replace(record, **{
            name: value.replace(year=999)
            for name, value in values.items()
            if isinstance(value, datetime)
        })

    return tuple([moved(r) for r in records] for records in fixture_triple)


@pytest.fixture(scope="session")
def fixture_tables(fixture_triple):
    """The same dataset as the stages take it."""
    return tables(*fixture_triple)


def dataset_dir() -> Path | None:
    root = os.environ.get(DATASET_ENV)
    if not root:
        return None
    path = Path(root)
    needed = ["conversions.csv", "products.csv", "clicks.csv"]
    if all((path / name).is_file() for name in needed):
        return path
    return None


def require_dataset() -> Path:
    path = dataset_dir()
    if path is None:
        pytest.skip(
            f"set {DATASET_ENV} to a directory with conversions.csv, "
            "products.csv, and clicks.csv to run dataset-bound checks"
        )
    return path


_dataset_cache: dict = {}


def load_published():
    """Parse the published dataset once per test session: the three tables."""
    if "triple" not in _dataset_cache:
        path = require_dataset()
        _dataset_cache["triple"] = tuple(
            parse(str(path / f"{name}.csv")).table
            for parse, name in (
                (parse_conversions, "conversions"),
                (parse_products, "products"),
                (parse_clicks, "clicks"),
            )
        )
    return _dataset_cache["triple"]


@pytest.fixture(scope="session")
def published_triple():
    return load_published()
