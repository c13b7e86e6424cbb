"""Ranking microfinance institutions from aggregator click logs.

The pipeline runs in three stages: per-MFI feature extraction
(:mod:`mfirank.features`), pairwise-comparison Markov-chain ranking
(:mod:`mfirank.rank`), and offline evaluation by replaying the log
under weekly re-ranking (:mod:`mfirank.evaluate`).  Group-comparison
statistics live in :mod:`mfirank.stats` and dataset IO in
:mod:`mfirank.data`.
"""

from .config import PipelineConfig, load_config
from .data import (
    ClickRecord,
    ConversionRecord,
    LoanType,
    ParseResult,
    ProductRecord,
    SchemaConfig,
    Status,
    Timeline,
    derive_timeline,
    parse_clicks,
    parse_conversions,
    parse_products,
    validate,
)
from .errors import ConfigError, DataError, InternalError, MfiRankError
from .evaluate import (
    ReapprovalTable,
    SimulationResult,
    daily_series,
    evaluate_ranking,
    reapproval_table,
    simulate,
    weekly_schedule,
    weekly_totals,
)
from .features import (
    ALL_FEATURES,
    FairnessScore,
    FeatureVector,
    LarPrior,
    RatingPrior,
    epc,
    fairness,
    feature_table,
    lar_prior,
    normalize_lar,
    normalize_rating,
    parse_declared_duration,
    rating_prior,
    service_period_p90,
)
from .fixtures import FixtureConfig, generate_fixture
from .rank import (
    ComparisonMatrix,
    RankingResult,
    StationaryDistribution,
    comparison_matrix,
    page_filter,
    rank_list,
    rank_mfis,
    stationary,
    transition,
)
from .stats import (
    TwoByTwo,
    WelchResult,
    fisher_exact_greater,
    welch_t_greater,
    yule_ci,
    yule_colligation,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_FEATURES",
    "ClickRecord",
    "ComparisonMatrix",
    "ConfigError",
    "ConversionRecord",
    "DataError",
    "FairnessScore",
    "FeatureVector",
    "FixtureConfig",
    "InternalError",
    "LarPrior",
    "LoanType",
    "MfiRankError",
    "ParseResult",
    "RatingPrior",
    "PipelineConfig",
    "ProductRecord",
    "RankingResult",
    "ReapprovalTable",
    "SchemaConfig",
    "SimulationResult",
    "StationaryDistribution",
    "Status",
    "Timeline",
    "TwoByTwo",
    "WelchResult",
    "comparison_matrix",
    "daily_series",
    "derive_timeline",
    "epc",
    "evaluate_ranking",
    "fairness",
    "feature_table",
    "fisher_exact_greater",
    "generate_fixture",
    "lar_prior",
    "load_config",
    "normalize_lar",
    "normalize_rating",
    "page_filter",
    "parse_clicks",
    "parse_conversions",
    "parse_declared_duration",
    "parse_products",
    "rank_list",
    "rank_mfis",
    "rating_prior",
    "reapproval_table",
    "service_period_p90",
    "simulate",
    "stationary",
    "transition",
    "validate",
    "weekly_schedule",
    "weekly_totals",
    "welch_t_greater",
    "yule_ci",
    "yule_colligation",
]
