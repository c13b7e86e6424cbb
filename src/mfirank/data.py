"""Parsing, validation, and enrichment of microloan aggregator logs.

Three CSV datasets drive the pipeline: conversions (completed loan
applications), products (one row per MFI card, i.e. per MFI/loan-type
pair), and clicks (a superset of conversions that also contains
click-outs which never converted).  Parsers are lenient about optional
fields, strict about mandatory ones, and collect row-level problems
into the parse result instead of failing wholesale.

Each dataset is declared once, as a column table (``_CONVERSIONS``,
``_PRODUCTS``, ``_CLICKS``): every record field with its canonical
column name and cell kind, in the order the ``serialize_*`` writers use,
plus the columns the header must have and the cells that can reject a
row, in the order they are checked.  One parser reads all three.  A
bad mandatory cell drops its row with a ``RowError``; an unparseable
optional cell becomes empty (None; False for a flag, 0 for a review
count), and ``nan``, ``inf`` or an overflowing number is unparseable.

The parser reads the rows in blocks and transposes each block into
columns.  Every cell parser and check is a pure function of the cell
text, so each distinct cell of a column is parsed and checked once per
block; a timestamp column in the default format is read in bulk, as
fixed-width digits, and only the cells that do not fit that shape go
through the cell parser.  The accepted rows fill one columnar
:class:`Table` per file, in file order: id and text cells as first-seen
integer codes, timestamps as integer microseconds with a missing mask,
numbers as floats with NaN for missing, status and loan type as small
integer codes.  The result is the one a row-by-row reading gives:
records and row errors in row order, and the same ``DataError`` where
the file has one.

Every stage reads the tables, :func:`validate` included: its counts,
key join and record checks are array reductions.  The frozen slotted
records are built from a table on demand, afresh at each read of
:attr:`ParseResult.records`, a field at a time through their slot
descriptors; only the product cards are used as records.

All timestamps are naive local times in a single zone; no zone
conversion is performed anywhere in the package.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import logging
import math
import os
import re
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta
from enum import Enum
from itertools import compress, islice, repeat, zip_longest
from typing import IO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"


class LoanType(str, Enum):
    STANDARD = "standard"
    LONG_TERM = "long-term"
    INTEREST_FREE = "interest-free"


class Status(str, Enum):
    PENDING = "pending"
    SALE = "sale"
    REJECTED = "rejected"


# Raw CSV spellings vary (the upstream site is Russian); these maps are
# overridable through SchemaConfig / the CLI config file.
DEFAULT_STATUS_MAP = {
    "sale": Status.SALE,
    "rejected": Status.REJECTED,
}

DEFAULT_LOAN_TYPE_MAP = {
    "standard": LoanType.STANDARD,
    "usual": LoanType.STANDARD,
    "loan-usual": LoanType.STANDARD,
    "loan_usual": LoanType.STANDARD,
    "long-term": LoanType.LONG_TERM,
    "long_term": LoanType.LONG_TERM,
    "longterm": LoanType.LONG_TERM,
    "loan-long-term": LoanType.LONG_TERM,
    "loan-longterm": LoanType.LONG_TERM,
    "loan_longterm": LoanType.LONG_TERM,
    "interest-free": LoanType.INTEREST_FREE,
    "interest_free": LoanType.INTEREST_FREE,
    "interestfree": LoanType.INTEREST_FREE,
    "loan-interest-free": LoanType.INTEREST_FREE,
    "loan-free": LoanType.INTEREST_FREE,
}

DEFAULT_TRUE_STRINGS = frozenset({"да", "есть", "true", "yes", "1", "y"})
DEFAULT_FALSE_STRINGS = frozenset({"нет", "false", "no", "0", "n", ""})

# Canonical column names <- normalized CSV header spellings that differ.
DEFAULT_COLUMN_ALIASES = {
    "mfi_page_rank": "page_rank",
    "mfi_global_rank": "global_rank",
    "device_browser": "browser",
    "device_provider": "provider",
    "average_user_rating": "avg_user_rating",
    "number_of_reviews": "n_reviews",
    "repayment_period_min": "loan_term_min",
    "repayment_period_max": "loan_term_max",
}


@dataclass(frozen=True)
class SchemaConfig:
    """Knobs for mapping raw CSV spellings onto the canonical schema."""

    timestamp_format: str = TIMESTAMP_FORMAT
    status_map: Mapping[str, Status] = field(default_factory=lambda: dict(DEFAULT_STATUS_MAP))
    loan_type_map: Mapping[str, LoanType] = field(
        default_factory=lambda: dict(DEFAULT_LOAN_TYPE_MAP)
    )
    true_strings: frozenset[str] = DEFAULT_TRUE_STRINGS
    false_strings: frozenset[str] = DEFAULT_FALSE_STRINGS
    column_aliases: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_COLUMN_ALIASES)
    )


DEFAULT_SCHEMA = SchemaConfig()


@dataclass(frozen=True, slots=True)
class ConversionRecord:
    """One completed loan application submitted after a click-out."""

    mfi_id: str
    loan_type: LoanType
    client_id: str
    click_time: datetime
    status: Status
    card_id: str | None = None
    page_id: str | None = None
    page_rank: int | None = None
    global_rank: int | None = None
    conversion_time: datetime | None = None
    sale_time: datetime | None = None
    income: float | None = None
    country: str | None = None
    region: str | None = None
    city: str | None = None
    device_type: str | None = None
    device: str | None = None
    os: str | None = None
    browser: str | None = None
    connection_type: str | None = None
    provider: str | None = None


@dataclass(frozen=True, slots=True)
class ProductRecord:
    """One MFI card: loan terms, schedules, reviews, reliability flags."""

    mfi_id: str
    card_id: str
    loan_type: LoanType
    region: str | None = None
    work_schedule: str | None = None
    application_receipt_schedule: str | None = None
    processing_and_payment_schedule: str | None = None
    submission_method: str | None = None
    calls: str | None = None
    documents: str | None = None
    identification: str | None = None
    application_processing: str | None = None
    consideration_time: str | None = None
    payment_time: str | None = None
    payment_method: str | None = None
    repayment_method: str | None = None
    avg_user_rating: float | None = None
    n_reviews: int = 0
    unreliability: bool = False
    bad_credit_score: bool = False
    loan_extension: bool = False
    loan_amount_min: float | None = None
    loan_amount_max: float | None = None
    loan_term_min: float | None = None
    loan_term_max: float | None = None
    interest_min: float | None = None
    interest_max: float | None = None
    age_min: float | None = None
    age_max: float | None = None

    def violations(self) -> list[str]:
        out = []
        for lo, hi in (
            ("loan_amount_min", "loan_amount_max"),
            ("loan_term_min", "loan_term_max"),
            ("interest_min", "interest_max"),
            ("age_min", "age_max"),
        ):
            a, b = getattr(self, lo), getattr(self, hi)
            if a is not None and b is not None and a > b:
                out.append(f"{lo} > {hi}")
        if self.n_reviews > 0 and self.avg_user_rating is None:
            out.append("reviews without a rating")
        return out


@dataclass(frozen=True, slots=True)
class ClickRecord:
    """One click-out from the aggregator site (may or may not convert)."""

    mfi_id: str
    click_time: datetime
    client_id: str
    loan_type: LoanType
    card_id: str | None = None
    page_id: str | None = None
    page_rank: int | None = None
    income: float | None = None


@dataclass(frozen=True)
class Timeline:
    """Durations derived from one application's timestamps, in seconds.

    ``conversion_period`` is click -> application submitted,
    ``processing_period`` is submission -> payout (sales only).  A
    negative raw difference marks the whole record invalid and leaves
    both periods absent.
    """

    conversion_period: float | None = None
    processing_period: float | None = None
    invalid: bool = False


@dataclass(frozen=True)
class RowError:
    row: int  # 1-based data row number (header not counted)
    column: str
    message: str


@dataclass(frozen=True, eq=False)
class ParseResult:
    """The accepted rows of one dataset file, as a table, and the rows it
    rejected.  ``records`` builds the records from the table at each read."""

    table: Table
    errors: list[RowError]

    @property
    def records(self) -> list:
        return self.table.records()

    def __len__(self) -> int:
        return len(self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParseResult):
            return NotImplemented
        return self.errors == other.errors and self.records == other.records

    __hash__ = None


@dataclass
class ValidationReport:
    n_mfis: int = 0
    n_clients: int = 0
    n_applications: int = 0
    n_sales: int = 0
    status_shares: dict[str, float] = field(default_factory=dict)
    n_products: int = 0
    n_product_mfis: int = 0
    n_clicks: int = 0
    n_invalid_timelines: int = 0
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_mfis": self.n_mfis,
            "n_clients": self.n_clients,
            "n_applications": self.n_applications,
            "n_sales": self.n_sales,
            "status_shares": dict(self.status_shares),
            "n_products": self.n_products,
            "n_product_mfis": self.n_product_mfis,
            "n_clicks": self.n_clicks,
            "n_invalid_timelines": self.n_invalid_timelines,
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# column tables

# Cell kinds.  Every kind has one parser (see _cell_parsers); an unparseable
# cell reads as None, except that a bool reads as False and a review count
# as 0.
_ID = "id"
_TEXT = "text"
_LOAN_TYPE = "loan type"
_STATUS = "status"
_TIMESTAMP = "timestamp"
_FLOAT = "float"
_RATING = "rating"
_RANK = "rank"
_BOOL = "bool"
_COUNT = "review count"


@dataclass(frozen=True)
class _Dataset:
    """One CSV dataset: its record type, its columns and its row checks."""

    name: str
    record: type
    # (canonical column name, cell kind) for every record field, in the
    # order the serializer writes them.
    columns: tuple[tuple[str, str], ...]
    # Columns the header must have.
    mandatory: tuple[str, ...]
    # Columns whose cell can reject a row, checked in this order; the rule
    # comes from the column's kind (see _REJECTS).
    checks: tuple[str, ...]
    # A column no two accepted rows may share; checked right after its own
    # cell, and a repeat is fatal for the whole file.
    unique: str | None = None


_CONVERSIONS = _Dataset(
    "conversions",
    ConversionRecord,
    columns=(
        ("mfi_id", _ID), ("loan_type", _LOAN_TYPE), ("card_id", _ID), ("page_id", _ID),
        ("page_rank", _RANK), ("global_rank", _RANK), ("click_time", _TIMESTAMP),
        ("conversion_time", _TIMESTAMP), ("sale_time", _TIMESTAMP), ("status", _STATUS),
        ("income", _FLOAT), ("client_id", _ID), ("country", _TEXT), ("region", _TEXT),
        ("city", _TEXT), ("device_type", _TEXT), ("device", _TEXT), ("os", _TEXT),
        ("browser", _TEXT), ("connection_type", _TEXT), ("provider", _TEXT),
    ),
    mandatory=("mfi_id", "client_id", "click_time", "status", "loan_type"),
    checks=("click_time", "loan_type", "mfi_id", "client_id"),
)

_PRODUCTS = _Dataset(
    "products",
    ProductRecord,
    columns=(
        ("mfi_id", _ID), ("card_id", _ID), ("loan_type", _LOAN_TYPE), ("region", _TEXT),
        ("work_schedule", _TEXT), ("application_receipt_schedule", _TEXT),
        ("processing_and_payment_schedule", _TEXT), ("submission_method", _TEXT),
        ("calls", _TEXT), ("documents", _TEXT), ("identification", _TEXT),
        ("application_processing", _TEXT), ("consideration_time", _TEXT),
        ("payment_time", _TEXT), ("payment_method", _TEXT), ("repayment_method", _TEXT),
        ("avg_user_rating", _RATING), ("n_reviews", _COUNT), ("unreliability", _BOOL),
        ("bad_credit_score", _BOOL), ("loan_extension", _BOOL),
        ("loan_amount_min", _FLOAT), ("loan_amount_max", _FLOAT),
        ("loan_term_min", _FLOAT), ("loan_term_max", _FLOAT),
        ("interest_min", _FLOAT), ("interest_max", _FLOAT),
        ("age_min", _FLOAT), ("age_max", _FLOAT),
    ),
    mandatory=("mfi_id", "card_id", "loan_type"),
    checks=("mfi_id", "card_id", "loan_type", "avg_user_rating"),
    unique="card_id",
)

_CLICKS = _Dataset(
    "clicks",
    ClickRecord,
    columns=(
        ("mfi_id", _ID), ("card_id", _ID), ("click_time", _TIMESTAMP), ("client_id", _ID),
        ("page_id", _ID), ("page_rank", _RANK), ("loan_type", _LOAN_TYPE),
        ("income", _FLOAT),
    ),
    mandatory=("mfi_id", "client_id", "click_time", "loan_type"),
    checks=("click_time", "loan_type", "mfi_id", "client_id"),
)


# ---------------------------------------------------------------------------
# the columnar table

# A loan-type or status column holds each value's position here.
LOAN_TYPES = tuple(LoanType)
STATUSES = tuple(Status)

_MICROS_PER_DAY = 86_400_000_000
_EPOCH = datetime(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_MICROSECOND = timedelta(microseconds=1)
_NOT_A_TIME = np.iinfo(np.int64).min  # NaT as a datetime64 integer

_DTYPES = {
    _ID: np.int32, _TEXT: np.int32, _LOAN_TYPE: np.int8, _STATUS: np.int8,
    _TIMESTAMP: np.int64, _FLOAT: np.float64, _RATING: np.float64, _RANK: np.float64,
    _COUNT: np.float64, _BOOL: np.bool_,
}
_MEMBERS = {_LOAN_TYPE: LOAN_TYPES, _STATUS: STATUSES}


def to_micros(moment: datetime) -> int:
    """Microseconds from 1970-01-01 00:00 to ``moment``."""
    return (moment - _EPOCH) // _MICROSECOND


def from_micros(micros: int) -> datetime:
    return _EPOCH + timedelta(microseconds=micros)


def ordinal_days(micros: np.ndarray) -> np.ndarray:
    """The proleptic ordinal (``date.toordinal``) of each timestamp's date."""
    return micros // _MICROS_PER_DAY + _EPOCH_ORDINAL


def first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``codes`` in first-seen order, and each code renumbered
    as its place in that order."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    place = np.empty(len(distinct), np.int32)
    place[by_first] = np.arange(len(distinct), dtype=np.int32)
    return distinct[by_first], place[inverse]


def _codes(kind: str, memo: Mapping, names: dict) -> dict:
    """The column entry of each parsed value in ``memo`` (not a timestamp),
    by key: id and text values are interned into ``names``, new ones in
    ``memo``'s order; an unmapped loan type (of a rejected row) reads as -1."""
    if kind in (_ID, _TEXT):
        fresh = [value for value in dict.fromkeys(memo.values()) if value not in names]
        names.update(zip(fresh, range(len(names), len(names) + len(fresh))))
        return {key: names[value] for key, value in memo.items()}
    if kind in _MEMBERS:
        code = {None: -1, **{member: n for n, member in enumerate(_MEMBERS[kind])}}
        return {key: code[value] for key, value in memo.items()}
    if kind == _BOOL:
        return {key: bool(value) for key, value in memo.items()}
    return {key: math.nan if value is None else value for key, value in memo.items()}


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cycle collector: a parse and a record build make only
    acyclic objects, and a collection over the growing heap finds nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@dataclass(frozen=True, eq=False)
class Table:
    """The accepted rows of one dataset as columns, in file order.

    ``columns`` maps every record field to one array with an entry per
    row.  Id and text fields hold int32 codes into ``names[field]``, their
    distinct values in first-seen order.  Loan type and status hold int8
    positions in ``LOAN_TYPES`` and ``STATUSES``.  Timestamps hold int64
    microseconds since 1970-01-01, 0 where ``missing[field]`` marks an
    empty cell.  Floats, ratings, ranks and review counts hold float64,
    NaN where empty; flags hold bools.
    """

    dataset: _Dataset
    columns: Mapping[str, np.ndarray]
    names: Mapping[str, tuple]
    missing: Mapping[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.columns[self.dataset.columns[0][0]])

    def take(self, rows: np.ndarray) -> Table:
        """The table of ``rows``: positions, or a mask over the rows."""
        return Table(
            self.dataset,
            {name: column[rows] for name, column in self.columns.items()},
            self.names,
            {name: mask[rows] for name, mask in self.missing.items()},
        )

    def records(self) -> list:
        """One record per row, assembled a field at a time through the slots."""
        record = self.dataset.record
        with _collector_paused():
            new = list(map(object.__new__, repeat(record, len(self))))
            for name, kind in self.dataset.columns:
                deque(map(getattr(record, name).__set__, new, self._values(name, kind)), maxlen=0)
        return new

    def _values(self, name: str, kind: str) -> list:
        """The record field ``name`` of every row."""
        column = self.columns[name]
        if kind in (_ID, _TEXT):
            return np.array(self.names[name], dtype=object)[column].tolist()
        if kind in _MEMBERS:
            return np.array(_MEMBERS[kind], dtype=object)[column].tolist()
        if kind == _TIMESTAMP:
            stamps = np.where(self.missing[name], _NOT_A_TIME, column)
            return stamps.view("M8[us]").astype(object).tolist()  # NaT reads as None
        values = column.tolist()
        if kind == _BOOL:
            return values
        if kind == _COUNT:
            return list(map(int, values))
        if kind == _RANK:
            return [None if math.isnan(v) else int(v) for v in values]
        return [None if math.isnan(v) else v for v in values]

    @classmethod
    def from_records(cls, records: Sequence, dataset: _Dataset) -> Table:
        columns, names, missing = {}, {}, {}
        for name, kind in dataset.columns:
            values = [getattr(r, name) for r in records]
            if kind == _TIMESTAMP:
                missing[name] = np.array([v is None for v in values], bool)
                micros = (0 if v is None else to_micros(v) for v in values)
                columns[name] = np.fromiter(micros, np.int64, len(values))
                continue
            if kind in (_ID, _TEXT, _BOOL, *_MEMBERS):
                distinct = dict.fromkeys(values)
                codes = _codes(kind, dict(zip(distinct, distinct)), names.setdefault(name, {}))
                columns[name] = np.fromiter(map(codes.__getitem__, values), _DTYPES[kind], len(values))
            else:  # no dict: 0.0 and -0.0, or 1 and 1.0, are equal keys
                columns[name] = np.array([math.nan if v is None else v for v in values], _DTYPES[kind])
        return cls(dataset, columns, _names(dataset, names), missing)


def _names(dataset: _Dataset, interned: Mapping[str, dict]) -> dict[str, tuple]:
    """The names of each id and text column, from its interning dict."""
    return {
        name: tuple(interned.get(name, ())) for name, kind in dataset.columns if kind in (_ID, _TEXT)
    }


def _as_table(rows: Table | Iterable, dataset: _Dataset) -> Table:
    if isinstance(rows, Table):
        if rows.dataset is not dataset:
            raise ValueError(f"expected a {dataset.name} table, not {rows.dataset.name}")
        return rows
    return Table.from_records(list(rows), dataset)


def conversion_table(rows: Table | Iterable[ConversionRecord]) -> Table:
    """``rows`` as a conversions table: a table as it is, records converted."""
    return _as_table(rows, _CONVERSIONS)


def click_table(rows: Table | Iterable[ClickRecord]) -> Table:
    """``rows`` as a clicks table: a table as it is, records converted."""
    return _as_table(rows, _CLICKS)


# ---------------------------------------------------------------------------
# cell parsing


def _norm_header(name: str) -> str:
    return re.sub(r"[\s\-,]+", "_", name.strip().lower()).strip("_")


def _open_rows(source: str | os.PathLike | IO) -> Iterator[list[str]]:
    # "utf-8-sig" and the removeprefix drop the byte-order mark that
    # spreadsheet exports put before the header.  newline="" leaves line
    # breaks to the csv module, as its docs ask: a bare "\r" ends a row
    # instead of failing the whole file.  A file is decoded as it is
    # parsed, so the first decode or framing fault read wins; a stream is
    # read and decoded whole first.
    if hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw.removeprefix("\ufeff")
        yield from csv.reader(io.StringIO(text, newline=""))
        return
    if isinstance(source, str) and "\n" in source:
        raise DataError("a CSV source must be a path or an open text stream, not CSV text")
    try:
        fh = open(source, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc}") from None
    with fh:
        yield from csv.reader(fh)


def _clean(cell: str | None) -> str | None:
    if cell is None:
        return None
    cell = cell.strip()
    return cell or None


def _parse_float(cell: str | None) -> float | None:
    cell = cell.strip() if cell else None
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_finite(cell: str | None) -> float | None:
    """A finite float, or None: ``nan``, ``inf`` and overflowing text
    such as ``1e400`` are as unparseable as any other garbage."""
    value = _parse_float(cell)
    return value if value is not None and math.isfinite(value) else None


def _parse_rank(cell: str | None) -> int | None:
    """A positive whole number, or None: ``2.7`` is no rank."""
    value = _parse_finite(cell)
    if value is None or value <= 0 or not value.is_integer():
        return None
    return int(value)


def _parse_count(cell: str | None) -> int:
    value = _parse_finite(cell)
    return int(value) if value is not None and value >= 0 else 0


def _cell_parsers(config: SchemaConfig) -> dict[str, Callable[[str | None], object]]:
    """The parser of each cell kind, bound to ``config`` once per file."""
    fmt = config.timestamp_format
    statuses = config.status_map
    loan_types = config.loan_type_map
    true_strings = config.true_strings
    strptime = datetime.strptime

    def timestamp(cell: str | None) -> datetime | None:
        cell = _clean(cell)
        if cell is None:
            return None
        try:
            value = strptime(cell, fmt)
        except ValueError:
            return None
        # A zone suffix would make this the one aware datetime among naive ones.
        return value if value.tzinfo is None else None

    return {
        _ID: _clean,
        _TEXT: _clean,
        _LOAN_TYPE: lambda cell: loan_types.get((cell or "").strip().lower()),
        _STATUS: lambda cell: statuses.get((cell or "").strip().lower(), Status.PENDING),
        _TIMESTAMP: timestamp,
        _FLOAT: _parse_finite,
        _RATING: _parse_finite,
        _RANK: _parse_rank,
        # Anything outside the configured true spellings reads as False.
        _BOOL: lambda cell: (cell or "").strip().lower() in true_strings,
        _COUNT: _parse_count,
    }


def _rating_outside_range(value: float | None, cell: str | None) -> str | None:
    # Read the cell again: ``nan`` and ``inf`` are out of range, not absent.
    rating = _parse_float(cell)
    if rating is not None and not 1.0 <= rating <= 5.0:
        return f"rating {rating} outside [1, 5]"
    return None


# Why a checked cell rejects its row, by kind: (parsed value, raw cell) ->
# message, or None when the cell passes.
_REJECTS: Mapping[str, Callable[[object, str | None], str | None]] = {
    _ID: lambda value, cell: None if value is not None else "empty identifier",
    _TIMESTAMP: lambda value, cell: None if value is not None else f"malformed timestamp {cell!r}",
    _LOAN_TYPE: lambda value, cell: None if value is not None else f"unmapped loan type {cell!r}",
    _RATING: _rating_outside_range,
}


def _is_comment(row: list[str]) -> bool:
    return bool(row) and row[0].lstrip().startswith("#")


# Data rows read, parsed and assembled at a time.  A block bounds the raw
# cells alive at once, and its distinct cells are parsed once each.
_BLOCK_ROWS = 1024


def _raise_after_framing(rows: Iterator[list[str]], message: str) -> NoReturn:
    """Raise ``message`` as a DataError once the rest of the file has been
    read: a CSV framing fault anywhere in the file takes precedence."""
    deque(rows, maxlen=0)
    raise DataError(message)


def _read_header(
    rows: Iterator[list[str]], config: SchemaConfig, dataset: _Dataset
) -> dict[str, int]:
    """The header's column index by canonical name."""
    header = next((row for row in rows if not _is_comment(row)), None)
    if header is None:
        raise DataError(f"{dataset.name}: file is empty (no header row)")
    # Alias keys match after the same normalization as the header.  Sorted,
    # so which of two keys normalizing alike wins does not hang on dict order.
    aliases = {_norm_header(k): v for k, v in sorted(config.column_aliases.items())}
    index: dict[str, int] = {}
    for i, name in enumerate(header):
        canon = _norm_header(name)
        canon = aliases.get(canon, canon)
        index.setdefault(canon, i)
    for column in dataset.mandatory:
        if column not in index:
            _raise_after_framing(rows, f"{dataset.name}: missing mandatory column '{column}'")
    return index


def _parse_rows(source, config: SchemaConfig | None, dataset: _Dataset) -> ParseResult:
    """Read one dataset: every row becomes a table row or a RowError."""
    config = config or DEFAULT_SCHEMA
    rows = _open_rows(source)
    try:
        with _collector_paused():
            return _parse_blocks(rows, _read_header(rows, config, dataset), config, dataset)
    except csv.Error as exc:
        raise DataError(f"{dataset.name}: malformed CSV: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{dataset.name}: not UTF-8 text: {exc}") from None


# Byte positions of the digits and the separators in a cell of the default
# timestamp format, ``NNNN-NN-NN NN:NN:NN``.
_STAMP_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_STAMP_SEPARATORS = np.array([4, 7, 10, 13, 16])
_STAMP_SEPARATOR_BYTES = np.frombuffer(b"-- ::", np.uint8)
_STAMP_WIDTH = 19
_UNSHAPED = "-" * _STAMP_WIDTH  # stands in for a cell of another shape


def _bulk_stamps(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``cells`` (ASCII, each ``_STAMP_WIDTH`` long) are digits and
    separators of the default format naming a real moment, with year 1 or
    later, and the microseconds since 1970 of each that is."""
    raw = np.frombuffer("".join(cells).encode("ascii"), np.uint8).reshape(-1, _STAMP_WIDTH)
    digits = raw[:, _STAMP_DIGITS].astype(np.int64) - ord("0")
    ok = ((digits >= 0) & (digits <= 9)).all(axis=1)
    ok &= (raw[:, _STAMP_SEPARATORS] == _STAMP_SEPARATOR_BYTES).all(axis=1)
    digits[~ok] = 0
    pairs = digits[:, 0::2] * 10 + digits[:, 1::2]
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute, second = pairs[:, 2:].T
    months = (year - 1970) * 12 + month - 1  # since 1970-01
    first = months.astype("M8[M]").astype("M8[D]").view(np.int64)
    length = (months + 1).astype("M8[M]").astype("M8[D]").view(np.int64) - first
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= length)
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    seconds = (((first + day - 1) * 24 + hour) * 60 + minute) * 60 + second
    return ok, seconds * 1_000_000


def _timestamps(
    column: Sequence[str | None], parse: Callable[[str | None], datetime | None], bulk: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The microseconds since 1970 of each cell and the mask of the cells
    that read as no timestamp, as the cell parser ``parse`` reads them.

    With ``bulk`` (the default format), a cell of the shape
    ``NNNN-NN-NN NN:NN:NN`` that names a real moment is read arithmetically
    from its digits, as ``parse`` (``strptime`` with that format) reads it.
    Every other non-empty cell, padded ones included, goes to ``parse``,
    once per distinct cell.
    """
    if None in column:
        column = ["" if cell is None else cell for cell in column]
    lengths = np.fromiter(map(len, column), np.int64, len(column))
    micros = np.zeros(len(column), np.int64)
    missing = lengths == 0
    rest = ~missing
    if bulk:
        shaped = lengths == _STAMP_WIDTH
        candidates = list(compress(column, shaped))
        if not "".join(candidates).isascii():
            candidates = [c if c.isascii() else _UNSHAPED for c in candidates]
        if candidates:
            ok, read = _bulk_stamps(candidates)
            shaped[shaped] = ok
            micros[shaped] = read[ok]
            rest &= ~shaped
    memo: dict = {}
    for j in np.flatnonzero(rest).tolist():
        cell = column[j]
        if cell not in memo:
            memo[cell] = parse(cell)
        if memo[cell] is None:
            missing[j] = True
        else:
            micros[j] = to_micros(memo[cell])
    return micros, missing


def _parse_blocks(
    rows: Iterator[list[str]], index: Mapping[str, int], config: SchemaConfig, dataset: _Dataset
) -> ParseResult:
    """Parse the data rows block by block and, within a block, column by
    column.  The cell parsers and the checks are pure functions of the cell,
    so each runs once per distinct cell of a column (a timestamp column is
    read in bulk); the accepted rows of the block then extend the columns
    of the table."""
    parsers = _cell_parsers(config)
    bulk = config.timestamp_format == TIMESTAMP_FORMAT
    kinds = dict(dataset.columns)
    # (name, kind, header index or None, parser) per record field.
    columns = [(name, kind, index.get(name), parsers[kind]) for name, kind in dataset.columns]
    checks = [(name, _REJECTS[kinds[name]]) for name in dataset.checks]
    width = 1 + max(i for _, _, i, _ in columns if i is not None)
    unique = dataset.unique
    # A row rejected at or before the unique column's check never reaches it.
    after_unique = dataset.checks.index(unique) + 1 if unique is not None else 0
    seen: dict[object, int] = {}
    interned: dict[str, dict] = {name: {} for name, kind in dataset.columns}
    # The bytes of each column's array (and of each timestamp column's
    # missing mask) so far: one buffer per column, grown in place, so the
    # blocks leave no scattered small arrays behind.
    parts = {name: bytearray() for name, kind in dataset.columns}
    missing_parts = {name: bytearray() for name, kind in dataset.columns if kind == _TIMESTAMP}
    errors: list[RowError] = []
    n = 0
    while block := list(islice(rows, _BLOCK_ROWS)):
        # Only a row whose first cell is blank or opens with "#" can be a
        # comment or a blank row.
        firsts = {row[0] if row else "" for row in block}
        odd = any(not cell.strip() or cell.lstrip().startswith("#") for cell in firsts)
        if odd:
            block = [row for row in block if not _is_comment(row)]
        numbers = range(n + 1, n + 1 + len(block))
        n += len(block)
        if odd:
            # A blank row keeps its number but yields nothing.
            filled = [j for j, row in enumerate(block) if "".join(row).strip()]
            block = [block[j] for j in filled]
            numbers = [numbers[j] for j in filled]
        if not block:
            continue
        # A cell past the end of a short row reads as None, and so does
        # every cell of a column missing from the header.
        transposed = list(islice(zip_longest(*block), width))
        empty = (None,) * len(block)
        cells: dict[str, tuple] = {}
        # Per column, its parsed distinct cells, or for a timestamp column
        # its microseconds and missing mask.
        memos: dict[str, dict] = {}
        stamps: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, kind, i, parse in columns:
            column = transposed[i] if i is not None and i < len(transposed) else empty
            cells[name] = column
            if kind == _TIMESTAMP:
                stamps[name] = _timestamps(column, parse, bulk)
            else:
                # An id or text column is interned in row order, first-seen.
                distinct = dict.fromkeys(column) if kind in (_ID, _TEXT) else set(column)
                memos[name] = {cell: parse(cell) for cell in distinct}
        # The first failing check of each rejected row: (check, column, message).
        rejected: dict[int, tuple[int, str, str]] = {}
        for order, (name, reject) in enumerate(checks):
            if name in stamps:
                failing = [
                    (j, reject(None, cells[name][j]))
                    for j in np.flatnonzero(stamps[name][1]).tolist()
                ]
            else:
                bad = {
                    cell: message
                    for cell, value in memos[name].items()
                    if (message := reject(value, cell)) is not None
                }
                failing = (
                    [(j, bad[cell]) for j, cell in enumerate(cells[name]) if cell in bad]
                    if bad
                    else []
                )
            for j, message in failing:
                rejected.setdefault(j, (order, name, message))
        if unique is not None:
            memo = memos[unique]
            for j, cell in enumerate(cells[unique]):
                failed = rejected.get(j)
                if failed is not None and failed[0] < after_unique:
                    continue
                value = memo[cell]
                if value in seen:
                    _raise_after_framing(
                        rows,
                        f"{dataset.name}: duplicate {unique} {value!r} "
                        f"(rows {seen[value]} and {numbers[j]})",
                    )
                if failed is None:
                    seen[value] = numbers[j]
        errors.extend(
            RowError(numbers[j], name, message)
            for j, (_, name, message) in sorted(rejected.items())
        )
        accepted = [j not in rejected for j in range(len(block))] if rejected else None
        kept = len(block) - len(rejected)
        for name, kind, _, _ in columns:
            if name in stamps:
                for part, values in zip((parts, missing_parts), stamps[name]):
                    part[name] += memoryview(values[np.array(accepted)] if accepted else values).cast("B")
                continue
            codes = _codes(kind, memos[name], interned[name])
            column = compress(cells[name], accepted) if accepted else cells[name]
            values = np.fromiter(map(codes.__getitem__, column), _DTYPES[kind], kept)
            parts[name] += memoryview(values).cast("B")
    arrays = {name: np.frombuffer(parts[name], _DTYPES[kind]) for name, kind in dataset.columns}
    names = _names(dataset, interned)
    if errors:  # drop the names that only rejected rows had
        for name, values in names.items():
            distinct, arrays[name] = first_seen(arrays[name])
            names[name] = tuple(map(values.__getitem__, distinct.tolist()))
    missing = {name: np.frombuffer(part, bool) for name, part in missing_parts.items()}
    return ParseResult(Table(dataset, arrays, names, missing), errors)


# ---------------------------------------------------------------------------
# parsers


def parse_conversions(source, config: SchemaConfig | None = None) -> ParseResult:
    """Parse the conversion dataset.

    Mandatory columns: mfi_id, client_id, click_time, status, loan_type.
    Rows with a malformed click_time, an unmapped loan type or an empty
    id are dropped and reported in ``errors``; unparseable optional
    fields become None, and an unknown status reads as pending.
    """
    return _parse_rows(source, config, _CONVERSIONS)


def parse_products(source, config: SchemaConfig | None = None) -> ParseResult:
    """Parse the product dataset (one row per MFI card).

    Duplicate card ids are a hard error; an empty id, an unmapped loan
    type or a rating outside [1, 5] is a row-level error.  Boolean-like
    cells are True when they match a configured true string (Russian
    spellings by default) and False otherwise.
    """
    return _parse_rows(source, config, _PRODUCTS)


def parse_clicks(source, config: SchemaConfig | None = None) -> ParseResult:
    """Parse the click dataset (8 columns, superset of conversions)."""
    return _parse_rows(source, config, _CLICKS)


# ---------------------------------------------------------------------------
# serialization (canonical column spellings; used by the fixture generator,
# the CLI, and round-trip tests)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, datetime):
        return value.strftime(TIMESTAMP_FORMAT)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def _serialize(records: Iterable, dataset: _Dataset) -> str:
    columns = [name for name, _ in dataset.columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_cell(getattr(rec, col)) for col in columns])
    return buf.getvalue()


def serialize_conversions(records: Iterable[ConversionRecord]) -> str:
    return _serialize(records, _CONVERSIONS)


def serialize_products(records: Iterable[ProductRecord]) -> str:
    return _serialize(records, _PRODUCTS)


def serialize_clicks(records: Iterable[ClickRecord]) -> str:
    return _serialize(records, _CLICKS)


# ---------------------------------------------------------------------------
# derived quantities


def derive_timeline(record: ConversionRecord) -> Timeline:
    """Split an application's life span into its two durations.

    conversion_period = conversion_time - click_time (when submitted);
    processing_period = sale_time - conversion_time (sales only).  Any
    negative difference marks the record invalid with both periods
    absent, so downstream feature code can skip it wholesale.
    """
    conversion = None
    processing = None
    if record.conversion_time is not None:
        conversion = (record.conversion_time - record.click_time).total_seconds()
    if (
        record.status is Status.SALE
        and record.sale_time is not None
        and record.conversion_time is not None
    ):
        processing = (record.sale_time - record.conversion_time).total_seconds()
    if (conversion is not None and conversion < 0) or (processing is not None and processing < 0):
        return Timeline(None, None, invalid=True)
    return Timeline(conversion, processing)


def _seconds(micros: np.ndarray) -> np.ndarray:
    """``micros`` in seconds, as ``timedelta.total_seconds`` reads them: a
    correctly rounded quotient, so beyond 2**53 the integers divide exactly."""
    seconds = micros / 1e6
    big = np.flatnonzero(np.abs(micros) > 2**53)
    seconds[big] = [us / 10**6 for us in micros[big].tolist()]
    return seconds


def timeline_columns(conversions: Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`derive_timeline` of every row of a conversions table: its
    conversion and processing periods in seconds, NaN where absent, both
    absent where a negative difference marks the row invalid, and the mask
    of the invalid rows."""
    columns, missing = conversions.columns, conversions.missing
    submitted = ~missing["conversion_time"]
    paid = (
        submitted
        & ~missing["sale_time"]
        & (columns["status"] == STATUSES.index(Status.SALE))
    )
    conversion = np.where(submitted, columns["conversion_time"] - columns["click_time"], 0)
    processing = np.where(paid, columns["sale_time"] - columns["conversion_time"], 0)
    valid = (conversion >= 0) & (processing >= 0)
    return (
        np.where(submitted & valid, _seconds(conversion), np.nan),
        np.where(paid & valid, _seconds(processing), np.nan),
        ~valid,
    )


def filter_loan_type(rows: Table | Sequence, loan_type: LoanType | None) -> Table | list:
    """The rows of ``loan_type``, or all rows for None: a table selects
    them by a mask over its loan-type codes, a record list by each record."""
    if isinstance(rows, Table):
        if loan_type is None:
            return rows
        return rows.take(rows.columns["loan_type"] == LOAN_TYPES.index(loan_type))
    if loan_type is None:
        return list(rows)
    return [r for r in rows if r.loan_type is loan_type]


def _recoded(source: Table, target: Table, name: str) -> np.ndarray:
    """The ``name`` codes of ``source`` as ``target`` numbers the same
    values (each table interns its own), -1 for a value ``target`` lacks."""
    code = {value: n for n, value in enumerate(target.names[name])}
    recode = np.array([code.get(value, -1) for value in source.names[name]], np.int64)
    return recode[source.columns[name]]


def _has_click(conversions: Table, clicks: Table) -> np.ndarray:
    """Whether each conversion has a click of the same MFI, client and
    click time."""
    keys = np.concatenate([
        np.stack([
            _recoded(conversions, clicks, "mfi_id"),
            _recoded(conversions, clicks, "client_id"),
            conversions.columns["click_time"],
        ], axis=1),
        np.stack([clicks.columns[name] for name in ("mfi_id", "client_id", "click_time")], axis=1),
    ])
    _, key = np.unique(keys, axis=0, return_inverse=True)
    key = key.reshape(-1)
    return np.isin(key[: len(conversions)], key[len(conversions):])


def validate(
    conversions: Table | Iterable[ConversionRecord],
    products: Sequence[ProductRecord],
    clicks: Table | Iterable[ClickRecord],
) -> ValidationReport:
    """Report-only integrity check across the three datasets.  Conversion
    and click records are converted to tables once, here."""
    conversions, clicks = conversion_table(conversions), click_table(clicks)
    columns, missing = conversions.columns, conversions.missing
    n = len(conversions)
    sale_code = STATUSES.index(Status.SALE)
    statuses = np.bincount(columns["status"], minlength=len(STATUSES)).tolist()
    mfi_names = conversions.names["mfi_id"]
    mfis = [mfi_names[code] for code in np.unique(columns["mfi_id"]).tolist()]
    report = ValidationReport(
        n_mfis=len(mfis),
        n_clients=len(np.unique(columns["client_id"])),
        n_applications=n,
        n_sales=statuses[sale_code],
        status_shares={s.value: count / n for s, count in zip(STATUSES, statuses)} if n else {},
        n_products=len(products),
        n_product_mfis=len({p.mfi_id for p in products}),
        n_clicks=len(clicks),
        n_invalid_timelines=int(timeline_columns(conversions)[2].sum()),
    )
    if report.n_invalid_timelines:
        report.warnings.append(
            f"{report.n_invalid_timelines} applications have negative time differences"
        )

    if n and products:
        orphans = sorted(set(mfis) - {p.mfi_id for p in products})
        if orphans:
            report.warnings.append(
                f"{len(orphans)} conversion MFIs absent from products: {orphans[:10]}"
            )
    if n and clicks:
        unmatched = n - int(_has_click(conversions, clicks).sum())
        if unmatched:
            report.warnings.append(f"{unmatched} conversions have no matching click record")

    click, submitted_at, paid_at = (
        columns[name] for name in ("click_time", "conversion_time", "sale_time")
    )
    submitted, paid = ~missing["conversion_time"], ~missing["sale_time"]
    sale = columns["status"] == sale_code
    income = columns["income"]
    bad_records = Counter({
        "conversion_time before click_time": int((submitted & (submitted_at < click)).sum()),
        "sale_time before conversion_time": int(
            (paid & (paid_at < np.where(submitted, submitted_at, click))).sum()
        ),
        "sale without sale_time": int((sale & ~paid).sum()),
        "sale without income": int((sale & np.isnan(income)).sum()),
        "sale_time on non-sale status": int((~sale & paid).sum()),
        "negative income": int((income < 0).sum()),
    })
    bad_records.update(problem for prod in products for problem in prod.violations())
    for problem, count in sorted(bad_records.items()):
        if count:
            report.warnings.append(f"{count} records: {problem}")
    return report


def product_fields() -> frozenset[str]:
    """Names of ProductRecord fields (used to vet page constraints)."""
    return frozenset(f.name for f in fields(ProductRecord))
