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

Each input is read whole, once, as UTF-8 bytes past a leading byte-order
mark: a text stream's text is encoded once, a lone surrogate with it, and
the bytes of a path or a byte stream are checked once for a fault of
UTF-8, a ``DataError`` that names its line.  One of two splitters lays
the bytes out for one column reader: every cell in one byte buffer,
followed by one separator byte, and the separators' offsets, a row of
them per line, the header line first.  A plain input is its own buffer,
and one mask of its commas and line ends gives the offsets.  An input is
plain where it has no ``"``, no NUL and no CR outside a CRLF, and every
line has the header's number of cells, none over
``csv.field_size_limit()``, and is no comment and not blank.  The csv
module splits any other input into rows, written into the same layout a
block at a time, so that only a block's cells are alive as strings:
comment rows are dropped, blank rows keep their number, and a short row
is padded with absent cells, which read as None.
The column reader numbers each column's distinct cells by their bytes and
widths, or reads a timestamp column as ``datetime64[us]``: in the default
format those are read in bulk, as fixed-width digits, and only the cells
that do not fit that shape go through the cell parser.  Every cell
parser and check is a pure function of the cell text, so
:func:`_accept` parses and checks each distinct cell once; it rejects a
row by the first check it fails, finds repeats of a unique column in row
order, numbers the row errors and codes the accepted rows.

The accepted rows fill one columnar :class:`Table` per file, in an order
the order of the file's rows does not change (:func:`_canonical`): id and
text cells as dense first-seen integer codes into the names its rows
hold, as in every selection of its rows (:meth:`Table.take`),
timestamps as ``datetime64[us]`` with NaT for missing, numbers as floats
with NaN for missing, status and loan type as small integer codes.  The
records, row errors and DataError are those a row-by-row reading gives,
the records in that order.

Every stage reads the tables, :func:`validate` included: its counts,
key join and record checks are array reductions.  The frozen slotted
records are built from a table on demand, afresh at each read of
:attr:`ParseResult.records`, a field at a time through their slot
descriptors; only the product cards are used as records.

All timestamps are naive local times in a single zone; no zone
conversion is performed anywhere in the package.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import re
from array import array
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from datetime import datetime
from enum import Enum
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError

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
        return asdict(self)


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

_EPOCH_ORDINAL = datetime(1970, 1, 1).toordinal()

_DTYPES = {
    _ID: np.int32, _TEXT: np.int32, _LOAN_TYPE: np.int8, _STATUS: np.int8,
    _TIMESTAMP: "M8[us]", _FLOAT: np.float64, _RATING: np.float64, _RANK: np.float64,
    _COUNT: np.float64, _BOOL: np.bool_,
}
_MEMBERS = {_LOAN_TYPE: LOAN_TYPES, _STATUS: STATUSES}


def ordinal_days(stamps: np.ndarray) -> np.ndarray:
    """The proleptic ordinal (``date.toordinal``) of each timestamp's date."""
    return stamps.astype("M8[D]").view(np.int64) + _EPOCH_ORDINAL


def midnights(days: np.ndarray) -> np.ndarray:
    """The timestamp of 00:00 on each proleptic ordinal day, the inverse of
    :func:`ordinal_days` on midnights."""
    return (days - _EPOCH_ORDINAL).astype("M8[D]")


def first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``codes`` (none negative) in first-seen order, and each
    code renumbered as its place in that order."""
    first = np.full(int(codes.max(initial=-1)) + 1, len(codes), np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    distinct = codes[np.sort(first[first < len(codes)])]
    place = np.empty(len(first), np.int32)
    place[distinct] = np.arange(len(distinct), dtype=np.int32)
    return distinct, place[codes]


def _codes(kind: str, values: Sequence, names: dict) -> list:
    """The column entry of each parsed value: id and text values are
    interned into ``names``, new ones in order; an unmapped loan type (of a
    rejected row) reads as -1; a timestamp stays as it is (None reads as NaT
    in its column)."""
    if kind in (_ID, _TEXT):
        fresh = [value for value in dict.fromkeys(values) if value not in names]
        names.update(zip(fresh, range(len(names), len(names) + len(fresh))))
        return list(map(names.__getitem__, values))
    if kind in _MEMBERS:
        code = {None: -1, **{member: n for n, member in enumerate(_MEMBERS[kind])}}
        return list(map(code.__getitem__, values))
    if kind == _BOOL:
        return list(map(bool, values))
    if kind == _TIMESTAMP:
        return list(values)
    return [math.nan if value is None else value for value in values]


@dataclass(frozen=True, eq=False)
class Table:
    """The accepted rows of one dataset as columns, in the row order of
    :func:`_canonical`: by click time, then by every column.

    ``columns`` maps every record field to one array with an entry per
    row.  Id and text fields hold int32 codes into ``names[field]``, their
    distinct values in first-seen order.  The codes are dense: every name
    is held by a row, in a parsed table, a table of :meth:`from_records`
    and a :meth:`take` alike (:func:`_dense`).  Loan type and status hold
    int8 positions in ``LOAN_TYPES`` and ``STATUSES``.  Timestamps hold
    ``datetime64[us]``, NaT where empty.  Floats, ratings, ranks and review
    counts hold float64, NaN where empty; flags hold bools.
    """

    dataset: _Dataset
    columns: Mapping[str, np.ndarray]
    names: Mapping[str, tuple]

    def __len__(self) -> int:
        return len(self.columns[self.dataset.columns[0][0]])

    def expect(self, dataset: str) -> None:
        """Raise ValueError unless this is a table of ``dataset``."""
        if self.dataset.name != dataset:
            raise ValueError(f"expected a {dataset} table, not {self.dataset.name}")

    def take(self, rows: np.ndarray) -> Table:
        """The table of ``rows``, a mask or ascending positions: the order
        kept, codes renumbered first-seen (:func:`_dense`)."""
        return _dense(
            self.dataset, {name: column[rows] for name, column in self.columns.items()}, self.names
        )

    def records(self) -> list:
        """One record per row, assembled a field at a time through the slots."""
        record = self.dataset.record
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
            return column.astype(object).tolist()  # NaT reads as None
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
        columns, names = {}, {}
        for name, kind in dataset.columns:
            values = [getattr(r, name) for r in records]
            columns[name] = np.array(_codes(kind, values, names.setdefault(name, {})), _DTYPES[kind])
        return _canonical(dataset, columns, names)


def _sort_key(kind: str, values: np.ndarray, names: Sequence) -> np.ndarray:
    """Entries of a column as the row order sorts them: id and text codes by
    the rank of their ``names`` among them, None last; floats by their int64
    bits, so that -0.0, 0.0 and NaN are ordered; the rest (NaT last) as is."""
    if kind in (_ID, _TEXT):
        codes, inverse = np.unique(values, return_inverse=True)
        spelled = [names[code] for code in codes.tolist()]
        by_name = sorted(range(len(codes)), key=lambda i: (spelled[i] is None, spelled[i] or ""))
        return np.argsort(by_name)[inverse]  # each code's rank
    return values.view(np.int64) if values.dtype == np.float64 else values


def _canonical(dataset: _Dataset, columns: Mapping, interned: Mapping[str, dict]) -> Table:
    """The table of ``columns``, each id and text column's codes interned in
    ``interned``, in the one row order every stage relies on, whatever the
    order of the rows given: a stable sort by click time (a products table
    has none: all its rows tie), then of the tied rows by every column in
    dataset order (:func:`_sort_key`); codes renumbered first-seen in it."""
    names = {name: tuple(interned[name]) for name, kind in dataset.columns if kind in (_ID, _TEXT)}
    times = columns.get("click_time", np.zeros(len(columns["mfi_id"]), "M8[us]"))
    order = np.argsort(times, kind="stable")
    stamps = times[order].view(np.int64)
    run = np.cumsum(np.append(True, stamps[1:] != stamps[:-1])[: len(times)])
    tied = np.flatnonzero(np.bincount(run)[run] > 1)
    if len(tied):
        rows = order[tied]
        keys = [_sort_key(k, columns[name][rows], names.get(name)) for name, k in dataset.columns]
        order[tied] = rows[np.lexsort([*keys[::-1], run[tied]])]
    return _dense(dataset, {name: column[order] for name, column in columns.items()}, names)


def _dense(dataset: _Dataset, columns: dict, names: Mapping[str, Sequence]) -> Table:
    """The table of ``columns`` in their row order, each id and text column's
    codes into ``names`` renumbered first-seen in it, and its names cut to
    the values its rows hold."""
    names = dict(names)
    for name, spelled in names.items():
        kept, columns[name] = first_seen(columns[name])
        names[name] = tuple(map(spelled.__getitem__, kept.tolist()))
    return Table(dataset, columns, names)


def conversion_table(records: Iterable[ConversionRecord]) -> Table:
    """The conversions table of ``records``."""
    return Table.from_records(list(records), _CONVERSIONS)


def click_table(records: Iterable[ClickRecord]) -> Table:
    """The clicks table of ``records``."""
    return Table.from_records(list(records), _CLICKS)


# ---------------------------------------------------------------------------
# cell parsing


def _norm_header(name: str) -> str:
    return re.sub(r"[\s\-,]+", "_", name.strip().lower()).strip("_")


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


def _read_header(header: list[str], config: SchemaConfig, dataset: _Dataset) -> dict[str, int]:
    """The header's column index by canonical name."""
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
            raise DataError(f"{dataset.name}: missing mandatory column '{column}'")
    return index


def _parse_rows(source, config: SchemaConfig | None, dataset: _Dataset) -> ParseResult:
    """Read one dataset from a path or an open stream, whole and once, as
    UTF-8 bytes past a leading byte-order mark (which spreadsheet exports
    put before the header): every row becomes a table row or a RowError.
    A text stream's text is encoded, a lone surrogate with it; the bytes of
    a path or byte stream are checked for a fault of UTF-8, which names its
    line and wins over any other fault.  A plain input is split column-wise
    (:func:`_parse_columns`), any other by the csv module
    (:func:`_parse_whole`)."""
    config = config or DEFAULT_SCHEMA
    if hasattr(source, "read"):
        raw = source.read()
    elif isinstance(source, str) and "\n" in source:
        raise DataError("a CSV source must be a path or an open text stream, not CSV text")
    else:
        try:
            with open(source, "rb") as stream:
                raw = stream.read()
        except OSError as exc:
            raise DataError(f"cannot read {source}: {exc}") from None
    text = isinstance(raw, str)
    if text:  # a lone surrogate reads back as itself
        raw = raw.encode("utf-8", "surrogatepass")
    raw = raw.removeprefix(codecs.BOM_UTF8)
    if not text and not raw.isascii():
        try:
            raw.decode("utf-8")  # only to find a fault
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise DataError(f"{dataset.name}: not UTF-8 text: {exc} (line {line})") from None
    if raw and _plain(raw):
        buf = _plain_bytes(raw)
        del raw  # not alive while the columns are read
        parsed = _parse_columns(buf, config, dataset)
        if parsed is not None:
            return parsed
        raw = buf[: len(buf) - 8].tobytes()
        del buf
    # newline="" leaves line breaks to the csv module, as its docs ask: a
    # bare CR ends a row instead of failing the whole file.
    rows = io.TextIOWrapper(io.BytesIO(raw), "utf-8", "surrogatepass", newline="")
    return _parse_whole(csv.reader(rows), config, dataset)


# ---------------------------------------------------------------------------
# the column reader

# Byte positions of the digits and the separators in a cell of the default
# timestamp format, ``NNNN-NN-NN NN:NN:NN``.
_STAMP_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_STAMP_SEPARATORS = np.array([4, 7, 10, 13, 16])
_STAMP_SEPARATOR_BYTES = np.frombuffer(b"-- ::", np.uint8)
_STAMP_WIDTH = 19
# The low ``r`` bytes of a little-endian word, by ``r``.
_WORD_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], np.uint64)


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word at each offset of ``buf``, unaligned."""
    return np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))


def _texts(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str | None]:
    """The text of each cell ``buf[start:end]``, None for an absent cell
    (one that ends before it starts): one gather puts a NUL (the last byte
    of ``buf``) after each cell, one decode reads them all, and where a
    cell holds a NUL itself, each cell is decoded on its own."""
    lengths = np.maximum(ends - starts, 0)
    stops = np.cumsum(lengths + 1, dtype=np.int64)  # past each cell's NUL
    at = np.arange(len(lengths) + int(lengths.sum()))
    at -= np.repeat(stops - lengths - 1 - starts, lengths + 1)
    at[stops - 1] = len(buf) - 1
    texts = buf[at].tobytes().decode("utf-8", "surrogatepass").split("\0")[:-1]
    if len(texts) != len(lengths):
        texts = [
            buf[s:e].tobytes().decode("utf-8", "surrogatepass")
            for s, e in zip(starts.tolist(), (starts + lengths).tolist())
        ]
    for j in np.flatnonzero(ends < starts).tolist():
        texts[j] = None
    return texts


def _boundaries(keys: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """Where, in ``order``, a key of ``keys`` differs from the one before."""
    new = np.zeros(len(order), bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    return new


def _distinct(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """The first row of each distinct cell ``buf[start:end]``, in the order of
    their keys, and each row's place in that order.  A cell's key is its
    bytes as 8-byte words, the bytes past it masked off, and its width, so
    that a trailing NUL and an absent cell (-1 wide) count; one sort of the
    first words, or of all keys where one first word opens two cells, puts
    equal cells side by side."""
    windows = _words(buf)
    widths = ends - starts
    keys = [
        windows[np.minimum(starts + k, ends)] & _WORD_MASKS[np.clip(widths - k, 0, 8)]
        for k in range(0, max(int(widths.max(initial=0)), 1), 8)
    ] + [widths]
    order = np.argsort(keys[0])
    new = _boundaries(keys[:1], order)
    if (_boundaries(keys[1:], order) > new).any():
        order = np.lexsort(keys[::-1])
        new = _boundaries(keys, order)
    codes = np.empty(len(order), np.int64)
    codes[order] = np.cumsum(new) - 1
    return np.minimum.reduceat(order, np.flatnonzero(new)), codes


def _bulk_stamps(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of ``raw`` (bytes, ``_STAMP_WIDTH`` or more to a row) open
    with digits and separators of the default format naming a real moment,
    year 1 or later, and the microseconds since 1970 of each that does."""
    digits = raw[:, _STAMP_DIGITS].astype(np.int32) - ord("0")
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


def _stamps(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, parse: Callable, bulk: bool
) -> np.ndarray:
    """Each timestamp cell ``buf[start:end]`` as ``datetime64[us]``, NaT
    where it reads as no timestamp, as the cell parser ``parse`` reads it.

    With ``bulk`` (the default format), a cell of the shape
    ``NNNN-NN-NN NN:NN:NN`` that names a real moment is read arithmetically
    from its digits, as ``parse`` (``strptime`` with that format) reads it.
    Every other non-empty cell goes to ``parse``, once per distinct cell.
    """
    widths = ends - starts
    stamps = np.full(len(widths), np.datetime64("NaT"), "M8[us]")
    rest = widths > 0
    if bulk:
        rows = np.flatnonzero(widths == _STAMP_WIDTH)
        # Three words hold a cell of the default shape, and 5 bytes past it.
        windows = _words(buf)
        shaped = np.stack([windows[starts[rows] + k] for k in (0, 8, 16)], 1).view(np.uint8)
        ok, read = _bulk_stamps(shaped)
        stamps[rows[ok]] = read[ok].view("M8[us]")
        rest[rows[ok]] = False
    rows = np.flatnonzero(rest)
    cells = _texts(buf, starts[rows], ends[rows])
    parsed = {cell: parse(cell) for cell in dict.fromkeys(cells)}
    stamps[rows] = np.array(list(map(parsed.__getitem__, cells)), "M8[us]")
    return stamps


def _column(ends: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the data cells of column ``i`` start (past the separator before
    each) and end, from ``ends``, the separators' offsets a line to a row."""
    return (ends[1:, i - 1] if i else ends[:-1, -1]) + 1, ends[1:, i]


def _read_columns(
    buf: np.ndarray, ends: np.ndarray, numbers: Sequence[int], counts: np.ndarray | None,
    config: SchemaConfig, dataset: _Dataset,
) -> ParseResult:
    """Read one dataset from ``buf``, where each cell is followed by one
    separator byte, and ``ends``, the separators' offsets a line to a row,
    the header line first.  ``numbers`` are the data lines' row numbers and
    ``counts`` their counts of cells (None where each line has the
    header's): a cell past the end of its row is absent.  A column is
    numbered first-seen by the bytes of its cells, a timestamp column read
    in bulk, and all of them go to :func:`_accept` at once."""
    header = _texts(buf, np.insert(ends[0, :-1] + 1, 0, 0), ends[0])
    index = _read_header(header, config, dataset)
    parsers = _cell_parsers(config)
    n = len(ends) - 1

    def cells(name: str) -> tuple[np.ndarray, np.ndarray]:
        """Where the column's cells start and end; absent ones end before
        they start, and so does every cell of a column missing from the
        header."""
        i = index.get(name)
        if i is None:
            return np.zeros(n, ends.dtype), np.full(n, -1, ends.dtype)
        starts, stops = _column(ends, i)
        return starts, stops if counts is None else np.where(counts > i, stops, starts - 1)

    distinct: dict[str, tuple[list, np.ndarray]] = {}
    stamps: dict[str, np.ndarray] = {}
    for name, kind in dataset.columns:
        s, e = cells(name)
        if kind == _TIMESTAMP:
            stamps[name] = _stamps(
                buf, s, e, parsers[kind], config.timestamp_format == TIMESTAMP_FORMAT
            )
            continue
        first, place = _distinct(buf, s, e)
        distinct[name] = _texts(buf, s[first], e[first]), place

    def texts(name: str, rows: np.ndarray) -> list:
        s, e = cells(name)
        return _texts(buf, s[rows], e[rows])

    return _accept(dataset, parsers, distinct, stamps, texts, numbers)


def _accept(
    dataset: _Dataset, parsers: Mapping[str, Callable], distinct: Mapping, stamps: Mapping,
    texts: Callable[[str, np.ndarray], list], numbers: Sequence[int],
) -> ParseResult:
    """The table of the accepted rows of ``numbers`` and the row errors of
    the others.  Each column comes as its distinct cells and each row's
    place among them (``distinct``), or a timestamp column as its
    ``datetime64[us]`` values (``stamps``), ``texts(name, rows)`` giving
    those rows' cells.  A row is rejected by the first of ``dataset.checks``
    it fails; a value of the unique column repeated by a row not rejected up
    to its check is a DataError naming both rows.  The accepted rows are put
    in the order of :func:`_canonical`."""
    kinds = dict(dataset.columns)
    values = {name: list(map(parsers[kinds[name]], cells)) for name, (cells, _) in distinct.items()}
    # The first failing check of each rejected row: (check, column, message).
    rejected: dict[int, tuple[int, str, str]] = {}
    for order, name in enumerate(dataset.checks):
        reject = _REJECTS[kinds[name]]
        if name in stamps:
            rows = np.flatnonzero(np.isnat(stamps[name]))
            failing = zip(rows.tolist(), [reject(None, cell) for cell in texts(name, rows)])
        else:
            cells, place = distinct[name]
            bad = [reject(value, cell) for value, cell in zip(values[name], cells)]
            rows = np.flatnonzero(np.array([m is not None for m in bad], bool)[place])
            failing = zip(rows.tolist(), map(bad.__getitem__, place[rows].tolist()))
        for j, message in failing:
            rejected.setdefault(j, (order, name, message))
    unique = dataset.unique
    if unique is not None:
        # A row rejected at or before the unique column's check never reaches it.
        after = dataset.checks.index(unique) + 1
        seen: dict[object, int] = {}  # each accepted value's row
        for j, k in enumerate(distinct[unique][1].tolist()):
            failed = rejected.get(j)
            if failed is not None and failed[0] < after:
                continue
            value = values[unique][k]
            if value in seen:
                raise DataError(
                    f"{dataset.name}: duplicate {unique} {value!r} "
                    f"(rows {seen[value]} and {numbers[j]})"
                )
            if failed is None:
                seen[value] = numbers[j]
    errors = [RowError(numbers[j], column, why) for j, (_, column, why) in sorted(rejected.items())]
    accepted = np.isin(np.arange(len(numbers)), list(rejected), invert=True)
    columns, interned = {}, {}
    for name, kind in dataset.columns:
        if name in stamps:
            columns[name] = stamps[name][accepted]
            continue
        codes = np.array(_codes(kind, values.pop(name), interned.setdefault(name, {})), _DTYPES[kind])
        columns[name] = codes[distinct[name][1][accepted]]
    return ParseResult(_canonical(dataset, columns, interned), errors)


# ---------------------------------------------------------------------------
# splitting a plain input column-wise

_NEWLINE, _COMMA = ord("\n"), ord(",")
_MASK_BYTES = 1 << 20
# The first bytes of a line that may open a comment or a blank row: "#", a
# separator, whitespace, and any non-ASCII byte (Unicode whitespace).
_ODD_FIRST = np.array([b >= 128 or chr(b) in "#,\n" or chr(b).isspace() for b in range(256)])


def _plain(raw: bytes) -> bool:
    """Whether the input ``raw`` has no ``"``, no NUL and no CR outside a
    CRLF."""
    return (
        b'"' not in raw
        and b"\0" not in raw
        and (b"\r" not in raw or raw.count(b"\r") == raw.count(b"\r\n"))
    )


def _plain_bytes(raw: bytes) -> np.ndarray:
    """The plain input ``raw`` with LF line ends and a last LF, then eight
    NULs."""
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    end = len(raw) + (not raw.endswith(b"\n"))
    buf = np.zeros(end + 8, np.uint8)
    buf[: len(raw)] = np.frombuffer(raw, np.uint8)
    buf[end - 1] = _NEWLINE
    return buf


def _separators(text: np.ndarray) -> np.ndarray:
    """The offset of every comma and line end of ``text``, found a block of
    ``_MASK_BYTES`` at a time, so that no mask of the whole text is held."""
    dtype = np.int32 if len(text) < 2**31 else np.int64
    found = []
    for at in range(0, len(text), _MASK_BYTES):
        block = text[at : at + _MASK_BYTES]
        found.append(np.flatnonzero((block == _NEWLINE) | (block == _COMMA)).astype(dtype) + at)
    return np.concatenate(found)


def _parse_columns(buf: np.ndarray, config: SchemaConfig, dataset: _Dataset) -> ParseResult | None:
    """Read ``buf``, the whole input from :func:`_plain_bytes`, with the
    column reader, or None where it is not plain after all (see the module
    docstring).  One mask of the commas and line ends gives the offsets of
    every separator, a row of them per line."""
    ends = _separators(buf[: len(buf) - 8])
    newline = buf[ends] == _NEWLINE
    lines = int(np.count_nonzero(newline))
    width = int(np.argmax(newline)) + 1
    if lines < 2 or len(ends) != lines * width or not newline[width - 1 :: width].all():
        return None
    del newline  # not alive while the columns are read
    if int(np.diff(ends).max(initial=ends[0] + 1)) - 1 > csv.field_size_limit():
        return None
    # Column-major, so that each column's offsets are contiguous.
    ends = np.asfortranarray(ends.reshape(lines, width))
    line_starts = np.insert(ends[:-1, -1] + 1, 0, 0)
    for r in np.flatnonzero(_ODD_FIRST[buf[line_starts]]).tolist():
        row = _texts(buf, np.insert(ends[r, :-1] + 1, 0, line_starts[r]), ends[r])
        if _is_comment(row) or not "".join(row).strip():
            return None
    return _read_columns(buf, ends, range(1, lines), None, config, dataset)


# ---------------------------------------------------------------------------
# splitting any other input with the csv module

# Data rows laid out at a time: a block bounds the cells alive as strings.
_BLOCK_ROWS = 1024


def _parse_whole(rows: Iterator[list[str]], config: SchemaConfig, dataset: _Dataset) -> ParseResult:
    """Read one dataset from its rows, as the csv module splits them, with
    the column reader."""
    try:
        laid_out = _lay_out(rows, dataset)
    except csv.Error as exc:
        raise DataError(f"{dataset.name}: malformed CSV: {exc}") from None
    return _read_columns(*laid_out, config, dataset)


def _lay_out(
    rows: Iterator[list[str]], dataset: _Dataset
) -> tuple[np.ndarray, np.ndarray, Sequence[int], np.ndarray]:
    """The rows in the layout of a plain input: every cell, cut or padded
    to the header's width, in one buffer with a NUL after it as its
    separator; the separators' offsets, a line to a row, the header line
    first; and each data line's row number and count of cells.  A comment
    row takes no number and a blank row gives no line.  Every row is read
    before any check of its cells, so a framing fault anywhere in the file
    wins."""
    header = next((row for row in rows if not _is_comment(row)), None)
    if header is None:
        raise DataError(f"{dataset.name}: file is empty (no header row)")
    width = max(len(header), 1)
    data = bytearray()
    parts = []  # each block's offset and its separators' offsets within it
    numbers, counts = array("q"), array("q")

    def append(block: list[list[str]]) -> None:
        if any(len(row) != width for row in block):
            pad = [""] * width
            block = [row[:width] + pad[len(row) :] for row in block]
        text = "\0".join(chain.from_iterable(block)) + "\0"
        raw = text.encode("utf-8", "surrogatepass")
        dtype = np.int32 if len(raw) < 2**31 else np.int64
        if text.count("\0") == len(block) * width:
            stops = np.flatnonzero(np.frombuffer(raw, np.uint8) == 0).astype(dtype)
        else:  # a cell holds a NUL: the separators are found from the cells' sizes
            cells = chain.from_iterable(block)
            sizes = (len(cell.encode("utf-8", "surrogatepass")) for cell in cells)
            stops = np.cumsum(np.fromiter(sizes, dtype, len(block) * width) + 1, dtype=dtype) - 1
        parts.append((len(data), stops.reshape(-1, width)))
        data.extend(raw)

    append([header])
    n = 0
    while block := list(islice(rows, _BLOCK_ROWS)):
        # Only a row whose first cell is blank or opens with "#" can be a
        # comment or a blank row.
        firsts = {row[0] if row else "" for row in block}
        odd = any(not cell.strip() or cell.lstrip().startswith("#") for cell in firsts)
        if odd:
            block = [row for row in block if not _is_comment(row)]
        lines = range(n + 1, n + 1 + len(block))
        n += len(block)
        if odd:
            # A blank row keeps its number but gives no line.
            filled = [j for j, row in enumerate(block) if "".join(row).strip()]
            block = [block[j] for j in filled]
            lines = [lines[j] for j in filled]
        if block:
            numbers.extend(lines)
            counts.extend(map(len, block))
            append(block)
    data += bytes(8)
    dtype = np.int32 if len(data) < 2**31 else np.int64
    ends = np.concatenate([stops.astype(dtype) + at for at, stops in parts])
    return np.frombuffer(data, np.uint8), ends, numbers, np.frombuffer(counts, np.int64)


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
        return value.isoformat(" ", "seconds")
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


def _seconds(delta: np.ndarray) -> np.ndarray:
    """The ``timedelta64[us]`` values ``delta`` in seconds, NaN for NaT, as
    ``timedelta.total_seconds`` reads them: a correctly rounded quotient, so
    beyond 2**53 microseconds the integers divide exactly."""
    seconds = delta / np.timedelta64(1, "s")
    big = np.flatnonzero(abs(delta) > np.timedelta64(2**53, "us"))
    seconds[big] = [moment.total_seconds() for moment in delta[big].tolist()]
    return seconds


def timeline_columns(conversions: Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`derive_timeline` of every row of a conversions table: its
    conversion and processing periods in seconds, NaN where absent, both
    absent where a negative difference marks the row invalid, and the mask
    of the invalid rows."""
    columns = conversions.columns
    submitted_at = columns["conversion_time"]
    conversion = submitted_at - columns["click_time"]  # NaT where not submitted
    sale = columns["status"] == STATUSES.index(Status.SALE)
    processing = np.where(sale, columns["sale_time"] - submitted_at, np.timedelta64("NaT"))
    invalid = (conversion < np.timedelta64(0)) | (processing < np.timedelta64(0))
    return (
        np.where(invalid, np.nan, _seconds(conversion)),
        np.where(invalid, np.nan, _seconds(processing)),
        invalid,
    )


def realized(conversions: Table) -> tuple[np.ndarray, np.ndarray]:
    """What each row of a conversions table realized, and whether it was
    paid: a sale's income, 0.0 if it has none (NaN) or did not sell; paid
    marks a sale with an income."""
    income = conversions.columns["income"]
    paid = (conversions.columns["status"] == STATUSES.index(Status.SALE)) & ~np.isnan(income)
    return np.where(paid, income, 0.0), paid


def filter_loan_type(rows: Table, loan_type: LoanType | None) -> Table:
    """The rows of ``loan_type``, selected by a mask over the loan-type
    codes, or all rows for None."""
    if loan_type is None:
        return rows
    return rows.take(rows.columns["loan_type"] == LOAN_TYPES.index(loan_type))


def recoded(source: Table, target: Table, name: str) -> np.ndarray:
    """The ``name`` codes of ``source`` as ``target`` numbers the same
    values (each table interns its own), -1 for a value ``target`` lacks."""
    code = {value: n for n, value in enumerate(target.names[name])}
    recode = np.array([code.get(value, -1) for value in source.names[name]], np.int64)
    return recode[source.columns[name]]


def _has_click(conversions: Table, clicks: Table) -> np.ndarray:
    """Whether each conversion has a click of the same MFI, client and
    click time.

    The (MFI, client) pair is one integer in the clicks' codes,
    ``mfi * (n_clients + 1) + client``: the ``+ 1`` keeps a value the clicks
    lack (-1) from reading as another pair.  One sort by pair and click time
    puts every key in a group of equal keys."""
    span = len(clicks.names["client_id"]) + 1
    pair = np.concatenate([
        recoded(conversions, clicks, "mfi_id") * span + recoded(conversions, clicks, "client_id"),
        clicks.columns["mfi_id"].astype(np.int64) * span + clicks.columns["client_id"],
    ])
    time = np.concatenate([conversions.columns["click_time"], clicks.columns["click_time"]])
    order = np.lexsort((time, pair))
    pair, time = pair[order], time[order]
    starts = np.ones(len(order), bool)
    starts[1:] = (pair[1:] != pair[:-1]) | (time[1:] != time[:-1])
    group = np.empty(len(order), np.int64)
    group[order] = np.cumsum(starts)
    return np.isin(group[: len(conversions)], group[len(conversions):])


def validate(
    conversions: Table, products: Sequence[ProductRecord], clicks: Table
) -> ValidationReport:
    """Report-only integrity check across the three datasets."""
    clicks.expect("clicks")
    columns = conversions.columns
    n = len(conversions)
    sale_code = STATUSES.index(Status.SALE)
    statuses = np.bincount(columns["status"], minlength=len(STATUSES)).tolist()
    mfis = conversions.names["mfi_id"]
    report = ValidationReport(
        n_mfis=len(mfis),
        n_clients=len(conversions.names["client_id"]),
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
    paid = ~np.isnat(paid_at)
    sale = columns["status"] == sale_code
    income = columns["income"]
    # NaT compares False: an empty timestamp is before or after nothing.
    bad_records = Counter({
        "conversion_time before click_time": int((submitted_at < click).sum()),
        "sale_time before conversion_time": int(
            (paid_at < np.where(np.isnat(submitted_at), click, submitted_at)).sum()
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


def product_fields() -> dict[str, bool]:
    """Each ProductRecord field, and whether its cells are numbers a range
    can bound (used to vet page constraints)."""
    return {name: kind in (_FLOAT, _RATING, _COUNT, _BOOL) for name, kind in _PRODUCTS.columns}
