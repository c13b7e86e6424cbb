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
block.  The records are frozen slotted dataclasses, assembled a field at
a time through their slot descriptors rather than one ``__init__`` per
row.  The result is the one a row-by-row reading gives: records and row
errors in row order, and the same ``DataError`` where the file has one.

All timestamps are naive local times in a single zone; no zone
conversion is performed anywhere in the package.
"""

from __future__ import annotations

import csv
import gc
import io
import logging
import math
import os
import re
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from datetime import datetime
from enum import Enum
from itertools import compress, islice, repeat, zip_longest
from typing import IO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

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

    def violations(self) -> list[str]:
        """Consistency problems of this record (empty list when clean)."""
        out = []
        if self.conversion_time is not None and self.conversion_time < self.click_time:
            out.append("conversion_time before click_time")
        if self.sale_time is not None:
            anchor = self.conversion_time or self.click_time
            if self.sale_time < anchor:
                out.append("sale_time before conversion_time")
        if self.status is Status.SALE:
            if self.sale_time is None:
                out.append("sale without sale_time")
            if self.income is None:
                out.append("sale without income")
        elif self.sale_time is not None:
            out.append("sale_time on non-sale status")
        if self.income is not None and self.income < 0:
            out.append("negative income")
        return out


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


@dataclass
class ParseResult:
    records: list
    errors: list[RowError]

    def __len__(self) -> int:
        return len(self.records)


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
    # A cell is read as ``strptime(cell, fmt)`` reads it.  With the default
    # format, ``fromisoformat`` (about fifty times faster) is tried first,
    # on cells whose separators sit where ``NNNN-NN-NN NN:NN:NN`` has them
    # (positions 4, 7, 10, 13 and 16, nothing from 19 on): it agrees with
    # ``strptime`` there and leaves no room for a zone, but elsewhere it
    # also accepts forms the format rejects, such as ``2021-03-01`` or
    # ``20210301T100000``.  A shaped cell that it rejects may still be one
    # ``strptime`` reads, ``2021-03- 1 10:00:00`` say, so that cell goes on
    # to ``strptime``.
    iso_shape = "-- ::" if fmt == TIMESTAMP_FORMAT else None
    fromisoformat = datetime.fromisoformat
    strptime = datetime.strptime

    def timestamp(cell: str | None) -> datetime | None:
        cell = _clean(cell)
        if cell is None:
            return None
        if cell[4::3] == iso_shape:
            try:
                return fromisoformat(cell)
            except ValueError:
                pass
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
    """Read one dataset: every row becomes a record or a RowError.

    The cycle collector is paused meanwhile: the parse makes only acyclic
    objects, and a collection over the growing heap would find nothing.
    """
    config = config or DEFAULT_SCHEMA
    rows = _open_rows(source)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _parse_blocks(rows, _read_header(rows, config, dataset), config, dataset)
    except csv.Error as exc:
        raise DataError(f"{dataset.name}: malformed CSV: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{dataset.name}: not UTF-8 text: {exc}") from None
    finally:
        if collecting:
            gc.enable()


def _parse_blocks(
    rows: Iterator[list[str]], index: Mapping[str, int], config: SchemaConfig, dataset: _Dataset
) -> ParseResult:
    """Parse the data rows block by block and, within a block, column by
    column.  The cell parsers and the checks are pure functions of the cell,
    so each runs once per distinct cell of a column; the records are then
    assembled field by field through their slots."""
    parsers = _cell_parsers(config)
    kinds = dict(dataset.columns)
    # (name, header index or None, parser, slot setter) per record field.
    columns = [
        (name, index.get(name), parsers[kind], getattr(dataset.record, name).__set__)
        for name, kind in dataset.columns
    ]
    checks = [(name, _REJECTS[kinds[name]]) for name in dataset.checks]
    width = 1 + max(i for _, i, _, _ in columns if i is not None)
    unique = dataset.unique
    # A row rejected at or before the unique column's check never reaches it.
    after_unique = dataset.checks.index(unique) + 1 if unique is not None else 0
    seen: dict[object, int] = {}
    records = []
    errors: list[RowError] = []
    n = 0
    while block := list(islice(rows, _BLOCK_ROWS)):
        block = [row for row in block if not _is_comment(row)]
        numbers = range(n + 1, n + 1 + len(block))
        n += len(block)
        # A blank row keeps its number but yields nothing.
        filled = [j for j, row in enumerate(block) if "".join(row).strip()]
        if len(filled) < len(block):
            block = [block[j] for j in filled]
            numbers = [numbers[j] for j in filled]
        if not block:
            continue
        # A cell past the end of a short row reads as None, and so does
        # every cell of a column missing from the header.
        transposed = list(islice(zip_longest(*block), width))
        empty = (None,) * len(block)
        cells: dict[str, tuple] = {}
        memos: dict[str, dict] = {}
        for name, i, parse, _ in columns:
            column = transposed[i] if i is not None and i < len(transposed) else empty
            cells[name] = column
            memos[name] = {cell: parse(cell) for cell in set(column)}
        # The first failing check of each rejected row: (check, column, message).
        rejected: dict[int, tuple[int, str, str]] = {}
        for order, (name, reject) in enumerate(checks):
            bad = {
                cell: message
                for cell, value in memos[name].items()
                if (message := reject(value, cell)) is not None
            }
            if bad:
                for j, cell in enumerate(cells[name]):
                    if cell in bad and j not in rejected:
                        rejected[j] = (order, name, bad[cell])
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
        new = list(map(object.__new__, repeat(dataset.record, len(block) - len(rejected))))
        for name, _, _, set_slot in columns:
            values = map(memos[name].__getitem__, cells[name])
            if accepted:
                values = compress(values, accepted)
            deque(map(set_slot, new, values), maxlen=0)
        records.extend(new)
    return ParseResult(records, errors)


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


def filter_loan_type(records: Sequence, loan_type: LoanType | None) -> list:
    if loan_type is None:
        return list(records)
    return [r for r in records if r.loan_type is loan_type]


def validate(
    conversions: Sequence[ConversionRecord],
    products: Sequence[ProductRecord],
    clicks: Sequence[ClickRecord],
) -> ValidationReport:
    """Report-only integrity check across the three datasets."""
    report = ValidationReport()
    report.n_applications = len(conversions)
    report.n_mfis = len({r.mfi_id for r in conversions})
    report.n_clients = len({r.client_id for r in conversions})
    status_counts = Counter(r.status for r in conversions)
    report.n_sales = status_counts.get(Status.SALE, 0)
    if conversions:
        report.status_shares = {
            s.value: status_counts.get(s, 0) / len(conversions) for s in Status
        }
    report.n_products = len(products)
    report.n_product_mfis = len({p.mfi_id for p in products})
    report.n_clicks = len(clicks)

    report.n_invalid_timelines = sum(1 for r in conversions if derive_timeline(r).invalid)
    if report.n_invalid_timelines:
        report.warnings.append(
            f"{report.n_invalid_timelines} applications have negative time differences"
        )

    product_mfis = {p.mfi_id for p in products}
    if conversions and products:
        orphans = sorted({r.mfi_id for r in conversions} - product_mfis)
        if orphans:
            report.warnings.append(
                f"{len(orphans)} conversion MFIs absent from products: {orphans[:10]}"
            )
    if conversions and clicks:
        click_keys = {(c.mfi_id, c.client_id, c.click_time) for c in clicks}
        missing = sum(
            1 for r in conversions if (r.mfi_id, r.client_id, r.click_time) not in click_keys
        )
        if missing:
            report.warnings.append(
                f"{missing} conversions have no matching click record"
            )

    bad_records = Counter()
    for rec in conversions:
        for problem in rec.violations():
            bad_records[problem] += 1
    for prod in products:
        for problem in prod.violations():
            bad_records[problem] += 1
    for problem, count in sorted(bad_records.items()):
        report.warnings.append(f"{count} records: {problem}")
    return report


def product_fields() -> frozenset[str]:
    """Names of ProductRecord fields (used to vet page constraints)."""
    return frozenset(f.name for f in fields(ProductRecord))
