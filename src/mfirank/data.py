"""Parsing, validation, and enrichment of microloan aggregator logs.

Three CSV datasets drive the pipeline: conversions (completed loan
applications), products (one row per MFI card, i.e. per MFI/loan-type
pair), and clicks (a superset of conversions that also contains
click-outs which never converted).  Parsers are lenient about optional
fields, strict about mandatory ones, and collect row-level problems
into the parse result instead of failing wholesale.

All timestamps are naive local times in a single zone; no zone
conversion is performed anywhere in the package.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import datetime
from enum import Enum
from typing import IO, Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
# low-level cell parsing


def _norm_header(name: str) -> str:
    return re.sub(r"[\s\-,]+", "_", name.strip().lower()).strip("_")


def _open_rows(source: str | bytes | os.PathLike | IO) -> Iterable[list[str]]:
    if hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    elif isinstance(source, bytes):
        text = source.decode("utf-8")
    else:
        try:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read {source}: {exc}") from None
    return csv.reader(io.StringIO(text))


def _clean(cell: str | None) -> str | None:
    if cell is None:
        return None
    cell = cell.strip()
    return cell or None


def _parse_timestamp(cell: str | None, fmt: str) -> datetime | None:
    cell = _clean(cell)
    if cell is None:
        return None
    if fmt == TIMESTAMP_FORMAT:
        try:
            return datetime.fromisoformat(cell)  # fast path for the default format
        except ValueError:
            return None
    try:
        return datetime.strptime(cell, fmt)
    except ValueError:
        return None


def _parse_float(cell: str | None) -> float | None:
    cell = _clean(cell)
    if cell is None:
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
    value = _parse_finite(cell)
    if value is None or value <= 0:
        return None
    return int(value)


def _parse_bool(cell: str | None, config: SchemaConfig) -> bool | None:
    cell = (cell or "").strip().lower()
    if cell in config.true_strings:
        return True
    if cell in config.false_strings:
        return False
    return None


def _parse_status(cell: str | None, config: SchemaConfig) -> Status:
    cell = (cell or "").strip().lower()
    return config.status_map.get(cell, Status.PENDING)


def _parse_loan_type(cell: str | None, config: SchemaConfig) -> LoanType | None:
    cell = (cell or "").strip().lower()
    return config.loan_type_map.get(cell)


class _Row:
    """One CSV row addressed by canonical column names."""

    def __init__(self, header_index: Mapping[str, int], cells: list[str]):
        self._index = header_index
        self._cells = cells

    def get(self, column: str) -> str | None:
        i = self._index.get(column)
        if i is None or i >= len(self._cells):
            return None
        return self._cells[i]


def _is_comment(row: list[str]) -> bool:
    return bool(row) and row[0].lstrip().startswith("#")


def _read_table(
    source,
    config: SchemaConfig,
    mandatory: Sequence[str],
    dataset: str,
) -> tuple[Mapping[str, int], list[list[str]]]:
    rows = (row for row in _open_rows(source) if not _is_comment(row))
    try:
        header = next(rows)
    except StopIteration:
        raise DataError(f"{dataset}: file is empty (no header row)")
    index: dict[str, int] = {}
    for i, name in enumerate(header):
        canon = _norm_header(name)
        canon = config.column_aliases.get(canon, canon)
        index.setdefault(canon, i)
    for column in mandatory:
        if column not in index:
            raise DataError(f"{dataset}: missing mandatory column '{column}'")
    return index, list(rows)


# ---------------------------------------------------------------------------
# parsers


def parse_conversions(source, config: SchemaConfig | None = None) -> ParseResult:
    """Parse the conversion dataset.

    Mandatory columns: mfi_id, client_id, click_time, status, loan_type.
    Rows with a malformed click_time or an unmapped loan type are dropped
    and reported in ``errors``; unparseable optional fields become None.
    """
    config = config or DEFAULT_SCHEMA
    index, rows = _read_table(
        source, config, ("mfi_id", "client_id", "click_time", "status", "loan_type"), "conversions"
    )
    records: list[ConversionRecord] = []
    errors: list[RowError] = []
    for n, cells in enumerate(rows, start=1):
        if not any(cell.strip() for cell in cells):
            continue
        row = _Row(index, cells)
        click_time = _parse_timestamp(row.get("click_time"), config.timestamp_format)
        if click_time is None:
            errors.append(RowError(n, "click_time", f"malformed timestamp {row.get('click_time')!r}"))
            continue
        loan_type = _parse_loan_type(row.get("loan_type"), config)
        if loan_type is None:
            errors.append(RowError(n, "loan_type", f"unmapped loan type {row.get('loan_type')!r}"))
            continue
        mfi_id = _clean(row.get("mfi_id"))
        client_id = _clean(row.get("client_id"))
        if mfi_id is None or client_id is None:
            errors.append(RowError(n, "mfi_id" if mfi_id is None else "client_id", "empty identifier"))
            continue
        records.append(
            ConversionRecord(
                mfi_id=mfi_id,
                loan_type=loan_type,
                client_id=client_id,
                click_time=click_time,
                status=_parse_status(row.get("status"), config),
                card_id=_clean(row.get("card_id")),
                page_id=_clean(row.get("page_id")),
                page_rank=_parse_rank(row.get("page_rank")),
                global_rank=_parse_rank(row.get("global_rank")),
                conversion_time=_parse_timestamp(row.get("conversion_time"), config.timestamp_format),
                sale_time=_parse_timestamp(row.get("sale_time"), config.timestamp_format),
                income=_parse_float(row.get("income")),
                country=_clean(row.get("country")),
                region=_clean(row.get("region")),
                city=_clean(row.get("city")),
                device_type=_clean(row.get("device_type")),
                device=_clean(row.get("device")),
                os=_clean(row.get("os")),
                browser=_clean(row.get("browser")),
                connection_type=_clean(row.get("connection_type")),
                provider=_clean(row.get("provider")),
            )
        )
    return ParseResult(records, errors)


def parse_products(source, config: SchemaConfig | None = None) -> ParseResult:
    """Parse the product dataset (one row per MFI card).

    Duplicate card ids are a hard error; a rating outside [1, 5] is a
    row-level error.  Boolean-like cells are mapped through the
    configured true/false string sets (Russian spellings by default).
    """
    config = config or DEFAULT_SCHEMA
    index, rows = _read_table(source, config, ("mfi_id", "card_id", "loan_type"), "products")
    records: list[ProductRecord] = []
    errors: list[RowError] = []
    seen_cards: dict[str, int] = {}
    for n, cells in enumerate(rows, start=1):
        if not any(cell.strip() for cell in cells):
            continue
        row = _Row(index, cells)
        mfi_id = _clean(row.get("mfi_id"))
        card_id = _clean(row.get("card_id"))
        if mfi_id is None or card_id is None:
            errors.append(RowError(n, "mfi_id" if mfi_id is None else "card_id", "empty identifier"))
            continue
        if card_id in seen_cards:
            raise DataError(
                f"products: duplicate card_id {card_id!r} (rows {seen_cards[card_id]} and {n})"
            )
        loan_type = _parse_loan_type(row.get("loan_type"), config)
        if loan_type is None:
            errors.append(RowError(n, "loan_type", f"unmapped loan type {row.get('loan_type')!r}"))
            continue
        n_reviews_value = _parse_finite(row.get("n_reviews"))
        n_reviews = int(n_reviews_value) if n_reviews_value is not None and n_reviews_value >= 0 else 0
        rating = _parse_float(row.get("avg_user_rating"))
        if rating is not None and not 1.0 <= rating <= 5.0:
            errors.append(RowError(n, "avg_user_rating", f"rating {rating} outside [1, 5]"))
            continue
        seen_cards[card_id] = n
        records.append(
            ProductRecord(
                mfi_id=mfi_id,
                card_id=card_id,
                loan_type=loan_type,
                region=_clean(row.get("region")),
                work_schedule=_clean(row.get("work_schedule")),
                application_receipt_schedule=_clean(row.get("application_receipt_schedule")),
                processing_and_payment_schedule=_clean(row.get("processing_and_payment_schedule")),
                submission_method=_clean(row.get("submission_method")),
                calls=_clean(row.get("calls")),
                documents=_clean(row.get("documents")),
                identification=_clean(row.get("identification")),
                application_processing=_clean(row.get("application_processing")),
                consideration_time=_clean(row.get("consideration_time")),
                payment_time=_clean(row.get("payment_time")),
                payment_method=_clean(row.get("payment_method")),
                repayment_method=_clean(row.get("repayment_method")),
                avg_user_rating=rating,
                n_reviews=n_reviews,
                unreliability=_parse_bool(row.get("unreliability"), config) or False,
                bad_credit_score=_parse_bool(row.get("bad_credit_score"), config) or False,
                loan_extension=_parse_bool(row.get("loan_extension"), config) or False,
                loan_amount_min=_parse_float(row.get("loan_amount_min")),
                loan_amount_max=_parse_float(row.get("loan_amount_max")),
                loan_term_min=_parse_float(row.get("loan_term_min")),
                loan_term_max=_parse_float(row.get("loan_term_max")),
                interest_min=_parse_float(row.get("interest_min")),
                interest_max=_parse_float(row.get("interest_max")),
                age_min=_parse_float(row.get("age_min")),
                age_max=_parse_float(row.get("age_max")),
            )
        )
    return ParseResult(records, errors)


def parse_clicks(source, config: SchemaConfig | None = None) -> ParseResult:
    """Parse the click dataset (8 columns, superset of conversions)."""
    config = config or DEFAULT_SCHEMA
    index, rows = _read_table(
        source, config, ("mfi_id", "client_id", "click_time", "loan_type"), "clicks"
    )
    records: list[ClickRecord] = []
    errors: list[RowError] = []
    for n, cells in enumerate(rows, start=1):
        if not any(cell.strip() for cell in cells):
            continue
        row = _Row(index, cells)
        click_time = _parse_timestamp(row.get("click_time"), config.timestamp_format)
        if click_time is None:
            errors.append(RowError(n, "click_time", f"malformed timestamp {row.get('click_time')!r}"))
            continue
        loan_type = _parse_loan_type(row.get("loan_type"), config)
        if loan_type is None:
            errors.append(RowError(n, "loan_type", f"unmapped loan type {row.get('loan_type')!r}"))
            continue
        mfi_id = _clean(row.get("mfi_id"))
        client_id = _clean(row.get("client_id"))
        if mfi_id is None or client_id is None:
            errors.append(RowError(n, "mfi_id" if mfi_id is None else "client_id", "empty identifier"))
            continue
        records.append(
            ClickRecord(
                mfi_id=mfi_id,
                click_time=click_time,
                client_id=client_id,
                loan_type=loan_type,
                card_id=_clean(row.get("card_id")),
                page_id=_clean(row.get("page_id")),
                page_rank=_parse_rank(row.get("page_rank")),
                income=_parse_float(row.get("income")),
            )
        )
    return ParseResult(records, errors)


# ---------------------------------------------------------------------------
# serialization (canonical column spellings; used by the fixture generator,
# the CLI, and round-trip tests)

CONVERSION_COLUMNS = (
    "mfi_id", "loan_type", "card_id", "page_id", "page_rank", "global_rank",
    "click_time", "conversion_time", "sale_time", "status", "income", "client_id",
    "country", "region", "city", "device_type", "device", "os", "browser",
    "connection_type", "provider",
)

PRODUCT_COLUMNS = (
    "mfi_id", "card_id", "loan_type", "region", "work_schedule",
    "application_receipt_schedule", "processing_and_payment_schedule",
    "submission_method", "calls", "documents", "identification",
    "application_processing", "consideration_time", "payment_time",
    "payment_method", "repayment_method", "avg_user_rating", "n_reviews",
    "unreliability", "bad_credit_score", "loan_extension",
    "loan_amount_min", "loan_amount_max", "loan_term_min", "loan_term_max",
    "interest_min", "interest_max", "age_min", "age_max",
)

CLICK_COLUMNS = (
    "mfi_id", "card_id", "click_time", "client_id", "page_id", "page_rank",
    "loan_type", "income",
)


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


def _serialize(records: Iterable, columns: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_cell(getattr(rec, col)) for col in columns])
    return buf.getvalue()


def serialize_conversions(records: Iterable[ConversionRecord]) -> str:
    return _serialize(records, CONVERSION_COLUMNS)


def serialize_products(records: Iterable[ProductRecord]) -> str:
    return _serialize(records, PRODUCT_COLUMNS)


def serialize_clicks(records: Iterable[ClickRecord]) -> str:
    return _serialize(records, CLICK_COLUMNS)


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
