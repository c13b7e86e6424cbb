"""Parsing, validation, and timeline derivation."""

from __future__ import annotations

import csv
import gc
import io
import math
import re
from collections import Counter
from dataclasses import astuple
from datetime import datetime, timedelta
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import mfirank.data
from mfirank.data import (
    _BLOCK_ROWS,
    _CLICKS,
    _CONVERSIONS,
    _PRODUCTS,
    _REJECTS,
    DEFAULT_SCHEMA,
    TIMESTAMP_FORMAT,
    ClickRecord,
    ConversionRecord,
    LoanType,
    ParseResult,
    ProductRecord,
    RowError,
    SchemaConfig,
    Status,
    ValidationReport,
    derive_timeline,
    filter_loan_type,
    parse_clicks,
    parse_conversions,
    parse_products,
    serialize_clicks,
    serialize_conversions,
    serialize_products,
    validate,
    _cell_parsers,
    _is_comment,
    _norm_header,
    _open_rows,
)
from mfirank.errors import DataError
from mfirank.features import feature_table

CONV_HEADER = "mfi_id,loan_type,click_time,status,client_id"


def conv_csv(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join([CONV_HEADER, *rows]) + "\n")


def test_parses_minimal_conversion_row():
    result = parse_conversions(conv_csv("18,standard,2021-03-01 10:00:00,sale,c1"))
    assert not result.errors
    (rec,) = result.records
    assert rec.mfi_id == "18"
    assert rec.loan_type is LoanType.STANDARD
    assert rec.status is Status.SALE
    assert rec.click_time == datetime(2021, 3, 1, 10, 0, 0)


def test_header_spellings_are_normalized():
    text = io.StringIO(
        "MFI id,Loan type,Click Time,Status,Client-ID,MFI global rank\n"
        "18,standard,2021-03-01 10:00:00,sale,c1,4\n"
    )
    (rec,) = parse_conversions(text).records
    assert rec.global_rank == 4


def test_comment_lines_are_skipped_before_the_header():
    text = io.StringIO(
        "# config_digest=abc123\n"
        + CONV_HEADER
        + "\n18,standard,2021-03-01 10:00:00,sale,c1\n"
    )
    assert len(parse_conversions(text).records) == 1


def test_unknown_status_becomes_pending():
    (rec,) = parse_conversions(conv_csv("18,standard,2021-03-01 10:00:00,???,c1")).records
    assert rec.status is Status.PENDING


def test_russian_loan_type_spellings_map():
    result = parse_conversions(
        conv_csv(
            "18,loan-usual,2021-03-01 10:00:00,sale,c1",
            "18,loan-long-term,2021-03-01 10:00:00,sale,c2",
        )
    )
    assert [r.loan_type for r in result.records] == [
        LoanType.STANDARD,
        LoanType.LONG_TERM,
    ]


def test_malformed_timestamp_is_a_row_error():
    result = parse_conversions(conv_csv("18,standard,not-a-time,sale,c1"))
    assert not result.records
    (err,) = result.errors
    assert err.column == "click_time"
    assert err.row == 1


def test_zone_suffixed_timestamp_is_a_row_error():
    result = parse_conversions(conv_csv("18,standard,2021-03-01 10:00:00+03:00,sale,c1"))
    assert not result.records
    assert result.errors[0].column == "click_time"


@st.composite
def timestamp_shaped_cells(draw):
    """A prefix of ``2021-03-01 10:00:00`` with random digits, each
    position sometimes replaced by a stray digit, separator, sign or
    letter, and sometimes a tail of such characters."""
    template = "2021-03-01 10:00:00"[: draw(st.integers(min_value=10, max_value=19))]
    odd = st.sampled_from("0123456789 -:T+.Z\t٣")
    head = "".join(
        draw(odd) if draw(st.integers(min_value=0, max_value=5)) == 0 else
        (draw(st.sampled_from("0123456789")) if c.isdigit() else c)
        for c in template
    )
    return head + "".join(draw(st.lists(odd, max_size=3)))


@given(
    st.one_of(
        timestamp_shaped_cells(),
        st.datetimes().map(str),
        st.lists(st.sampled_from("0123456789 -:T.+Z"), max_size=24).map("".join),
        st.text(max_size=24),
    )
)
@example("2021-03-01")
@example("2021-03-01 10")
@example("2021-03-01 10:00")
@example("20210301T100000")
@example("2021-03-01T10:00:00")
@example("2021-03-01 10:00:00.5")
@example("2021-3-1 10:00:00")
@example("2021-03- 1 10:00:00")
@example("2021-03-01 10:00:60")
@example(" 2021-03-01 10:00:00 ")
def test_default_timestamps_follow_the_declared_format(cell):
    parse = _cell_parsers(SchemaConfig())["timestamp"]
    try:
        expected = datetime.strptime(cell.strip(), TIMESTAMP_FORMAT)
    except ValueError:
        expected = None
    assert parse(cell) == expected


def test_csv_framing_faults_are_rows_or_data_errors():
    # a bare carriage return ends a row, as in files from old Mac tools
    text = io.StringIO(CONV_HEADER + "\r18,standard,2021-03-01 10:00:00,sale,c1\r")
    assert len(parse_conversions(text).records) == 1
    huge = conv_csv("18,standard,2021-03-01 10:00:00,sale," + "c" * 200_000)
    with pytest.raises(DataError, match="malformed CSV"):
        parse_conversions(huge)


def test_unmapped_loan_type_is_a_row_error():
    result = parse_conversions(conv_csv("18,mortgage,2021-03-01 10:00:00,sale,c1"))
    assert not result.records
    assert result.errors[0].column == "loan_type"


def test_missing_mandatory_column_names_it():
    text = io.StringIO("mfi_id,click_time,status,client_id\n18,2021-03-01 10:00:00,sale,c1\n")
    with pytest.raises(DataError, match="loan_type"):
        parse_conversions(text)


def test_unreadable_file_is_a_data_error():
    with pytest.raises(DataError, match="cannot read"):
        parse_conversions("/no/such/file.csv")


@pytest.mark.parametrize("given", ["path", "bytes"])
@pytest.mark.parametrize("good_rows", [0, 3000])
def test_a_file_that_is_not_utf8_is_a_data_error_naming_the_dataset(tmp_path, given, good_rows):
    # Cyrillic status text in cp1251, a common export encoding, after
    # enough good rows that a streamed read meets it well past the start
    good = "18,standard,2021-03-01 10:00:00,sale,c1\n" * good_rows
    bad = "18,standard,2021-03-01 10:00:00,одобрен,c2\n"
    data = f"{CONV_HEADER}\n{good}".encode() + bad.encode("cp1251")
    path = tmp_path / "conversions.csv"
    path.write_bytes(data)
    source = str(path) if given == "path" else io.BytesIO(data)
    with pytest.raises(DataError, match="^conversions: not UTF-8 text: 'utf-8' codec can't decode"):
        parse_conversions(source)


def test_csv_text_passed_as_a_source_is_a_data_error():
    text = CONV_HEADER + "\n18,standard,2021-03-01 10:00:00,sale,c1\n"
    with pytest.raises(DataError, match="path or an open text stream") as info:
        parse_conversions(text)
    assert "2021-03-01" not in str(info.value)


def test_custom_timestamp_format():
    schema = SchemaConfig(timestamp_format="%d.%m.%Y %H:%M")
    (rec,) = parse_conversions(
        conv_csv("18,standard,01.03.2021 10:00,sale,c1"), schema
    ).records
    assert rec.click_time == datetime(2021, 3, 1, 10, 0)


def test_products_duplicate_card_id_is_fatal():
    text = io.StringIO(
        "mfi_id,card_id,loan_type\n18,card-1,standard\n20,card-1,standard\n"
    )
    with pytest.raises(DataError, match="duplicate card_id"):
        parse_products(text)


def test_products_rating_bounds_and_booleans():
    text = io.StringIO(
        "mfi_id,card_id,loan_type,average user rating,number of reviews,unreliability\n"
        "18,card-1,standard,4.5,12,нет\n"
        "20,card-2,standard,9.7,3,да\n"
    )
    result = parse_products(text)
    (rec,) = result.records
    assert rec.avg_user_rating == 4.5
    assert rec.n_reviews == 12
    assert rec.unreliability is False
    (err,) = result.errors
    assert err.column == "avg_user_rating"


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "NaN"])
def test_non_finite_ranks_and_review_counts_are_unparseable(text):
    (rec,) = parse_conversions(
        io.StringIO(
            "mfi_id,loan_type,click_time,status,client_id,global_rank,page_rank\n"
            f"18,standard,2021-03-01 10:00:00,sale,c1,{text},{text}\n"
        )
    ).records
    assert rec.global_rank is None and rec.page_rank is None
    (click,) = parse_clicks(
        io.StringIO(
            "mfi_id,click_time,client_id,loan_type,page_rank\n"
            f"18,2021-03-01 10:00:00,c1,standard,{text}\n"
        )
    ).records
    assert click.page_rank is None
    (card,) = parse_products(
        io.StringIO(f"mfi_id,card_id,loan_type,n_reviews\n18,card-1,standard,{text}\n")
    ).records
    assert card.n_reviews == 0


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "NaN"])
def test_non_finite_incomes_and_product_floats_are_unparseable(text):
    (rec,) = parse_conversions(
        io.StringIO(f"{CONV_HEADER},income\n18,standard,2021-03-01 10:00:00,sale,c1,{text}\n")
    ).records
    assert rec.income is None
    (click,) = parse_clicks(
        io.StringIO(
            "mfi_id,click_time,client_id,loan_type,income\n"
            f"18,2021-03-01 10:00:00,c1,standard,{text}\n"
        )
    ).records
    assert click.income is None
    result = parse_products(
        io.StringIO(
            "mfi_id,card_id,loan_type,loan_amount_min,interest_max,age_max,avg_user_rating\n"
            f"18,card-1,standard,{text},{text},{text},4\n"
            f"20,card-2,standard,1000,2,70,{text}\n"
        )
    )
    (card,) = result.records
    assert (card.loan_amount_min, card.interest_max, card.age_max) == (None, None, None)
    # a rating that is not a number in [1, 5] still rejects its row
    (err,) = result.errors
    assert (err.row, err.column) == (2, "avg_user_rating")


def test_a_nan_sale_income_leaves_epc_finite():
    conversions = parse_conversions(
        io.StringIO(
            "mfi_id,loan_type,click_time,conversion_time,sale_time,status,client_id,income\n"
            "18,standard,2021-03-01 10:00:00,2021-03-01 10:05:00,2021-03-01 12:00:00,sale,c1,nan\n"
            "18,standard,2021-03-02 10:00:00,2021-03-02 10:05:00,2021-03-02 12:00:00,sale,c2,30\n"
        )
    ).records
    products = parse_products(
        io.StringIO("mfi_id,card_id,loan_type,avg_user_rating,n_reviews\n18,card-1,standard,4,3\n")
    ).records
    clicks = parse_clicks(
        io.StringIO(
            "mfi_id,click_time,client_id,loan_type\n"
            "18,2021-03-01 10:00:00,c1,standard\n"
            "18,2021-03-02 10:00:00,c2,standard\n"
        )
    ).records
    (vector,) = feature_table(conversions, products, clicks, features=["epc"])
    assert vector.epc == 15.0


@pytest.mark.parametrize("text, rank", [("2.7", None), ("0.5", None), ("3.0", 3), ("4", 4)])
def test_fractional_ranks_are_unparseable(text, rank):
    (rec,) = parse_conversions(
        io.StringIO(
            f"{CONV_HEADER},page_rank,global_rank\n"
            f"18,standard,2021-03-01 10:00:00,sale,c1,{text},{text}\n"
        )
    ).records
    assert rec.page_rank == rec.global_rank == rank
    (click,) = parse_clicks(
        io.StringIO(
            "mfi_id,click_time,client_id,loan_type,page_rank\n"
            f"18,2021-03-01 10:00:00,c1,standard,{text}\n"
        )
    ).records
    assert click.page_rank == rank


def test_click_parser_reads_the_superset_log():
    text = io.StringIO(
        "mfi_id,card_id,click_time,client_id,page_id,page_rank,loan_type,income\n"
        "18,card-1,2021-03-01 09:59:00,c1,2,5,standard,\n"
    )
    (rec,) = parse_clicks(text).records
    assert rec.page_rank == 5
    assert rec.income is None


def test_serialize_round_trip(fixture_triple):
    conversions, products, clicks = fixture_triple
    back_conv = parse_conversions(io.StringIO(serialize_conversions(conversions)))
    back_prod = parse_products(io.StringIO(serialize_products(products)))
    back_clk = parse_clicks(io.StringIO(serialize_clicks(clicks)))
    assert not back_conv.errors and not back_prod.errors and not back_clk.errors
    assert back_conv.records == conversions
    assert back_prod.records == products
    assert back_clk.records == clicks


# Cells that are valid in some column, and text that is valid in none.
TRICKY_CELLS = [
    "", " ", "nan", "inf", "-inf", "1e400", "-3", "0", "2.7", "4", "1", "5", "9.7",
    "\ufeff18", '"', 'a"b', "#", "да", "нет", "sale", "standard", "mortgage",
    "2021-03-01 10:00:00", "2021-13-45 10:00:00", "2021-03-01 10:00:00+03:00",
    "2021-03-01", "\x1c7", "1_0", "\r", "a\rb",
]

PARSERS = (
    (parse_conversions, serialize_conversions),
    (parse_products, serialize_products),
    (parse_clicks, serialize_clicks),
)


def _fuzzed_csv(draw, serialize, record) -> str:
    """The dataset's canonical header, then up to three copies of a valid
    row with up to three cells replaced by tricky or arbitrary text; rows
    may also be ragged."""
    header, valid = csv.reader(io.StringIO(serialize([record])))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = list(valid)
        for i in draw(st.sets(st.integers(0, len(row) - 1), min_size=1, max_size=3)):
            row[i] = draw(st.one_of(st.sampled_from(TRICKY_CELLS), st.text(max_size=8)))
        rows.append(row[: draw(st.integers(0, len(row)))] if draw(st.booleans()) else row)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _parsed_or_error(parse, source) -> ParseResult | str:
    try:
        return parse(source)
    except DataError as exc:
        return str(exc)


@settings(max_examples=150)
@given(data=st.data(), which=st.integers(0, 2), bom=st.sampled_from([None, "text", "bytes"]))
def test_parsers_survive_arbitrary_cells(fixture_triple, data, which, bom):
    parse, serialize = PARSERS[which]
    text = _fuzzed_csv(data.draw, serialize, fixture_triple[which][0])
    result = _parsed_or_error(parse, io.StringIO(text))
    if bom is not None:
        # A leading byte-order mark, as spreadsheet exports write it, is
        # not part of the first header cell.
        marked = "\ufeff" + text
        source = io.StringIO(marked) if bom == "text" else io.BytesIO(marked.encode("utf-8"))
        assert _parsed_or_error(parse, source) == result
    if isinstance(result, str):
        return
    assert isinstance(result, ParseResult)
    for record in result.records:
        for value in astuple(record):
            if isinstance(value, float):
                assert math.isfinite(value)
            if isinstance(value, datetime):
                assert value.tzinfo is None
        for rank in (getattr(record, "page_rank", None), getattr(record, "global_rank", None)):
            assert rank is None or (type(rank) is int and rank > 0)


# ---------------------------------------------------------------------------
# the row-at-a-time parser that the block-wise columnar one replaced, kept
# verbatim as the reference


def reference_read_table(source, config, dataset):
    """The header's column index by canonical name, and the data rows."""
    try:
        rows = [row for row in _open_rows(source) if not _is_comment(row)]
    except csv.Error as exc:
        raise DataError(f"{dataset.name}: malformed CSV: {exc}") from None
    if not rows:
        raise DataError(f"{dataset.name}: file is empty (no header row)")
    index = {}
    for i, name in enumerate(rows[0]):
        canon = _norm_header(name)
        canon = config.column_aliases.get(canon, canon)
        index.setdefault(canon, i)
    for column in dataset.mandatory:
        if column not in index:
            raise DataError(f"{dataset.name}: missing mandatory column '{column}'")
    return index, rows[1:]


class ReferenceParse(NamedTuple):
    records: list
    errors: list[RowError]


def reference_parse_rows(source, config, dataset):
    """Read one dataset: every row becomes a record or a RowError."""
    config = config or DEFAULT_SCHEMA
    index, rows = reference_read_table(source, config, dataset)
    parsers = _cell_parsers(config)
    kinds = dict(dataset.columns)
    present = [(name, index[name], parsers[kind]) for name, kind in dataset.columns if name in index]
    # A column missing from the header reads as an empty cell in every row.
    absent = {name: parsers[kind](None) for name, kind in dataset.columns if name not in index}
    checks = [(name, index.get(name), _REJECTS[kinds[name]]) for name in dataset.checks]
    width = 1 + max(i for _, i, _ in present)
    unique = dataset.unique
    seen = {}
    records = []
    errors = []
    for n, cells in enumerate(rows, start=1):
        if not "".join(cells).strip():
            continue
        if len(cells) < width:
            cells = cells + [None] * (width - len(cells))
        values = {name: parse(cells[i]) for name, i, parse in present}
        values.update(absent)
        for name, i, reject in checks:
            message = reject(values[name], None if i is None else cells[i])
            if message is not None:
                errors.append(RowError(n, name, message))
                break
            if name == unique and values[name] in seen:
                raise DataError(
                    f"{dataset.name}: duplicate {name} {values[name]!r} "
                    f"(rows {seen[values[name]]} and {n})"
                )
        else:
            if unique is not None:
                seen[values[unique]] = n
            records.append(dataset.record(**values))
    return ReferenceParse(records, errors)


DATASETS = (_CONVERSIONS, _PRODUCTS, _CLICKS)
BLOCK_SIZES = (1, 2, 3, 7, _BLOCK_ROWS)


def assert_same_parse(parse, dataset, text: str) -> None:
    """The parser gives the reference's records, row errors or DataError,
    whatever the block size."""
    expected = _parsed_or_error(lambda source: reference_parse_rows(source, None, dataset),
                                io.StringIO(text))
    for size in BLOCK_SIZES:
        with mock.patch.object(mfirank.data, "_BLOCK_ROWS", size):
            got = _parsed_or_error(parse, io.StringIO(text))
        if isinstance(expected, str):
            assert got == expected
            continue
        assert not isinstance(got, str), got
        assert got.errors == expected.errors
        # The names of an id or text column are its values, first-seen.
        for name, values in got.table.names.items():
            assert values == tuple(dict.fromkeys(getattr(r, name) for r in expected.records))
        assert len(got.records) == len(expected.records)
        for a, b in zip(got.records, expected.records):
            assert type(a) is type(b)
            assert repr(a) == repr(b)
            assert a == b and hash(a) == hash(b)


@st.composite
def straddling_csvs(draw, which, records):
    """Fuzzed rows of several records, with blank and comment rows and
    repeated rows between them, so that row errors, ragged rows and a
    duplicate card fall on either side of a block boundary."""
    serialize = PARSERS[which][1]
    header = None
    rows = []
    for record in records[: draw(st.integers(1, 4))]:
        text = _fuzzed_csv(draw, serialize, record)
        header, *fuzzed = csv.reader(io.StringIO(text, newline=""))
        rows += fuzzed
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from([[], ["", " "], ["# comment", "x"], ["  #", ""], "repeat"]))
        if extra == "repeat":
            extra = list(draw(st.sampled_from(rows)))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


@settings(max_examples=150)
@given(data=st.data(), which=st.integers(0, 2))
def test_the_block_parser_matches_the_row_loop(fixture_triple, data, which):
    text = data.draw(straddling_csvs(which, fixture_triple[which]))
    assert_same_parse(PARSERS[which][0], DATASETS[which], text)


def test_the_block_parser_matches_the_row_loop_on_the_fixture(fixture_triple):
    for which, (parse, serialize) in enumerate(PARSERS):
        assert_same_parse(parse, DATASETS[which], serialize(fixture_triple[which]))


HUGE_CELL = "c" * 200_000


@pytest.mark.parametrize(
    "which, text, outcome",
    [
        # A framing fault anywhere in the file wins over a duplicate card or
        # a missing mandatory column before it.
        (1, "mfi_id,card_id,loan_type\n18,card-1,standard\n20,card-1,standard\n"
            + "".join(f"2{i},card-{i + 2},standard\n" for i in range(20))
            + f"21,{HUGE_CELL},standard\n", "malformed CSV"),
        (0, "mfi_id,click_time,status,client_id\n18,2021-03-01 10:00:00,sale,c1\n"
            f"18,2021-03-01 10:00:00,sale,{HUGE_CELL}\n", "malformed CSV"),
        (1, "mfi_id,card_id,loan_type\n18,card-1,standard\n20,bad,mortgage\n"
            "# note\n\n20,card-1,standard\n", "duplicate card_id 'card-1' (rows 1 and 4)"),
        (0, "mfi_id,click_time,status,client_id\n18,2021-03-01 10:00:00,sale,c1\n",
         "missing mandatory column 'loan_type'"),
        (2, "# only a comment\n", "file is empty"),
        (2, "mfi_id,click_time,client_id,loan_type\n", None),
    ],
)
def test_data_errors_keep_their_precedence(which, text, outcome):
    parse = PARSERS[which][0]
    if outcome is None:
        assert parse(io.StringIO(text)).records == []
    else:
        with pytest.raises(DataError, match=re.escape(outcome)):
            parse(io.StringIO(text))
    assert_same_parse(parse, DATASETS[which], text)


# ---------------------------------------------------------------------------
# bulk timestamps against the cell parser

# Cells of the default shape NNNN-NN-NN NN:NN:NN that name no moment, cells
# one character off that shape, padded cells, and some that are fine.
STAMP_CELLS = [
    "2021-03-01 10:00:00", "2020-02-29 23:59:59", "2000-02-29 00:00:00", "0001-01-01 00:00:00",
    "9999-12-31 23:59:59", "1969-12-31 23:59:59", "1900-02-28 12:00:00",
    "2021-13-01 10:00:00", "2021-00-10 10:00:00", "2021-03-00 10:00:00", "2021-04-31 10:00:00",
    "2021-02-29 10:00:00", "1900-02-29 10:00:00", "2021-03-01 24:00:00", "2021-03-01 10:60:00",
    "2021-03-01 10:00:60", "0000-01-01 00:00:00", "2021-0a-01 10:00:00", "+023-03-01 10:00:00",
    "-021-03-01 10:00:00", "2021-03-01T10:00:00", "2021/03/01 10:00:00", "2021-03-01_10:00:00",
    "2021-03-01 10:00:00Z", "2021-03-01 10:00:00+03:00", "2021-03-01 10:00:0",
    "2021-03-01 10:00:000", "2021-3-01 10:00:00", "2021-03- 1 10:00:00", "2021-03-01 1:00:00",
    " 2021-03-01 10:00:00", "2021-03-01 10:00:00 ", "\t2021-03-01 10:00:00\n",
    "\u0662\u0660\u0662\u0661-03-01 10:00:00", "２０２１-03-01 10:00:00", "2021-03-01 10:00:00.5",
    "2021-03-01", "", " ", None,
]


def cell_stamps(column, parse) -> tuple[list, list]:
    """(microseconds, missing) of each cell by the cell parser alone."""
    values = [parse(cell) for cell in column]
    return (
        [0 if v is None else mfirank.data.to_micros(v) for v in values],
        [v is None for v in values],
    )


def assert_bulk_stamps_match(column, config=DEFAULT_SCHEMA):
    parse = _cell_parsers(config)[mfirank.data._TIMESTAMP]
    bulk = config.timestamp_format == TIMESTAMP_FORMAT
    micros, missing = mfirank.data._timestamps(column, parse, bulk)
    assert (micros.tolist(), missing.tolist()) == cell_stamps(column, parse)


def test_bulk_timestamps_match_the_cell_parser():
    assert_bulk_stamps_match(STAMP_CELLS)
    assert_bulk_stamps_match(STAMP_CELLS[::-1] * 3)
    assert_bulk_stamps_match(())


def test_well_shaped_stamps_never_reach_the_cell_parser():
    parse = mock.Mock(side_effect=_cell_parsers(DEFAULT_SCHEMA)[mfirank.data._TIMESTAMP])
    mfirank.data._timestamps(STAMP_CELLS, parse, True)
    sent = {call.args[0] for call in parse.call_args_list}
    assert "2021-03-01 10:00:00" not in sent and "9999-12-31 23:59:59" not in sent
    assert {"2021-02-29 10:00:00", " 2021-03-01 10:00:00", "2021-03-01 10:00:0"} <= sent


STAMP_CHARS = st.sampled_from("0123456789-: T+Z.a\u0663")


@given(
    cells=st.lists(
        st.one_of(
            # the default shape, each character sometimes replaced
            st.lists(STAMP_CHARS, min_size=19, max_size=19).map("".join),
            st.builds(
                "{:04d}-{:02d}-{:02d} {:02d}:{:02d}:{:02d}".format,
                st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
                st.integers(0, 25), st.integers(0, 61), st.integers(0, 61),
            ),
            st.sampled_from(STAMP_CELLS),
            st.text(max_size=21),
        ),
        max_size=30,
    )
)
def test_bulk_timestamps_match_the_cell_parser_on_drawn_cells(cells):
    assert_bulk_stamps_match(cells)


@pytest.mark.parametrize("fmt", ["%d.%m.%Y %H:%M", "%Y-%m-%d %H:%M:%S.%f", "%Y-%m-%dT%H:%M:%S"])
def test_a_custom_timestamp_format_goes_to_the_cell_parser(fmt):
    config = SchemaConfig(timestamp_format=fmt)
    cells = STAMP_CELLS + ["01.03.2021 10:00", "31.02.2021 10:00", "2021-03-01 10:00:00 +0300"]
    assert_bulk_stamps_match(cells, config)
    rows = [f"18,standard,{cell or ''},sale,c{i}" for i, cell in enumerate(cells)]
    text = "\n".join([CONV_HEADER, *rows]) + "\n"
    expected = reference_parse_rows(io.StringIO(text), config, _CONVERSIONS)
    got = parse_conversions(io.StringIO(text), config)
    assert got.errors == expected.errors
    assert repr(got.records) == repr(expected.records)
    assert got.records  # some cells are read under each format


def test_a_parse_leaves_the_cycle_collector_as_it_found_it():
    valid = CONV_HEADER + "\n18,standard,2021-03-01 10:00:00,sale,c1\n"
    duplicate = "mfi_id,card_id,loan_type\n18,card-1,standard\n20,card-1,standard\n"
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert len(parse_conversions(io.StringIO(valid)).records) == 1
            assert gc.isenabled() is enabled
            with pytest.raises(DataError, match="duplicate card_id"):
                parse_products(io.StringIO(duplicate))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _app(**kwargs) -> ConversionRecord:
    base = dict(
        mfi_id="18",
        loan_type=LoanType.STANDARD,
        client_id="c1",
        click_time=datetime(2021, 3, 1, 10, 0, 0),
        status=Status.SALE,
    )
    base.update(kwargs)
    return ConversionRecord(**base)


def test_timeline_periods():
    rec = _app(
        conversion_time=datetime(2021, 3, 1, 10, 10, 0),
        sale_time=datetime(2021, 3, 1, 11, 10, 0),
    )
    tl = derive_timeline(rec)
    assert tl.conversion_period == 600.0
    assert tl.processing_period == 3600.0
    assert not tl.invalid


def test_timeline_negative_difference_marks_invalid():
    rec = _app(conversion_time=datetime(2021, 3, 1, 9, 0, 0))
    tl = derive_timeline(rec)
    assert tl.invalid
    assert tl.conversion_period is None


def test_timeline_processing_needs_a_sale():
    rec = _app(
        status=Status.REJECTED,
        conversion_time=datetime(2021, 3, 1, 10, 10, 0),
        sale_time=datetime(2021, 3, 1, 11, 0, 0),
    )
    assert derive_timeline(rec).processing_period is None


def test_loan_type_filters():
    records = [
        _app(),
        _app(loan_type=LoanType.LONG_TERM),
        _app(loan_type=LoanType.INTEREST_FREE),
    ]
    assert filter_loan_type(records, LoanType.STANDARD) == [records[0]]
    assert filter_loan_type(records, LoanType.LONG_TERM) == [records[1]]
    assert filter_loan_type(records, None) == records


def test_validate_counts_on_the_fixture(fixture_triple):
    conversions, products, clicks = fixture_triple
    report = validate(conversions, products, clicks)
    assert report.n_applications == len(conversions)
    assert report.n_mfis == len({r.mfi_id for r in conversions})
    assert report.n_clients == len({r.client_id for r in conversions})
    assert report.n_sales == sum(1 for r in conversions if r.status is Status.SALE)
    assert abs(sum(report.status_shares.values()) - 1.0) < 1e-12
    assert report.n_invalid_timelines == 0
    # the generator produces internally consistent data
    assert report.warnings == []


def test_validate_flags_orphans_and_unmatched_conversions():
    conversions = [_app(sale_time=datetime(2021, 3, 1, 11, 0), income=10.0)]
    text = io.StringIO("mfi_id,card_id,loan_type\n99,card-9,standard\n")
    products = parse_products(text).records
    report = validate(conversions, products, [])
    assert any("absent from products" in w for w in report.warnings)


# ---------------------------------------------------------------------------
# validate on the tables against the record loops it replaced, kept verbatim
# (``violations`` was a ConversionRecord method) as the reference


def reference_violations(rec: ConversionRecord) -> list[str]:
    """Consistency problems of this record (empty list when clean)."""
    out = []
    if rec.conversion_time is not None and rec.conversion_time < rec.click_time:
        out.append("conversion_time before click_time")
    if rec.sale_time is not None:
        anchor = rec.conversion_time or rec.click_time
        if rec.sale_time < anchor:
            out.append("sale_time before conversion_time")
    if rec.status is Status.SALE:
        if rec.sale_time is None:
            out.append("sale without sale_time")
        if rec.income is None:
            out.append("sale without income")
    elif rec.sale_time is not None:
        out.append("sale_time on non-sale status")
    if rec.income is not None and rec.income < 0:
        out.append("negative income")
    return out


def reference_validate(conversions, products, clicks) -> ValidationReport:
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
        for problem in reference_violations(rec):
            bad_records[problem] += 1
    for prod in products:
        for problem in prod.violations():
            bad_records[problem] += 1
    for problem, count in sorted(bad_records.items()):
        report.warnings.append(f"{count} records: {problem}")
    return report


LOG_T0 = datetime(2021, 3, 1, 10, 0, 0)
SECONDS = st.sampled_from([-3600, -1, 0, 1, 600, 7200])
INCOMES = st.sampled_from([None, -0.0, 0.0, -5.0, 2.5, 100.0])


@st.composite
def validation_logs(draw):
    """Small conversion, product and click logs: up to 14 MFIs, each time
    difference sometimes negative, and per conversion a matching click, a
    click that differs only in time, or none.  Products name only some of
    the MFIs, and either log may be empty."""
    mfis = [f"m{i:02d}" for i in range(draw(st.integers(1, 14)))]
    rows = mfis if draw(st.booleans()) else []
    rows = rows + draw(st.lists(st.sampled_from(mfis), max_size=12))
    conversions, clicks = [], []
    for mfi in rows:
        click = LOG_T0 + timedelta(seconds=draw(st.sampled_from([0, 60, 3600])))
        submitted = draw(st.one_of(st.none(), SECONDS.map(lambda s: click + timedelta(seconds=s))))
        paid = draw(st.one_of(
            st.none(), SECONDS.map(lambda s: (submitted or click) + timedelta(seconds=s))
        ))
        rec = ConversionRecord(
            mfi_id=mfi,
            loan_type=LoanType.STANDARD,
            client_id=draw(st.sampled_from(["c0", "c1", "c2"])),
            click_time=click,
            status=draw(st.sampled_from(Status)),
            conversion_time=submitted,
            sale_time=paid,
            income=draw(INCOMES),
        )
        conversions.append(rec)
        shift = draw(st.sampled_from([0, 1, None]))
        if shift is not None:
            clicks.append(ClickRecord(
                mfi_id=rec.mfi_id,
                click_time=click + timedelta(seconds=shift),
                client_id=rec.client_id,
                loan_type=LoanType.STANDARD,
            ))
    clicks += [
        ClickRecord(mfi_id=mfi, click_time=LOG_T0, client_id=client, loan_type=LoanType.STANDARD)
        for mfi, client in draw(st.lists(
            st.tuples(st.sampled_from([*mfis, "x"]), st.sampled_from(["c0", "c9"])), max_size=3
        ))
    ]
    if draw(st.booleans()):
        clicks = []
    bounds = st.sampled_from([(None, None), (1.0, 2.0), (2.0, 1.0), (3.0, None)])
    products = []
    for i, mfi in enumerate(draw(st.lists(st.sampled_from([*mfis[:3], "p0"]), max_size=4))):
        (amount_min, amount_max), (age_min, age_max) = draw(bounds), draw(bounds)
        products.append(ProductRecord(
            mfi_id=mfi,
            card_id=f"card-{i}",
            loan_type=LoanType.STANDARD,
            avg_user_rating=draw(st.sampled_from([None, 4.5])),
            n_reviews=draw(st.sampled_from([0, 3])),
            loan_amount_min=amount_min,
            loan_amount_max=amount_max,
            age_min=age_min,
            age_max=age_max,
        ))
    return conversions, products, clicks


def parsed_log(conversions, products, clicks):
    """The three logs written to CSV and parsed back."""
    results = [
        parse(io.StringIO(serialize(rows)))
        for parse, serialize, rows in (
            (parse_conversions, serialize_conversions, conversions),
            (parse_products, serialize_products, products),
            (parse_clicks, serialize_clicks, clicks),
        )
    ]
    assert not any(result.errors for result in results)
    return results


@settings(max_examples=200)
@given(log=validation_logs())
def test_validate_matches_the_record_reference(log):
    conversions, products, clicks = log
    expected = reference_validate(conversions, products, clicks)
    assert validate(conversions, products, clicks) == expected
    conv, prod, clk = parsed_log(conversions, products, clicks)
    assert validate(conv.table, prod.records, clk.table) == expected
    # A table made by ``take`` keeps every name of its parent table.
    every_other = np.arange(0, len(conversions), 2)
    assert validate(conv.table.take(every_other), products, clk.table) == reference_validate(
        conversions[::2], products, clicks
    )


def invalid_period(rec: ConversionRecord) -> str | None:
    """Which period makes ``rec``'s timeline invalid, if one does."""
    if rec.conversion_time is not None and rec.conversion_time < rec.click_time:
        return "conversion"
    if (
        rec.status is Status.SALE
        and rec.conversion_time is not None
        and rec.sale_time is not None
        and rec.sale_time < rec.conversion_time
    ):
        return "processing"
    return None


def _keys(rows):
    return {(r.mfi_id, r.client_id, r.click_time) for r in rows}


def _problem(name: str):
    return lambda conversions, products, clicks: any(
        name in reference_violations(rec) for rec in conversions
    )


def _income(value):
    return lambda conversions, products, clicks: any(
        repr(rec.income) == repr(value) for rec in conversions
    )


VALIDATION_CASES = {
    **{problem: _problem(problem) for problem in (
        "conversion_time before click_time", "sale_time before conversion_time",
        "sale without sale_time", "sale without income", "sale_time on non-sale status",
        "negative income",
    )},
    "invalid conversion period": lambda c, p, k: any(
        invalid_period(r) == "conversion" for r in c
    ),
    "invalid processing period": lambda c, p, k: any(
        invalid_period(r) == "processing" for r in c
    ),
    "a conversion with its click": lambda c, p, k: bool(_keys(c) & _keys(k)),
    "a conversion without a click": lambda c, p, k: bool(k) and bool(_keys(c) - _keys(k)),
    "a click that differs only in time": lambda c, p, k: any(
        (r.mfi_id, r.client_id, r.click_time + timedelta(seconds=1)) in _keys(k)
        and (r.mfi_id, r.client_id, r.click_time) not in _keys(k)
        for r in c
    ),
    "more than 10 orphan MFIs": lambda c, p, k: bool(p) and len(
        {r.mfi_id for r in c} - {card.mfi_id for card in p}
    ) > 10,
    "empty products": lambda c, p, k: bool(c) and not p,
    "empty clicks": lambda c, p, k: bool(c) and not k,
    "income -0.0": _income(-0.0),
    "missing income": _income(None),
}


@pytest.mark.parametrize("case", VALIDATION_CASES)
def test_drawn_validation_logs_cover_every_case(case):
    find(
        validation_logs(),
        lambda log: VALIDATION_CASES[case](*log),
        settings=settings(
            max_examples=5000, database=None, derandomize=True, phases=[Phase.generate]
        ),
    )


def test_a_nan_income_in_a_record_reads_as_missing():
    # As everywhere in the table engine: a float column holds NaN for an
    # empty cell, so a hand-built record's NaN income is no income.
    rec = _app(sale_time=datetime(2021, 3, 1, 11, 0), income=math.nan)
    assert validate([rec], [], []).warnings == ["1 records: sale without income"]
