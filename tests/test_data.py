"""Parsing, validation, and timeline derivation."""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace
from datetime import datetime, timedelta
from itertools import islice
from typing import Iterator, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from conftest import tables

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
    Table,
    ValidationReport,
    derive_timeline,
    filter_loan_type,
    first_seen,
    parse_clicks,
    parse_conversions,
    parse_products,
    recoded,
    serialize_clicks,
    serialize_conversions,
    serialize_products,
    click_table,
    conversion_table,
    validate,
    _cell_parsers,
    _has_click,
    _is_comment,
    _norm_header,
    _parse_columns,
    _parse_whole,
    _plain,
    _plain_bytes,
)
from mfirank.errors import DataError
from mfirank.features import feature_table
from mfirank.fixtures import generate_fixture

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
    # enough good rows that a streamed read meets it well past the start;
    # the message names the line, the header being line 1
    good = "18,standard,2021-03-01 10:00:00,sale,c1\n" * good_rows
    bad = "18,standard,2021-03-01 10:00:00,одобрен,c2\n"
    data = f"{CONV_HEADER}\n{good}".encode() + bad.encode("cp1251")
    path = tmp_path / "conversions.csv"
    path.write_bytes(data)
    source = str(path) if given == "path" else io.BytesIO(data)
    prefix = "^conversions: not UTF-8 text: 'utf-8' codec can't decode"
    with pytest.raises(DataError, match=prefix) as info:
        parse_conversions(source)
    position = len(data) - len(bad) + bad.index("\u043e")  # one cp1251 byte a letter
    suffix = f"in position {position}: invalid continuation byte (line {good_rows + 2})"
    assert str(info.value).endswith(suffix)


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
    ).table
    products = parse_products(
        io.StringIO("mfi_id,card_id,loan_type,avg_user_rating,n_reviews\n18,card-1,standard,4,3\n")
    ).records
    clicks = parse_clicks(
        io.StringIO(
            "mfi_id,click_time,client_id,loan_type\n"
            "18,2021-03-01 10:00:00,c1,standard\n"
            "18,2021-03-02 10:00:00,c2,standard\n"
        )
    ).table
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


@pytest.mark.parametrize("triple", ["fixture_triple", "year_999_triple"])
def test_serialize_round_trip(request, triple):
    conversions, products, clicks = request.getfixturevalue(triple)
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
    text = source.read().removeprefix("\ufeff")
    try:
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if not _is_comment(row)]
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


def table_order(records: list, dataset) -> list:
    """``records`` in the row order of their table, which the parsers give."""
    return Table.from_records(records, dataset).records()


def assert_same_parse(parse, dataset, text: str, as_bytes: bool = False) -> None:
    """The parser gives the reference's records, in table order, row errors
    or DataError, whatever the block size, from a text stream or a byte
    stream."""
    expected = _parsed_or_error(lambda source: reference_parse_rows(source, None, dataset),
                                io.StringIO(text))
    for size in BLOCK_SIZES:
        with mock.patch.object(mfirank.data, "_BLOCK_ROWS", size):
            got = _parsed_or_error(parse, stream(text.encode() if as_bytes else text))
        if isinstance(expected, str):
            assert got == expected
            continue
        assert not isinstance(got, str), got
        assert got.errors == expected.errors
        records = table_order(expected.records, dataset)
        # The names of an id or text column are its values, first-seen.
        for name, values in got.table.names.items():
            assert values == tuple(dict.fromkeys(getattr(r, name) for r in records))
        assert len(got.records) == len(records)
        for a, b in zip(got.records, records):
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
        (2, "", "file is empty"),
        (2, "\ufeff", "file is empty"),
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


def cell_stamps(column, parse) -> list:
    """Each cell as the cell parser alone reads it, None for no timestamp."""
    return [parse(cell) for cell in column]


def assert_stamps_match(stamps: np.ndarray, column, parse) -> None:
    """``stamps`` are ``datetime64[us]``, NaT exactly where the cell parser
    reads a cell of ``column`` as None, and the parser's moment elsewhere."""
    expected = cell_stamps(column, parse)
    assert stamps.dtype == np.dtype("M8[us]")
    assert np.isnat(stamps).tolist() == [value is None for value in expected]
    assert stamps.tolist() == expected  # NaT reads back as None


def stamp_buffer(column) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``column`` in a buffer built by ``_plain_bytes``, each cell followed
    by a comma, and where each cell starts and ends in it; a None cell is
    absent, and ends before it starts."""
    raw = [b"" if cell is None else cell.encode() for cell in column]
    sizes = np.array([len(cell) for cell in raw], np.int64)
    stops = np.cumsum(sizes + 1) - 1
    starts = stops - sizes
    ends = np.where([cell is None for cell in column], starts - 1, stops)
    return _plain_bytes(b"".join(cell + b"," for cell in raw)), starts, ends


def assert_bulk_stamps_match(column, config=DEFAULT_SCHEMA):
    # The buffer holds a CRLF as the LF that _plain_bytes makes of it.
    column = [cell if cell is None else cell.replace("\r\n", "\n") for cell in column]
    parse = _cell_parsers(config)[mfirank.data._TIMESTAMP]
    bulk = config.timestamp_format == TIMESTAMP_FORMAT
    assert_stamps_match(mfirank.data._stamps(*stamp_buffer(column), parse, bulk), column, parse)


def assert_splitters_match_the_cell_parser(column):
    """Both splitters read ``column`` as the optional conversion_time of a
    conversions file as the cell parser reads each cell; the column reader
    gets the cells that leave the file plain."""
    parse = _cell_parsers(DEFAULT_SCHEMA)[mfirank.data._TIMESTAMP]
    column = ["" if cell is None else cell for cell in column]
    plain = [cell for cell in column if not set(cell) & set('",\r\n\0')]
    for read, cells in ((csv_path, column), (column_reader, plain)):
        text = io.StringIO()
        text.write(CONV_HEADER + ",conversion_time\n")
        rows = (["18", "standard", "2021-03-01 10:00:00", "sale", f"c{i}", c] for i, c in enumerate(cells))
        csv.writer(text, lineterminator="\n").writerows(rows)
        got = read(text.getvalue(), _CONVERSIONS)
        if cells:
            # Row i is client c{i}; the table puts the rows in its order.
            rows = [int(r.client_id[1:]) for r in got.records]
            stamps = got.table.columns["conversion_time"]
            assert_stamps_match(stamps, [cells[i] for i in rows], parse)


def test_bulk_timestamps_match_the_cell_parser():
    assert_bulk_stamps_match(STAMP_CELLS)
    assert_bulk_stamps_match(STAMP_CELLS[::-1] * 3)
    assert_bulk_stamps_match(())


def test_well_shaped_stamps_never_reach_the_cell_parser():
    parse = mock.Mock(side_effect=_cell_parsers(DEFAULT_SCHEMA)[mfirank.data._TIMESTAMP])
    mfirank.data._stamps(*stamp_buffer(STAMP_CELLS), parse, True)
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
    assert_splitters_match_the_cell_parser(cells)


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
    assert repr(got.records) == repr(table_order(expected.records, _CONVERSIONS))
    assert got.records  # some cells are read under each format


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


def reference_filter_loan_type(records, loan_type):
    """The record-by-record filter the table mask replaced."""
    if loan_type is None:
        return list(records)
    return [r for r in records if r.loan_type is loan_type]


def test_loan_type_filters():
    loan_types = [LoanType.STANDARD, LoanType.LONG_TERM, LoanType.STANDARD, LoanType.INTEREST_FREE]
    submitted = [datetime(2021, 3, 1, 10, 5), None, None, datetime(1, 1, 1)]
    conversions = [
        _app(client_id=f"c{i}", loan_type=t, conversion_time=at)
        for i, (t, at) in enumerate(zip(loan_types, submitted))
    ]
    clicks = [ClickRecord(r.mfi_id, r.click_time, r.client_id, r.loan_type) for r in conversions]
    products = [ProductRecord("18", f"card-{i}", t) for i, t in enumerate(loan_types)]
    cards = parse_products(io.StringIO(serialize_products(products))).table
    # A None timestamp is NaT in its column, and reads back as None.
    stamps = conversion_table(conversions).columns["conversion_time"]
    assert stamps.dtype == np.dtype("M8[us]")
    assert np.isnat(stamps).tolist() == [at is None for at in submitted]
    for table in (conversion_table(conversions), click_table(clicks), cards):
        for loan_type in (*LoanType, None):
            selected = filter_loan_type(table, loan_type)
            assert selected.records() == reference_filter_loan_type(table.records(), loan_type)
            # A selection is a table like any other: dense first-seen codes
            # into the names its rows hold, as a table of its records has.
            rebuilt = Table.from_records(selected.records(), table.dataset)
            assert selected.names == rebuilt.names
            for name, column in selected.columns.items():
                assert column.dtype == rebuilt.columns[name].dtype, name
                assert column.tobytes() == rebuilt.columns[name].tobytes(), name


def test_validate_counts_on_the_fixture(fixture_triple, fixture_tables):
    conversions, products, clicks = fixture_triple
    report = validate(*fixture_tables)
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
    report = validate(*tables(conversions, products, []))
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
    assert validate(*tables(conversions, products, clicks)) == expected
    conv, prod, clk = parsed_log(conversions, products, clicks)
    assert validate(conv.table, prod.records, clk.table) == expected
    # A table made by ``take`` keeps every name of its parent table.
    every_other = np.arange(0, len(conversions), 2)
    assert validate(conv.table.take(every_other), products, clk.table) == reference_validate(
        conv.table.records()[::2], products, clicks
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
    assert validate(*tables([rec], [], [])).warnings == ["1 records: sale without income"]


# ---------------------------------------------------------------------------
# validate's key join: the (n, 3) row-unique join it replaced, kept verbatim
# as the reference


def reference_has_click(conversions, clicks):
    """Whether each conversion has a click of the same MFI, client and
    click time."""
    keys = np.concatenate([
        np.stack([
            recoded(conversions, clicks, "mfi_id"),
            recoded(conversions, clicks, "client_id"),
            conversions.columns["click_time"].view(np.int64),
        ], axis=1),
        np.stack([
            clicks.columns["mfi_id"], clicks.columns["client_id"],
            clicks.columns["click_time"].view(np.int64),
        ], axis=1),
    ])
    _, key = np.unique(keys, axis=0, return_inverse=True)
    key = key.reshape(-1)
    return np.isin(key[: len(conversions)], key[len(conversions):])


# Conversion keys draw on MFIs and clients the clicks may lack ("m9", "c9"),
# and click keys on some the conversions lack; the small alphabets repeat keys.
CONVERSION_KEYS = st.tuples(
    st.sampled_from(["m0", "m1", "m2", "m9"]),
    st.sampled_from(["c0", "c1", "c2", "c9"]),
    st.sampled_from([0, 1, 60]),
)
CLICK_KEYS = st.tuples(
    st.sampled_from(["m0", "m1", "m3"]), st.sampled_from(["c0", "c1", "c3"]), st.sampled_from([0, 1])
)


@settings(max_examples=200)
@given(data=st.data())
def test_the_key_join_matches_the_row_unique_reference(data):
    conv_keys = data.draw(st.lists(CONVERSION_KEYS, min_size=1, max_size=12))
    click_keys = data.draw(st.lists(CLICK_KEYS, min_size=1, max_size=12))
    click_keys += data.draw(st.lists(st.sampled_from(conv_keys), max_size=6))
    click_keys = data.draw(st.permutations(click_keys))
    conversions = conversion_table([
        ConversionRecord(mfi_id=mfi, loan_type=LoanType.STANDARD, client_id=client,
                         click_time=LOG_T0 + timedelta(seconds=s), status=Status.SALE)
        for mfi, client, s in conv_keys
    ])
    clicks = click_table([
        ClickRecord(mfi_id=mfi, click_time=LOG_T0 + timedelta(seconds=s), client_id=client,
                    loan_type=LoanType.STANDARD)
        for mfi, client, s in click_keys
    ])
    got = _has_click(conversions, clicks)
    assert got.tolist() == reference_has_click(conversions, clicks).tolist()
    keys = [
        (r.mfi_id, r.client_id, int((r.click_time - LOG_T0).total_seconds()))
        for r in conversions.records()
    ]
    assert got.tolist() == [key in set(click_keys) for key in keys]


def test_the_key_join_tells_absent_values_apart():
    # A client the clicks lack (-1) must not read as the pair of the MFI
    # before it and the clicks' last client.
    conversions = conversion_table([
        ConversionRecord(mfi_id="m1", loan_type=LoanType.STANDARD, client_id="c9",
                         click_time=LOG_T0, status=Status.SALE),
    ])
    clicks = click_table([
        ClickRecord(mfi_id=mfi, click_time=LOG_T0, client_id=client, loan_type=LoanType.STANDARD)
        for mfi, client in (("m0", "c0"), ("m1", "c1"), ("m0", "c1"))
    ])
    assert _has_click(conversions, clicks).tolist() == [False]


# ---------------------------------------------------------------------------
# the column reader, against the csv path

# Per dataset, a header and the cells each of its columns may draw: bad
# timestamps, loan types and ids, ids that only a rejected row may carry
# ("ghost"), padded and non-ASCII text, a byte-order mark past the header
# included.
CHUNK_CELLS = {
    "conversions": {
        "mfi_id": ["18", "20", "", " ", "ghost", "Ж7", "\ufeff18", " 20 ", "\u00a018"],
        "loan_type": ["standard", "long-term", "usual", "mortgage", "", " Usual"],
        "click_time": ["2021-03-01 10:00:00", "2021-03-01 10:00:01", "2021-13-01 10:00:00",
                       "", "not a time", "2021-03-01 10:00:00Z", " 2021-03-01 10:00:00",
                       "2021-03-01 10:00:00+03:00", "2021-02-29 10:00:00"],
        "status": ["sale", "rejected", "pending", "одобрен", ""],
        "client_id": ["c1", "c2", "", "клиент", "ghost-client", " c2"],
        "conversion_time": ["2021-03-01 10:05:00", "", "2021-02-30 10:00:00"],
        # Cells wider than 8 bytes, some alike in their first 8.
        "os": ["iOS", "Android", "", "Линукс", "Windows Phone 10", "Windows Phone 8"],
        "income": ["10.5", "", "nan", "-0.0", "0.0", "x", "1e400", " 7"],
    },
    "clicks": {
        "mfi_id": ["18", "20", "", "ghost"],
        "click_time": ["2021-03-01 10:00:00", "2021-03-01 10:00:01", "bad", ""],
        "client_id": ["c1", "c2", "", "ghost-client", "ü"],
        "loan_type": ["standard", "interest-free", "mortgage"],
        "page_rank": ["1", "2.5", "", "-3"],
        "income": ["3.0", "", "inf"],
    },
    "products": {
        "mfi_id": ["18", "20", "", " ", "Ж7"],
        # Repeats, one of them padded, and empty ids; a repeat on a row
        # rejected at or before its card id is no duplicate.
        "card_id": ["card-1", "card-2", "card-3", "card-4", "card-5", "card-6", " card-1",
                    "", " ", "карта-7", "card-1 long name"],
        "loan_type": ["standard", "interest-free", "long_term", "mortgage", ""],
        # Checked after the card id: a rejected row may repeat a card id.
        "avg_user_rating": ["4.5", "", "1", "5", "0.5", "7", "nan", "inf", "x", " 3"],
        "region": ["Москва", "", " Kazan", "Saint Petersburg"],
        "n_reviews": ["3", "", "-1", "2.5", "1e400"],
        "unreliability": ["да", "нет", "true", "", "x"],
        "loan_amount_min": ["1000", "", "-0.0", "1e400"],
        "interest_max": ["0.5", "", "nan"],
    },
}
CHUNK_DATASETS = {"conversions": _CONVERSIONS, "clicks": _CLICKS, "products": _PRODUCTS}
CHUNK_PARSERS = {
    "conversions": parse_conversions, "clicks": parse_clicks, "products": parse_products,
}
# A column no dataset reads.
EXTRA_CELLS = ["x", "", "ü", "1"]
# Cells that only a text that is not plain draws, in the columns named
# below, each written quoted: a NUL, next to the same cell without it, and
# commas, quotes and line breaks.
QUOTED_CELLS = ["c", "c\0", "x\0y", "a,b", "two\nlines", 'say "hi"', "\r", ",\n"]
QUOTED_COLUMNS = {
    "conversions": ("client_id", "os"), "clicks": ("client_id",), "products": ("card_id", "region"),
}


@st.composite
def chunk_texts(draw, name, plain=False):
    """A CSV text of dataset ``name``, as its part up to the end of the
    header row and the rest.  The header may lack optional columns and have
    an extra one.  A byte-order mark and comment rows may come first; then
    data rows of drawn cells, some short, with comment and blank rows
    anywhere; every row ends in LF, CRLF or a bare CR, the last maybe in
    none.  A text that is not ``plain`` may also have its columns in any
    order, rows longer than the header, quoted cells, some holding a NUL,
    a comma, a quote or a line break.  A ``plain`` text has none of these,
    and no comment, short row or bare CR."""
    mandatory = CHUNK_DATASETS[name].mandatory
    cells = {
        column: choices for column, choices in CHUNK_CELLS[name].items()
        if column in mandatory or draw(st.booleans())
    }
    if not plain:
        for column in QUOTED_COLUMNS[name]:
            cells[column] = cells.get(column, CHUNK_CELLS[name][column]) + QUOTED_CELLS
    columns = list(cells) if plain else list(draw(st.permutations(list(cells))))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), "extra")
        cells["extra"] = EXTRA_CELLS

    def written(cell: str) -> str:
        if plain or not (set(cell) & set(',"\n\r\0') or draw(st.integers(0, 9)) == 0):
            return cell
        return '"' + cell.replace('"', '""') + '"'

    line_ends = st.sampled_from(["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"])
    prefix = draw(st.sampled_from(["", "\ufeff"]))
    for comment in [] if plain else draw(st.lists(st.sampled_from(["# exported", "#, x"]), max_size=2)):
        prefix += comment + draw(line_ends)
    prefix += ",".join(columns) + draw(line_ends)
    rows = []
    kinds = ["row"] if plain else ["row", "row", "row", "short", "long", "comment", "blank"]
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            row = draw(st.sampled_from(["# note", " #, 18,x"]))
        elif kind == "blank":
            row = draw(st.sampled_from(["", ",,", " "]))
        else:
            row = [draw(st.sampled_from(cells[column])) for column in columns]
            if kind == "short":
                row = row[: draw(st.integers(0, len(row) - 1))]
            elif kind == "long":
                row += draw(st.lists(st.sampled_from(EXTRA_CELLS), min_size=1, max_size=3))
            row = ",".join(map(written, row))
        rows.append(row + draw(line_ends))
    if draw(st.booleans()):  # no line end after the last row
        rows[-1] = rows[-1].rstrip("\r\n")
    return prefix, "".join(rows)


def assert_same_table(got: ParseResult | str, expected: ParseResult | str) -> None:
    """The same row errors, names and column bytes (NaT included), or the
    same DataError."""
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    assert got.errors == expected.errors
    assert got.table.names == expected.table.names
    assert got.table.columns.keys() == expected.table.columns.keys()
    for name, column in expected.table.columns.items():
        assert got.table.columns[name].dtype == column.dtype
        assert got.table.columns[name].tobytes() == column.tobytes(), name


def stream(raw: str | bytes):
    return io.BytesIO(raw) if isinstance(raw, bytes) else io.StringIO(raw)


def unmarked(raw: str | bytes) -> str | bytes:
    """``raw`` past a leading byte-order mark."""
    return raw.removeprefix("\ufeff" if isinstance(raw, str) else codecs.BOM_UTF8)


def csv_path(raw: str | bytes, dataset) -> ParseResult | str:
    """The csv module's reading of ``raw``, or its DataError; bytes that are
    not UTF-8 are one, naming the line of the fault."""
    raw = unmarked(raw)
    if not isinstance(raw, str):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            return f"{dataset.name}: not UTF-8 text: {exc} (line {line})"
    rows = csv.reader(io.StringIO(raw, newline=""))
    return _parsed_or_error(lambda rows: _parse_whole(rows, DEFAULT_SCHEMA, dataset), rows)


def column_reader(raw: str | bytes, dataset) -> ParseResult | str | None:
    """The column reader's reading of ``raw``, UTF-8 bytes or a text, or its
    DataError; None where ``raw`` is not plain."""
    if isinstance(raw, str):
        raw = raw.encode("utf-8", "surrogatepass")
    raw = unmarked(raw)
    if not raw or not _plain(raw):
        return None
    buf = _plain_bytes(raw)
    return _parsed_or_error(lambda buf: _parse_columns(buf, DEFAULT_SCHEMA, dataset), buf)


@settings(max_examples=150)
@given(data=st.data(), name=st.sampled_from(sorted(CHUNK_CELLS)), as_bytes=st.booleans())
def test_the_column_reader_matches_the_csv_path(data, name, as_bytes):
    dataset = CHUNK_DATASETS[name]
    prefix, body = data.draw(chunk_texts(name, plain=True))
    raw = (prefix + body).encode() if as_bytes else prefix + body
    expected = csv_path(raw, dataset)
    got = column_reader(raw, dataset)
    # A row of blank cells alone is not plain: the csv path skips it.
    blank = any(not row.replace(",", "").strip() for row in body.splitlines())
    assert (got is None) == blank
    if got is not None:
        assert_same_table(got, expected)
    # The row-at-a-time reference shares no code with either reader.
    reference = _parsed_or_error(
        lambda source: reference_parse_rows(source, None, dataset), io.StringIO(prefix + body)
    )
    if isinstance(reference, str):
        assert expected == reference
    else:
        assert expected.errors == reference.errors
        assert repr(expected.records) == repr(table_order(reference.records, dataset))


@settings(max_examples=100)
@given(data=st.data(), name=st.sampled_from(sorted(CHUNK_CELLS)), as_bytes=st.booleans())
def test_an_input_that_is_not_plain_reads_as_the_csv_path_reads_it(data, name, as_bytes):
    # The row-at-a-time reference, with a csv reader of its own, is the
    # csv path to match.
    prefix, body = data.draw(chunk_texts(name))
    assert_same_parse(CHUNK_PARSERS[name], CHUNK_DATASETS[name], prefix + body, as_bytes)


@pytest.mark.parametrize("as_bytes", [False, True])
def test_a_nul_in_a_cell_and_a_cell_past_the_row_end_are_their_own_values(as_bytes):
    header = "mfi_id,click_time,loan_type,status,client_id,os\n"
    stamp = "2021-03-01 10:00:00"
    text = header + "".join(f"{row}\n" for row in [
        f'18,{stamp},standard,sale,c,"a\0"',
        f'18,{stamp},standard,sale,"c\0",a',
        f'18,{stamp},standard,sale,"x\0y"',
        f"18,{stamp},standard,sale,x,",
        f"18,{stamp}",
        f"18,{stamp},",
        "18",
        "18,",
    ])
    got = parse_conversions(stream(text.encode() if as_bytes else text))
    # Equal click times: the rows sort by their cells, client_id first.
    assert got.table.names["client_id"] == ("c", "c\0", "x", "x\0y")
    assert got.table.names["os"] == ("a\0", "a", None)
    assert got.errors == [
        RowError(5, "loan_type", "unmapped loan type None"),
        RowError(6, "loan_type", "unmapped loan type ''"),
        RowError(7, "click_time", "malformed timestamp None"),
        RowError(8, "click_time", "malformed timestamp ''"),
    ]
    assert_same_parse(parse_conversions, _CONVERSIONS, text, as_bytes)


def test_the_column_reader_reads_the_fixture_as_the_csv_path_does(fixture_triple):
    for which, (_, serialize) in enumerate(PARSERS):
        text = serialize(fixture_triple[which])
        crlf = text.replace("\n", "\r\n")
        for raw in (text, text.encode(), crlf, crlf.encode()):
            got = column_reader(raw, DATASETS[which])
            assert got is not None
            assert_same_table(got, csv_path(text, DATASETS[which]))


def test_the_column_reader_numbers_each_distinct_cell_once():
    # Cells alike in their first 8 bytes, shuffled so that a sort of the
    # first words alone would interleave them.
    cells = ["Windows Phone 10", "Windows Phone 8", "", "iOS", "Windows Phone 10 Mobile"] * 40
    random.Random(0).shuffle(cells)
    buf = _plain_bytes(("os\n" + "\n".join(cells)).encode())
    ends = mfirank.data._separators(buf[: len(buf) - 8]).reshape(-1, 1)
    starts, ends = mfirank.data._column(ends, 0)
    first, place = mfirank.data._distinct(buf, starts, ends)
    distinct = [cells[j] for j in first.tolist()]
    assert sorted(distinct) == sorted(set(cells))
    assert first.tolist() == [cells.index(cell) for cell in distinct]
    assert [distinct[k] for k in place.tolist()] == cells


def test_drawn_chunk_texts_reject_rows_by_ghost_ids_only():
    # Some drawn text has a value that only rejected rows carry, so the
    # names must be renumbered first-seen.
    def ghost_only(texts):
        prefix, body = texts
        result = csv_path(prefix + body, _CONVERSIONS)
        rows = body.replace("\r", "\n").split("\n")
        return any(row.startswith("ghost,") for row in rows) and (
            "ghost" not in result.table.names["mfi_id"]
        )

    find(chunk_texts("conversions", plain=True), ghost_only,
         settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


def test_quoted_text_and_unique_columns_are_read_in_one_chunk(fixture_triple):
    text = serialize_conversions(fixture_triple[0])
    assert column_reader(text, _CONVERSIONS) is not None
    # A quote may hide a newline or a comma inside a cell: the csv path reads it.
    quoted = text.replace(",Moscow,", ',"Mos\ncow",', 1)
    assert quoted != text
    assert column_reader(quoted, _CONVERSIONS) is None
    # Repeated card ids are found in row order by both readers.
    products = serialize_products(fixture_triple[1])
    assert_same_table(column_reader(products, _PRODUCTS), csv_path(products, _PRODUCTS))
    repeated = products + products.splitlines(keepends=True)[2]
    message = column_reader(repeated, _PRODUCTS)
    assert message == csv_path(repeated, _PRODUCTS)
    assert re.fullmatch(r"products: duplicate card_id '.*' \(rows 2 and \d+\)", message)


PLAIN_CONVERSIONS = (
    CONV_HEADER + "\n18,standard,2021-03-01 10:00:00,sale,c1\n"
    "20,usual,2021-03-02 11:00:00,rejected,c2\n"
).encode()
PLAIN_ROW = b"18,standard,2021-03-01 10:00:00,sale,"


@pytest.mark.parametrize("raw", [
    pytest.param(PLAIN_CONVERSIONS.replace(b"c2", b'"c2"'), id="quote"),
    pytest.param(PLAIN_CONVERSIONS + b"21,standard\n", id="ragged row"),
    pytest.param(PLAIN_CONVERSIONS + b" # note,a,b,c,d\n", id="comment row"),
    pytest.param(b"#, x\n" + PLAIN_CONVERSIONS, id="comment before the header"),
    pytest.param(PLAIN_CONVERSIONS + b",, ,,\n", id="blank row"),
    pytest.param(PLAIN_CONVERSIONS + "\u3000,,,,\n".encode(), id="blank row of a wide space"),
    pytest.param(PLAIN_CONVERSIONS.replace(b"c1", b"c\0 1"), id="NUL"),
    pytest.param(PLAIN_CONVERSIONS.replace(b"c1\n", b"c1\r"), id="lone CR line end"),
    pytest.param(PLAIN_CONVERSIONS.replace(b"c1", b"c\r1"), id="lone CR in a cell"),
    pytest.param(PLAIN_CONVERSIONS + PLAIN_ROW + b"c" * (csv.field_size_limit() + 1) + b"\n",
                 id="cell over the field size limit"),
])
def test_an_input_that_is_not_plain_goes_to_the_csv_path(raw, tmp_path):
    assert column_reader(raw, _CONVERSIONS) is None
    path = tmp_path / "conversions.csv"
    path.write_bytes(raw)
    expected = csv_path(raw, _CONVERSIONS)
    for source in (io.BytesIO(raw), str(path)):
        assert_same_table(_parsed_or_error(parse_conversions, source), expected)


@pytest.mark.parametrize("raw, line", [
    pytest.param(PLAIN_CONVERSIONS + PLAIN_ROW + b"\xff\n", 4, id="invalid UTF-8"),
    pytest.param(PLAIN_CONVERSIONS.replace("c1".encode(), "\ud800".encode("utf-8", "surrogatepass")),
                 2, id="encoded surrogate"),
])
def test_bytes_that_are_not_utf8_are_refused_at_the_door(raw, line, tmp_path):
    expected = csv_path(raw, _CONVERSIONS)
    assert expected.startswith("conversions: not UTF-8 text: ")
    assert expected.endswith(f" (line {line})")
    path = tmp_path / "conversions.csv"
    path.write_bytes(raw)
    for source in (io.BytesIO(raw), str(path)):
        assert _parsed_or_error(parse_conversions, source) == expected


def test_a_lone_surrogate_in_a_text_stream_takes_the_plain_splitter():
    text = PLAIN_CONVERSIONS.decode().replace("c1", "\ud800")
    expected = csv_path(text, _CONVERSIONS)
    assert column_reader(text, _CONVERSIONS) is not None
    with mock.patch.object(mfirank.data, "_parse_whole", side_effect=AssertionError("csv path")):
        got = parse_conversions(io.StringIO(text))
    assert_same_table(got, expected)
    assert got.table.names["client_id"] == ("\ud800", "c2")


def test_a_text_stream_is_held_as_its_bytes():
    # Every cell quoted, so the csv module splits the input.  A text costs
    # its encoded copy over the bytes; a StringIO of it would cost 4 bytes a
    # character.
    rows = csv.reader(io.StringIO(serialize_conversions(generate_fixture(0, n_clients=5000)[0])))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
    text = buf.getvalue()
    assert len(text) >= 1 << 20
    peaks = []
    for source in (io.StringIO(text), io.BytesIO(text.encode())):
        tracemalloc.start()
        try:
            parse_conversions(source)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] - peaks[1] < 2 * len(text), (peaks, len(text))


def test_a_parse_starts_no_process(tmp_path, monkeypatch):
    path = tmp_path / "conversions.csv"
    path.write_text(serialize_conversions(generate_fixture(0, n_clients=5000)[0]))
    assert path.stat().st_size >= 1 << 20
    expected = csv_path(path.read_bytes(), _CONVERSIONS)

    def no_fork():
        raise AssertionError("a parse forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert_same_table(parse_conversions(str(path)), expected)
    with open(path, "rb") as fh:
        assert_same_table(parse_conversions(fh), expected)


# ---------------------------------------------------------------------------
# the piece reader that reading each input whole replaced, kept as the
# reference

# The bytes of an input are read this many at a time, and then to the end
# of the line: each piece is whole lines, decodable on its own.
PIECE_BYTES = 1 << 16


def _pieces(stream) -> Iterator[bytes | str]:
    """The input ``stream``, read once, past a leading byte-order mark
    (which spreadsheet exports put before the header): a text stream's
    text whole, the bytes of a file or binary stream as pieces of whole
    lines, each read when it is asked for."""
    piece = stream.read(PIECE_BYTES)
    text = isinstance(piece, str)
    piece += stream.read() if text else stream.readline()
    piece = piece.removeprefix("\ufeff" if text else codecs.BOM_UTF8)
    while piece:
        yield piece
        piece = "" if text else stream.read(PIECE_BYTES) + stream.readline()


def _lines(head: list, rest: Iterator) -> Iterator[str]:
    """The lines of the input pieces in ``head`` and then ``rest`` (see
    :func:`_pieces`), each piece decoded when its lines are reached and
    dropped once read, so the first decode or framing fault read wins.
    newline="" leaves line breaks to the csv module, as its docs ask: a
    bare CR ends a row instead of failing the whole file."""
    head.reverse()
    while head or (head := list(islice(rest, 1))):
        piece = head.pop()
        yield from io.StringIO(piece if isinstance(piece, str) else piece.decode(), newline="")


def _piece_bytes(pieces: list) -> np.ndarray:
    """The plain input ``pieces`` as UTF-8 bytes with LF line ends and a
    last LF, then eight NULs; each piece is dropped once copied."""
    if isinstance(pieces[0], str):  # a text stream's one piece
        pieces[0] = pieces[0].encode("utf-8")
    buf = np.zeros(sum(map(len, pieces)) + 9, np.uint8)
    end = 0
    pieces.reverse()
    while pieces:
        piece = pieces.pop()
        if b"\r" in piece:
            piece = piece.replace(b"\r\n", b"\n")
        buf[end : end + len(piece)] = np.frombuffer(piece, np.uint8)
        end += len(piece)
    end += int(buf[end - 1] != mfirank.data._NEWLINE)
    buf[end - 1] = mfirank.data._NEWLINE
    return buf[: end + 8]


def _piece_plain(raw: bytes | str) -> bool:
    """Whether the input ``raw`` has no ``"``, no NUL, no CR outside a CRLF
    and no fault of UTF-8: an undecodable byte comes back from
    "surrogateescape" as a lone surrogate, three bytes long once encoded."""
    if isinstance(raw, str):
        raw = raw.encode("utf-8", "surrogatepass")
    return (
        b'"' not in raw
        and b"\0" not in raw
        and (b"\r" not in raw or raw.count(b"\r") == raw.count(b"\r\n"))
        and (raw.isascii() or len(raw) == len(
            raw.decode("utf-8", "surrogateescape").encode("utf-8", "surrogatepass")
        ))
    )


def piece_reader(stream, dataset) -> ParseResult:
    """Read one dataset from an open stream, a piece at a time.  The pieces
    are kept while each is plain, and a plain input is split column-wise;
    from the first piece that is not, the csv module splits the input, and
    the first decode or framing fault read wins."""
    try:
        return _read_pieces(stream, dataset)
    except UnicodeDecodeError as exc:
        raise DataError(f"{dataset.name}: not UTF-8 text: {exc}") from None


def _read_pieces(stream, dataset) -> ParseResult:
    pieces = _pieces(stream)
    head = []
    for piece in pieces:
        head.append(piece)
        if not _piece_plain(piece):
            break
    else:
        if head:
            buf = _piece_bytes(head)
            parsed = _parse_columns(buf, DEFAULT_SCHEMA, dataset)
            if parsed is not None:
                return parsed
            raw = io.BytesIO(buf[: len(buf) - 8].tobytes())
            rows = io.TextIOWrapper(raw, "utf-8", newline="")
            return _parse_whole(csv.reader(rows), DEFAULT_SCHEMA, dataset)
    return _parse_whole(csv.reader(_lines(head, pieces)), DEFAULT_SCHEMA, dataset)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(CHUNK_CELLS)),
    plain=st.booleans(),
    as_bytes=st.booleans(),
    long=st.booleans(),
    tail=st.sampled_from(["", "fault", "huge cell"]),
)
def test_an_input_read_whole_reads_as_the_piece_reader_reads_it(data, name, plain, as_bytes, long, tail):
    # A fault of UTF-8 is the same data error, but it names its line, and its
    # byte position counts from the start of the input, not from the piece.
    prefix, body = data.draw(chunk_texts(name, plain=plain))
    if long:  # more rows than one piece holds
        rows = body if body.endswith(("\n", "\r")) else body + "\n"
        body = rows * (PIECE_BYTES // len(rows) + 1) + body
    if tail == "huge cell":
        width = prefix.splitlines()[-1].count(",") + 1
        body += "\n" + ",".join(["c" * (csv.field_size_limit() + 1)] + ["x"] * (width - 1))
    raw = prefix + body
    if as_bytes:
        raw = raw.encode() + ("\nодобрен".encode("cp1251") if tail == "fault" else b"")
    elif tail == "fault":
        raw += "\nод\ud800"  # no fault of UTF-8 in a text: a lone surrogate

    def normalized(got):
        if not isinstance(got, str):
            return got
        return re.sub(r"position \d+", "position N", re.sub(r" \(line \d+\)$", "", got))

    expected = _parsed_or_error(lambda source: piece_reader(source, CHUNK_DATASETS[name]), stream(raw))
    got = _parsed_or_error(CHUNK_PARSERS[name], stream(raw))
    assert_same_table(normalized(got), normalized(expected))


# ---------------------------------------------------------------------------
# one row order


def reference_first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``np.unique`` form of :func:`first_seen` that the dense count
    replaced, kept verbatim as the reference."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    place = np.empty(len(distinct), np.int32)
    place[by_first] = np.arange(len(distinct), dtype=np.int32)
    return distinct[by_first], place[inverse]


@given(st.lists(st.integers(0, 40)), st.sampled_from([np.int32, np.int64]))
def test_first_seen_matches_the_unique_reference(codes, dtype):
    codes = np.array(codes, dtype)
    for got, want in zip(first_seen(codes), reference_first_seen(codes)):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


# Few click times, so that rows tie on them; cells that only a bit pattern
# tells apart (0.0 and -0.0) or that are absent (NaN ranks, None text).
TWIN_TIMES = (LOG_T0, LOG_T0 + timedelta(seconds=1), LOG_T0 + timedelta(days=8))
TWIN_INCOMES = (None, 0.0, -0.0, 2.5)


@st.composite
def twin_rows(draw, which: int) -> list:
    """Records of one dataset in which rows tie: final twins of another
    status at the same click time, twins of 0.0 and -0.0, and repeats of
    whole rows but cards."""
    records = []
    for i in range(draw(st.integers(0, 10))):
        mfi, loan_type = draw(st.sampled_from(["m1", "m2", "m10"])), draw(st.sampled_from(LoanType))
        if which == 1:
            records.append(ProductRecord(
                mfi, f"card{i}", loan_type, region=draw(st.sampled_from([None, "north", "south"])),
                avg_user_rating=draw(st.sampled_from([None, 4.0])),
                n_reviews=draw(st.integers(0, 2)), unreliability=draw(st.booleans()),
                loan_amount_min=draw(st.sampled_from(TWIN_INCOMES)),
            ))
            continue
        common = dict(
            mfi_id=mfi, loan_type=loan_type, click_time=draw(st.sampled_from(TWIN_TIMES)),
            client_id=draw(st.sampled_from(["c1", "c2"])),
            page_rank=draw(st.sampled_from([None, 1, 2])),
            income=draw(st.sampled_from(TWIN_INCOMES)),
        )
        if which == 2:
            records.append(ClickRecord(**common, card_id=draw(st.sampled_from([None, "k1"]))))
            continue
        record = ConversionRecord(
            **common, status=draw(st.sampled_from(Status)),
            conversion_time=draw(st.sampled_from([None, *TWIN_TIMES])),
            os=draw(st.sampled_from([None, "Android", "iOS"])),
        )
        records.append(record)
        if record.status is not Status.PENDING and draw(st.booleans()):
            flipped = Status.REJECTED if record.status is Status.SALE else Status.SALE
            records.append(replace(record, status=flipped))
    for i in draw(st.sets(st.integers(0, len(records) - 1), max_size=3)) if records else ():
        # a twin whose float cell is the zero of the other sign
        record, cell = records[i], "loan_amount_min" if which == 1 else "income"
        if getattr(record, cell) == 0.0:
            twin = replace(record, **{cell: -getattr(record, cell)})
            records.append(replace(twin, card_id=twin.card_id + "-") if which == 1 else twin)
    if records and which != 1:  # a card may not repeat
        records += draw(st.lists(st.sampled_from(records), max_size=3))
    return records


def ghost_row(which: int) -> ConversionRecord | ProductRecord | ClickRecord:
    """A record whose row the parser rejects, with names no other row has."""
    if which == 1:
        return ProductRecord("ghost", "ghost-card", LoanType.STANDARD, avg_user_rating=9.0)
    if which == 2:
        return ClickRecord("ghost", datetime(1, 1, 1), "ghost", LoanType.STANDARD)
    return ConversionRecord("ghost", LoanType.STANDARD, "ghost", datetime(1, 1, 1), Status.SALE)


def assert_same_columns(got: Table, want: Table) -> None:
    assert got.names == want.names
    assert got.columns.keys() == want.columns.keys()
    for name, column in want.columns.items():
        assert got.columns[name].dtype == column.dtype
        assert got.columns[name].tobytes() == column.tobytes(), name


@settings(max_examples=150)
@given(data=st.data(), which=st.integers(0, 2))
def test_a_permutation_of_the_rows_gives_the_same_table(data, which):
    parse, serialize = PARSERS[which]
    records = data.draw(twin_rows(which))
    permuted = data.draw(st.permutations(records))
    table = Table.from_records(records, DATASETS[which])
    assert_same_columns(Table.from_records(permuted, DATASETS[which]), table)
    # The year-1 click time reads as a malformed timestamp: the ghost row is
    # rejected, and its names go with it.
    header, *lines = serialize([ghost_row(which), *records]).replace("0001-", "01-").splitlines()
    for rows in (lines, data.draw(st.permutations(lines))):
        parsed = parse(io.StringIO("\n".join([header, *rows]) + "\n"))
        assert len(parsed.errors) == 1
        assert_same_columns(parsed.table, table)
