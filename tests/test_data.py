"""Parsing, validation, and timeline derivation."""

from __future__ import annotations

import csv
import gc
import io
import math
import re
from dataclasses import astuple
from datetime import datetime
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
    ConversionRecord,
    LoanType,
    ParseResult,
    RowError,
    SchemaConfig,
    Status,
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
    return ParseResult(records, errors)


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
