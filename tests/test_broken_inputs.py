"""Drawn broken inputs through every dataset subcommand.

A bad cell must become a row error, a config error or a data error,
never a traceback.  Each example breaks the CSVs of a 6-MFI fixture (a
cell replaced, two rows' cells swapped, a file cut short) and runs
``validate``, ``features``, ``rank``, ``evaluate`` and ``abtest`` on
them through ``main()`` in process: each must return 0, 1 or 2 with no
``Traceback`` on stderr, and on 0 its artifacts must parse.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfirank.cli import main
from mfirank.data import serialize_clicks, serialize_conversions, serialize_products
from mfirank.fixtures import generate_fixture

YEAR_1 = "0001-01-01 00:00:00"
YEAR_9999 = "9999-12-31 23:59:59"
# Values a cell of any column may become.  Years 1 and 9999 are whole
# stamps, as are 29 February of a non-leap year and month 13.
BAD_CELLS = (
    "", "nan", "inf", "1e400", "-0.0", "12345678901234567890", "-98765432109876543210",
    "2023-02-29 10:00:00", "2023-13-01 10:00:00", YEAR_1, YEAR_9999, "1,5", "#", "\t",
)


def _fixture_rows() -> dict[str, list[list[str]]]:
    """The header and data rows of each input file: the three datasets of a
    6-MFI fixture, the conversions split by client into two groups."""
    conversions, products, clicks = generate_fixture(0, n_mfis=6, n_clients=150)
    texts = {
        "conversions": serialize_conversions(conversions),
        "products": serialize_products(products),
        "clicks": serialize_clicks(clicks),
    }
    rows = {name: list(csv.reader(io.StringIO(text))) for name, text in texts.items()}
    header, *data = rows["conversions"]
    client = header.index("client_id")
    in_a = set(sorted({row[client] for row in data})[::2])
    rows["group_a"] = [header, *(row for row in data if row[client] in in_a)]
    rows["group_b"] = [header, *(row for row in data if row[client] not in in_a)]
    return rows


ROWS = _fixture_rows()


@st.composite
def mutations(draw):
    """One breakage: ``("cell", file, row, column, value)``, ``("swap",
    file, row, other row, column)`` or ``("truncate", file, per mille)``.
    Rows count from the first data row, modulo the file's rows."""
    name = draw(st.sampled_from(sorted(ROWS)))
    column = draw(st.sampled_from(ROWS[name][0]))
    row = st.integers(0, len(ROWS[name]) - 2)
    kind = draw(st.sampled_from(["cell", "cell", "cell", "swap", "truncate"]))
    if kind == "cell":
        return ("cell", name, draw(row), column, draw(st.sampled_from(BAD_CELLS)))
    if kind == "swap":
        return ("swap", name, draw(row), draw(row), column)
    return ("truncate", name, draw(st.integers(0, 999)))


def broken_files(directory: Path, breakages) -> None:
    """Write the fixture's files into ``directory`` with ``breakages`` applied."""
    rows = {name: [list(row) for row in table] for name, table in ROWS.items()}
    cut = {}
    for kind, name, *args in breakages:
        header, data = rows[name][0], rows[name][1:]
        if kind == "cell":
            row, column, value = args
            data[row % len(data)][header.index(column)] = value
        elif kind == "swap":
            a, b, column = args
            i = header.index(column)
            a, b = data[a % len(data)], data[b % len(data)]
            a[i], b[i] = b[i], a[i]
        else:
            cut[name] = args[0]
    for name, table in rows.items():
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        text = buf.getvalue()
        if name in cut:
            text = text[: len(text) * cut[name] // 1000]
        (directory / f"{name}.csv").write_text(text, encoding="utf-8")


def _parses(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text)
    else:
        assert list(csv.reader(io.StringIO(text)))


@settings(max_examples=50, derandomize=True)
@given(breakages=st.lists(mutations(), min_size=1, max_size=3))
@example(breakages=[("cell", "conversions", -1, "click_time", YEAR_9999)])
@example(breakages=[("cell", "clicks", -1, "click_time", YEAR_9999)])
@example(breakages=[("cell", "conversions", -1, "click_time", YEAR_1)])
@example(breakages=[("cell", "clicks", -1, "click_time", YEAR_1)])
def test_broken_inputs_exit_cleanly_through_every_subcommand(breakages):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        broken_files(directory, breakages)
        dataset = ["--conversions", str(directory / "conversions.csv"),
                   "--products", str(directory / "products.csv"),
                   "--clicks", str(directory / "clicks.csv")]
        commands = {
            "validate": (["validate", *dataset], ["validation.json"]),
            "features": (["features", *dataset, "--breakdown-json", str(directory / "fairness.json")],
                         ["features.csv", "fairness.json"]),
            "rank": (["rank", *dataset, "--pi-csv", str(directory / "pi.csv")],
                     ["ranking.json", "pi.csv"]),
            "evaluate": (["evaluate", *dataset, "--daily-csv", str(directory / "daily.csv")],
                         ["evaluation.json", "daily.csv"]),
            "abtest": (["abtest", "--group-a", str(directory / "group_a.csv"),
                        "--group-b", str(directory / "group_b.csv"), "--os", "Android"],
                       ["abtest.json"]),
        }
        for command, (argv, artifacts) in commands.items():
            out = directory / artifacts[0]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", str(out)])
            assert code in (0, 1, 2), (command, code, stderr.getvalue())
            assert "Traceback" not in stderr.getvalue(), command
            if code == 0:
                for name in artifacts:
                    _parses(directory / name)
