"""Output checks behind the benchmark's pass/fail count.

Every artifact gets two checks:

* a digest of its result fields only, compared with ``golden.json`` when
  the seed was recorded there.  Envelope keys such as ``config_digest``
  and any block added later (diagnostics, for instance) are left out, so
  they may change while every result number stays locked.  Floats are
  hashed at ten significant digits.  That lowers the chance that a
  last-bit difference in a BLAS kernel between CPUs reads as a changed
  result, but does not rule it out: a value near a rounding boundary
  still changes the digest;
* invariants that hold for any seed: the replay accounts for every
  application, the stationary distribution sums to one, the ranking is a
  permutation of the ranked MFIs, and so on.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

# Result fields hashed per JSON artifact kind.
RESULT_FIELDS = {
    "evaluation": ("replay", "weeks", "weekly_totals", "daily"),
    "ranking": ("ranking", "stationary", "comparison_matrix"),
    "abtest": ("rates", "income", "association"),
    "breakdown": ("fairness",),
    "validation": (
        "n_mfis", "n_clients", "n_applications", "n_sales", "status_shares",
        "n_products", "n_product_mfis", "n_clicks", "n_invalid_timelines",
        "warnings", "row_errors",
    ),
}
CSV_KINDS = ("series", "features", "pi")
SERIES_HEADER = ["date", "income", "share_per_click", "algorithm"]
FEATURE_HEADER = ["mfi_id", "rating_norm", "lar_norm", "fairness", "service_p90_sec", "epc"]


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


def _csv_cell(cell: str):
    try:
        return _canonical(float(cell))
    except ValueError:
        return cell


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv_rows(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def read_artifact(path: Path, kind: str):
    """The artifact's content: a JSON payload, or CSV rows without comments."""
    text = path.read_text(encoding="utf-8")
    return _csv_rows(text) if kind in CSV_KINDS else json.loads(text)


def result_digest(content, kind: str) -> str:
    if kind in CSV_KINDS:
        return _sha256([[_csv_cell(c) for c in row] for row in content])
    return _sha256({f: _canonical(content.get(f)) for f in RESULT_FIELDS[kind]})


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


def invariant_problems(content, kind: str, inputs: dict) -> list[str]:
    """Seed-independent checks of one artifact; empty when it passes.

    ``inputs`` maps each input file to its ``rows`` and ``bytes``.
    """
    rows = {name: info["rows"] for name, info in inputs.items()}
    out: list[str] = []
    if kind == "evaluation":
        cov = content["replay"]["coverage"]
        accounted = (cov["processed"] + cov["skipped_no_rank"]
                     + cov["skipped_out_of_range"] + cov["skipped_no_week"])
        if accounted != rows["conversions.csv"]:
            out.append(f"replay accounts for {accounted} of "
                       f"{rows['conversions.csv']} applications")
        if sum(w["applications"] for w in content["weekly_totals"]) != cov["processed"]:
            out.append("weekly totals do not add up to the processed applications")
        if not content["weeks"] or not content["daily"]:
            out.append("empty weekly schedule or daily series")
    elif kind == "ranking":
        if sorted(content["ranking"]) != sorted(content["order"]):
            out.append("ranking is not a permutation of the ranked MFIs")
        pi = content["stationary"]
        if sorted(pi) != sorted(content["order"]):
            out.append("stationary keys differ from the ranked MFIs")
        if not _close(math.fsum(pi.values()), 1.0):
            out.append(f"stationary distribution sums to {math.fsum(pi.values())!r}")
        k = len(content["order"])
        if len(content["comparison_matrix"]) != k:
            out.append("comparison matrix is not square in the ranked MFIs")
    elif kind == "pi":
        body = content[1:]
        if content[0] != ["mfi_id", "pi", "rank"] or len(body) < 2:
            out.append("pi table lacks its header or rows")
        elif [int(r[2]) for r in body] != list(range(1, len(body) + 1)):
            out.append("pi ranks are not 1..n")
        elif not _close(math.fsum(float(r[1]) for r in body), 1.0):
            out.append("pi column does not sum to 1")
    elif kind == "features":
        if content[0] != FEATURE_HEADER or len(content) < 3:
            out.append("feature table lacks its header or rows")
        elif not all(math.isfinite(float(c)) for row in content[1:] for c in row[1:]):
            out.append("feature table holds non-finite values")
    elif kind == "series":
        body = content[1:]
        if content[0] != SERIES_HEADER or not body or len(body) % 2:
            out.append("series lacks its header or the paired rows")
    elif kind == "breakdown":
        if not content["fairness"]:
            out.append("fairness breakdown is empty")
    elif kind == "validation":
        for key, name in (("n_applications", "conversions.csv"),
                          ("n_products", "products.csv"), ("n_clicks", "clicks.csv")):
            if content[key] != rows[name]:
                out.append(f"validate counts {content[key]} {key}, input has {rows[name]}")
    elif kind == "abtest":
        for group in ("group_a", "group_b"):
            total = content["rates"][group]["total"]
            if total != rows[f"{group}.csv"]:
                out.append(f"abtest counts {total} applications in {group}, "
                           f"input has {rows[f'{group}.csv']}")
        if not 0.0 <= content["rates"]["fisher_p_a_greater"] <= 1.0:
            out.append("Fisher p-value outside [0, 1]")
        if content.get("income") is None or content.get("association") is None:
            out.append("abtest lacks the income or association block")
    return out


def check_artifact(path: Path, kind: str, inputs: dict, golden: str | None) -> list[str]:
    """Every problem found in one artifact; empty when it passes."""
    try:
        content = read_artifact(path, kind)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    try:
        problems = invariant_problems(content, kind, inputs)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        problems = [f"malformed ({type(exc).__name__}: {exc})"]
    if golden is not None and result_digest(content, kind) != golden:
        problems.append("result digest differs from the recorded one")
    return [f"{path.name}: {p}" for p in problems]
