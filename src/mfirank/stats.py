"""Statistics for comparing two experiment groups.

The experiment outcome is a conversion count per group (sales out of
applications) plus per-sale incomes.  Rates are compared with a
one-sided Fisher exact test (computed in log space, no scipy.stats
dependency), means with a one-sided Welch t test, and binary
association strength with the Yule colligation coefficient and a
confidence interval transformed from the log odds ratio.

scipy is imported only when a Welch test needs the Student t tail, so
importing this module (and the CLI, for any subcommand) stays cheap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist, fmean, variance
from typing import Sequence


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact_greater(
    group1: tuple[int, int], group2: tuple[int, int]
) -> float:
    """One-sided Fisher exact test that group1's rate exceeds group2's.

    Groups are (successes, total) pairs.  The p-value is the
    hypergeometric probability of group1 catching at least its observed
    number of successes with both margins fixed.  Tail terms are summed
    in log space so large counts stay numerically stable.
    """
    s1, n1 = group1
    s2, n2 = group2
    for s, n in ((s1, n1), (s2, n2)):
        if n <= 0:
            raise ValueError("group totals must be positive")
        if not 0 <= s <= n:
            raise ValueError("successes must lie in [0, total]")
    total = n1 + n2
    hits = s1 + s2
    log_denom = _log_choose(total, n1)
    lo = s1
    hi = min(n1, hits)
    logs = [
        _log_choose(hits, x) + _log_choose(total - hits, n1 - x) - log_denom
        for x in range(lo, hi + 1)
    ]
    if not logs:
        return 0.0
    peak = max(logs)
    p = math.exp(peak) * sum(math.exp(v - peak) for v in logs)
    return min(p, 1.0)


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p_value: float
    degenerate: bool = False


def _student_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom."""
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    from scipy.special import betainc

    x = df / (df + t * t)
    half_tail = 0.5 * float(betainc(df / 2.0, 0.5, x))
    return half_tail if t > 0 else 1.0 - half_tail


def welch_t_greater(sample1: Sequence[float], sample2: Sequence[float]) -> WelchResult:
    """One-sided Welch t test that sample1's mean exceeds sample2's.

    Uses the Welch-Satterthwaite degrees of freedom.  When both samples
    have zero variance the test statistic is undefined; equal means give
    p = 0.5 and unequal means an infinite statistic, both flagged
    ``degenerate``.
    """
    n1, n2 = len(sample1), len(sample2)
    if n1 < 2 or n2 < 2:
        raise ValueError("each sample needs at least two observations")
    m1, m2 = fmean(sample1), fmean(sample2)
    v1, v2 = variance(sample1), variance(sample2)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        if m1 == m2:
            return WelchResult(t=0.0, df=float(n1 + n2 - 2), p_value=0.5, degenerate=True)
        t = math.inf if m1 > m2 else -math.inf
        return WelchResult(t=t, df=float(n1 + n2 - 2), p_value=_student_sf(t, 1.0), degenerate=True)
    t = (m1 - m2) / math.sqrt(se2)
    df = se2 * se2 / (
        (v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1)
    )
    return WelchResult(t=t, df=df, p_value=_student_sf(t, df))


@dataclass(frozen=True)
class TwoByTwo:
    """Counts of a 2x2 contingency table.

    Cell n11 is (first trait present, second trait present), n10 is
    (present, absent), and so on.
    """

    n11: float
    n10: float
    n01: float
    n00: float

    def cells(self) -> tuple[float, float, float, float]:
        return (self.n11, self.n10, self.n01, self.n00)


def _corrected(table: TwoByTwo) -> TwoByTwo:
    cells = table.cells()
    if any(c < 0 for c in cells):
        raise ValueError("cell counts must be non-negative")
    if 0 in cells:
        warnings.warn("zero cell in 2x2 table; adding 0.5 to every cell", stacklevel=3)
        return TwoByTwo(*(c + 0.5 for c in cells))
    return table


def yule_colligation(table: TwoByTwo) -> float:
    """Yule's colligation coefficient Y in [-1, 1].

    Y is a margin-insensitive association measure for binary traits;
    zero cells get the 0.5 continuity correction with a warning.
    """
    t = _corrected(table)
    concordant = math.sqrt(t.n11 * t.n00)
    discordant = math.sqrt(t.n10 * t.n01)
    return (concordant - discordant) / (concordant + discordant)


def yule_ci(table: TwoByTwo, level: float = 0.995) -> tuple[float, float]:
    """Confidence interval for Yule's Y.

    Built on the normal approximation of the log odds ratio, then mapped
    through Y = (sqrt(OR) - 1) / (sqrt(OR) + 1), which is monotone in OR.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    t = _corrected(table)
    log_or = math.log(t.n11 * t.n00 / (t.n10 * t.n01))
    se = math.sqrt(1 / t.n11 + 1 / t.n10 + 1 / t.n01 + 1 / t.n00)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)

    def to_y(log_odds: float) -> float:
        root = math.exp(log_odds / 2.0)
        return (root - 1.0) / (root + 1.0)

    return (to_y(log_or - z * se), to_y(log_or + z * se))
