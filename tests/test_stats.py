"""Group-comparison statistics: Fisher, Welch, Yule."""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mfirank
from conftest import FISHER_CLICK_P, FISHER_CONVERSION_P
from mfirank.stats import (
    TwoByTwo,
    fisher_exact_greater,
    welch_t_greater,
    yule_ci,
    yule_colligation,
)


def enumerate_fisher(s1: int, n1: int, s2: int, n2: int) -> Fraction:
    """Exact one-sided tail by brute-force hypergeometric enumeration.

    Only feasible for small totals; used to validate the log-gamma
    implementation on every case it can reach.
    """
    successes = s1 + s2
    total = n1 + n2
    tail = Fraction(0)
    denom = math.comb(total, successes)
    for k in range(s1, min(n1, successes) + 1):
        if successes - k > n2:
            continue
        tail += Fraction(math.comb(n1, k) * math.comb(n2, successes - k), denom)
    return tail


def test_fisher_published_click_rates():
    assert fisher_exact_greater((126, 7368), (206, 14685)) == pytest.approx(
        FISHER_CLICK_P, rel=1e-12
    )
    assert fisher_exact_greater((126, 7368), (206, 14685)) == pytest.approx(0.045, abs=0.005)


def test_fisher_published_conversion_rates():
    p = fisher_exact_greater((126, 745), (206, 2030))
    assert p == pytest.approx(FISHER_CONVERSION_P, rel=1e-12)
    assert p < 1e-4


def test_fisher_two_coin_case():
    assert fisher_exact_greater((1, 1), (0, 1)) == pytest.approx(0.5)


def test_fisher_rejects_impossible_counts():
    with pytest.raises(ValueError):
        fisher_exact_greater((3, 2), (0, 5))
    with pytest.raises(ValueError):
        fisher_exact_greater((0, 0), (1, 2))


def test_fisher_matches_brute_force_enumeration():
    rng = random.Random(1729)
    for _ in range(300):
        n1 = rng.randint(1, 99)
        n2 = rng.randint(1, 199 - n1)
        s1 = rng.randint(0, n1)
        s2 = rng.randint(0, n2)
        exact = float(enumerate_fisher(s1, n1, s2, n2))
        approx = fisher_exact_greater((s1, n1), (s2, n2))
        assert approx == pytest.approx(exact, rel=1e-10, abs=1e-13), (s1, n1, s2, n2)


def test_fisher_agrees_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    cases = [((126, 7368), (206, 14685)), ((126, 745), (206, 2030)), ((5, 10), (3, 12))]
    for (s1, n1), (s2, n2) in cases:
        table = [[s1, n1 - s1], [s2, n2 - s2]]
        reference = scipy_stats.fisher_exact(table, alternative="greater")[1]
        assert fisher_exact_greater((s1, n1), (s2, n2)) == pytest.approx(reference, rel=1e-9)


@given(
    n1=st.integers(min_value=2, max_value=40),
    n2=st.integers(min_value=2, max_value=40),
    s2=st.integers(min_value=0, max_value=40),
    s1=st.integers(min_value=0, max_value=39),
)
def test_fisher_monotone_in_group1_successes(n1, n2, s2, s1):
    s2 = min(s2, n2)
    s1 = min(s1, n1 - 1)
    p_low = fisher_exact_greater((s1, n1), (s2, n2))
    p_high = fisher_exact_greater((s1 + 1, n1), (s2, n2))
    assert p_high <= p_low + 1e-12


# ---------------------------------------------------------------------------
# Welch


def test_welch_identical_samples_is_half():
    sample = [1.0, 2.0, 3.0, 4.0, 5.0]
    result = welch_t_greater(sample, sample)
    assert result.t == pytest.approx(0.0)
    assert result.p_value == pytest.approx(0.5)
    assert not result.degenerate


def test_welch_hand_computed_oracle():
    # x = {1..5}: mean 3, s²/n = 0.5; y is constant 2 so t = 1/sqrt(0.5)
    result = welch_t_greater([1, 2, 3, 4, 5], [2, 2, 2, 2, 2])
    assert result.t == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert result.df == pytest.approx(4.0)
    assert result.p_value == pytest.approx(0.11509982054024942, rel=1e-10)


def test_welch_agrees_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(42)
    for _ in range(25):
        x = [rng.gauss(1.0, 2.0) for _ in range(rng.randint(2, 30))]
        y = [rng.gauss(0.5, 1.0) for _ in range(rng.randint(2, 30))]
        if statistics.pvariance(x) == 0 and statistics.pvariance(y) == 0:
            continue
        ours = welch_t_greater(x, y)
        reference = scipy_stats.ttest_ind(x, y, equal_var=False, alternative="greater")
        assert ours.t == pytest.approx(reference.statistic, rel=1e-10)
        assert ours.p_value == pytest.approx(reference.pvalue, rel=1e-9)


def test_welch_degenerate_conventions():
    equal = welch_t_greater([3.0, 3.0], [3.0, 3.0])
    assert equal.degenerate and equal.p_value == 0.5
    above = welch_t_greater([4.0, 4.0], [3.0, 3.0])
    assert above.degenerate and above.p_value == 0.0 and above.t == math.inf
    below = welch_t_greater([2.0, 2.0], [3.0, 3.0])
    assert below.degenerate and below.p_value == 1.0


def test_welch_needs_two_observations_each():
    with pytest.raises(ValueError):
        welch_t_greater([1.0], [1.0, 2.0])


@given(
    x=st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30),
)
def test_welch_self_comparison_is_half(x):
    if statistics.pvariance(x) == 0:
        result = welch_t_greater(x, x)
        assert result.degenerate and result.p_value == 0.5
    else:
        result = welch_t_greater(x, x)
        assert result.p_value == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Yule


def test_yule_independence_is_zero():
    assert yule_colligation(TwoByTwo(10, 20, 30, 60)) == pytest.approx(0.0)


def test_yule_worked_example():
    assert yule_colligation(TwoByTwo(30, 10, 10, 30)) == pytest.approx(0.5)


@given(
    n11=st.integers(min_value=1, max_value=200),
    n10=st.integers(min_value=1, max_value=200),
    n01=st.integers(min_value=1, max_value=200),
    n00=st.integers(min_value=1, max_value=200),
)
def test_yule_sign_and_transpose(n11, n10, n01, n00):
    y = yule_colligation(TwoByTwo(n11, n10, n01, n00))
    flipped = yule_colligation(TwoByTwo(n11, n01, n10, n00))
    assert -1.0 <= y <= 1.0
    assert y == pytest.approx(flipped)  # transposing swaps n10/n01 only
    concordant = n11 * n00
    discordant = n10 * n01
    if concordant > discordant:
        assert y > 0
    elif concordant < discordant:
        assert y < 0
    else:
        assert y == pytest.approx(0.0)


def test_yule_ci_contains_the_point_estimate():
    table = TwoByTwo(30, 10, 10, 30)
    lo, hi = yule_ci(table, level=0.95)
    y = yule_colligation(table)
    assert lo < y < hi


def test_yule_ci_hand_computed_95():
    # log OR = log 9, se = sqrt(4/30 + 4·(1/10)/2)... spelled out below
    table = TwoByTwo(30, 10, 10, 30)
    log_or = math.log(9.0)
    se = math.sqrt(1 / 30 + 1 / 10 + 1 / 10 + 1 / 30)
    z = statistics.NormalDist().inv_cdf(0.975)

    def to_y(value: float) -> float:
        root = math.exp(value / 2.0)
        return (root - 1.0) / (root + 1.0)

    lo, hi = yule_ci(table, level=0.95)
    assert lo == pytest.approx(to_y(log_or - z * se), rel=1e-12)
    assert hi == pytest.approx(to_y(log_or + z * se), rel=1e-12)


def test_yule_ci_default_level_is_stricter():
    table = TwoByTwo(30, 10, 10, 30)
    lo95, hi95 = yule_ci(table, level=0.95)
    lo995, hi995 = yule_ci(table)  # 0.995 default
    assert lo995 < lo95 and hi995 > hi95
    assert (lo995, hi995) == pytest.approx(
        (0.18477271711339907, 0.7219436790280924), rel=1e-12
    )


def test_yule_ci_width_shrinks_like_root_n():
    base = TwoByTwo(30, 10, 10, 30)
    big = TwoByTwo(3000, 1000, 1000, 3000)
    lo1, hi1 = yule_ci(base, level=0.95)
    lo2, hi2 = yule_ci(big, level=0.95)
    # 100x the data: the log-OR se shrinks 10x, and so does the
    # first-order interval width around the same point estimate
    assert (hi2 - lo2) == pytest.approx((hi1 - lo1) / 10.0, rel=0.05)


def test_yule_zero_cell_triggers_the_continuity_correction():
    with pytest.warns(UserWarning, match="adding 0.5"):
        y = yule_colligation(TwoByTwo(0, 10, 10, 30))
    corrected = (math.sqrt(0.5 * 30.5) - math.sqrt(10.5 * 10.5)) / (
        math.sqrt(0.5 * 30.5) + math.sqrt(10.5 * 10.5)
    )
    assert y == pytest.approx(corrected)
    with pytest.warns(UserWarning):
        lo, hi = yule_ci(TwoByTwo(0, 10, 10, 30))
    assert lo < y < hi


def test_yule_rejects_negative_counts():
    with pytest.raises(ValueError):
        yule_colligation(TwoByTwo(-1, 1, 1, 1))


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy loads on the first Welch test only, so the subcommands that
    # never run one do not pay for its import
    paths = [str(Path(mfirank.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    probe = "import sys, mfirank.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

