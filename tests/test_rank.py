"""Pairwise comparison matrix, stationary distribution, rank order."""

from __future__ import annotations

import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PUBLISHED_PI, REFERENCE_MATRIX, REFERENCE_PI, REFERENCE_RANKING
from mfirank.data import LoanType, ProductRecord
from mfirank.features import ALL_FEATURES, FEATURE_ATTRS, LOWER_IS_BETTER, FeatureVector
from mfirank.rank import (
    _POWER_MAX_ITER,
    _POWER_TOL,
    TIE_EPS,
    ComparisonMatrix,
    StationaryDistribution,
    comparison_matrix,
    page_filter,
    rank_list,
    rank_mfis,
    stationary,
    transition,
    _direct_stationary,
    _power_stationary,
)


def vec(mfi: str, *values: float) -> FeatureVector:
    rating, lar, fair, p90, earn = values
    return FeatureVector(
        mfi_id=mfi,
        rating_norm=rating,
        lar_norm=lar,
        fairness=fair,
        service_p90_sec=p90,
        epc=earn,
    )


# grid-valued feature tables keep float ties exact, so tie counting in
# the antisymmetry property is reliable
grid = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.125)
vector_tables = st.lists(
    st.tuples(grid, grid, grid, grid, grid),
    min_size=2,
    max_size=8,
).map(lambda rows: [vec(str(i), *row) for i, row in enumerate(rows)])


# ---------------------------------------------------------------------------
# the scalar loops that the numpy comparison_matrix and transition replaced,
# kept as references for the differential tests


def loop_comparison_counts(vectors, features=None, tie_eps=TIE_EPS) -> np.ndarray:
    feats = tuple(features) if features is not None else ALL_FEATURES
    k = len(vectors)
    values = {f: [v.get(f) for v in vectors] for f in feats}
    counts = np.zeros((k, k), dtype=np.int64)
    for f in feats:
        col = values[f]
        sign = -1.0 if f in LOWER_IS_BETTER else 1.0
        for i in range(k):
            vi = sign * col[i]
            for j in range(i + 1, k):
                vj = sign * col[j]
                if vj > vi + tie_eps:
                    counts[i, j] += 1
                elif vi > vj + tie_eps:
                    counts[j, i] += 1
    return counts


def loop_transition(counts, damping: float = 0.0) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    k = counts.shape[0]
    p = np.zeros_like(counts)
    sums = counts.sum(axis=1)
    for i in range(k):
        if sums[i] > 0:
            p[i] = counts[i] / sums[i]
        else:
            p[i] = 1.0 / (k - 1)
            p[i, i] = 0.0
    if damping > 0.0:
        p = (1.0 - damping) * p + damping / k
    return p


tie_epsilons = st.one_of(
    st.just(TIE_EPS),
    st.sampled_from([0.0, 0.125, 1.0]),
    st.floats(min_value=0.0, max_value=2.0),
)


@st.composite
def boundary_tables(draw):
    """Feature tables whose values sit at, or one ulp either side of,
    ``tie_eps`` from each other, in both directions (so after the sign
    flip of the service period too), plus integer fairness, negative
    values and feature subsets."""
    eps = draw(tie_epsilons)
    k = draw(st.integers(min_value=2, max_value=7))
    bases = draw(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=3)
    )
    near = set(bases)
    for base in bases:
        for edge in (base + eps, base - eps):
            near |= {edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)}
    values = st.sampled_from(sorted(near)) | st.floats(min_value=-1e6, max_value=1e6)
    vectors = [
        FeatureVector(
            mfi_id=f"m{i}",
            rating_norm=draw(values),
            lar_norm=draw(values),
            fairness=draw(st.integers(min_value=-3, max_value=4)),
            service_p90_sec=draw(values),
            epc=draw(values),
        )
        for i in range(k)
    ]
    features = draw(
        st.none()
        | st.lists(st.sampled_from(ALL_FEATURES), min_size=1, unique=True).map(tuple)
    )
    return vectors, features, eps


@given(boundary_tables())
def test_comparison_matrix_matches_the_scalar_loop(case):
    vectors, features, eps = case
    matrix = comparison_matrix(vectors, features=features, tie_eps=eps)
    assert matrix.counts.dtype == np.int64
    assert np.array_equal(matrix.counts, loop_comparison_counts(vectors, features, eps))


@pytest.mark.parametrize("feature", ALL_FEATURES)
@pytest.mark.parametrize("ulps, wins", [(-1, False), (0, False), (1, True)])
def test_a_margin_of_exactly_tie_eps_is_a_tie(feature, ulps, wins):
    base, eps = 0.7, 0.1
    sign = -1.0 if feature in LOWER_IS_BETTER else 1.0
    edge = sign * base + eps  # the challenger's signed value at the tie boundary
    if ulps:
        edge = math.nextafter(edge, ulps * math.inf)
    holder = FeatureVector("holder", **{FEATURE_ATTRS[f]: base for f in ALL_FEATURES})
    challenger = FeatureVector(
        "challenger",
        **{FEATURE_ATTRS[f]: sign * edge if f == feature else base for f in ALL_FEATURES},
    )
    counts = comparison_matrix([holder, challenger], tie_eps=eps).counts
    # the holder's row credits the challenger only for a margin beyond eps
    assert counts.tolist() == [[0, int(wins)], [0, 0]]
    assert np.array_equal(
        counts, loop_comparison_counts([holder, challenger], tie_eps=eps)
    )


def test_matrix_rejects_a_negative_tie_eps(golden_vectors):
    with pytest.raises(ValueError, match="tie_eps"):
        comparison_matrix(golden_vectors, tie_eps=-1e-9)


# ---------------------------------------------------------------------------
# comparison matrix


def test_reference_matrix_is_reproduced(golden_vectors):
    matrix = comparison_matrix(golden_vectors)
    assert matrix.order == ("18", "20", "29", "56", "64", "87")
    assert matrix.counts.tolist() == REFERENCE_MATRIX


def test_reference_matrix_18_vs_20(golden_vectors):
    matrix = comparison_matrix(golden_vectors)
    i18, i20 = matrix.order.index("18"), matrix.order.index("20")
    assert matrix.counts[i20, i18] == 3
    assert matrix.counts[i18, i20] == 2


def test_identical_vectors_tie_everywhere(golden_vectors):
    twin = golden_vectors[0]
    clone = FeatureVector(
        mfi_id="x",
        rating_norm=twin.rating_norm,
        lar_norm=twin.lar_norm,
        fairness=twin.fairness,
        service_p90_sec=twin.service_p90_sec,
        epc=twin.epc,
    )
    matrix = comparison_matrix([twin, clone])
    assert matrix.counts.tolist() == [[0, 0], [0, 0]]


def test_matrix_needs_two_vectors(golden_vectors):
    with pytest.raises(ValueError, match="two"):
        comparison_matrix(golden_vectors[:1])


def test_matrix_rejects_duplicate_ids(golden_vectors):
    with pytest.raises(ValueError, match="duplicate"):
        comparison_matrix([golden_vectors[0], golden_vectors[0]])


def test_matrix_rejects_unknown_features(golden_vectors):
    with pytest.raises(ValueError, match="unknown"):
        comparison_matrix(golden_vectors, features=("rating", "oops"))


def test_lower_is_better_for_the_service_period():
    fast = vec("fast", 3.0, 0.1, 2, 100.0, 1.0)
    slow = vec("slow", 3.0, 0.1, 2, 200.0, 1.0)
    matrix = comparison_matrix([fast, slow], features=("service_period",))
    # the slow MFI loses the only feature: its row credits the fast one
    assert matrix.counts.tolist() == [[0, 0], [1, 0]]


@given(vector_tables)
def test_antisymmetry_with_ties(vectors):
    matrix = comparison_matrix(vectors)
    counts = matrix.counts
    k = len(vectors)
    assert np.all(np.diag(counts) == 0)
    for i in range(k):
        for j in range(i + 1, k):
            ties = sum(
                1
                for f in ALL_FEATURES
                if abs(vectors[i].get(f) - vectors[j].get(f)) <= 1e-9
            )
            assert counts[i, j] + counts[j, i] == len(ALL_FEATURES) - ties


def test_dominated_mfi_keeps_the_block_structure(golden_vectors):
    before = comparison_matrix(golden_vectors)
    loser = vec("00", 1.0, 0.001, 0, 9e9, 0.0)
    after = comparison_matrix(golden_vectors + [loser])
    k = len(golden_vectors)
    assert after.counts[:k, :k].tolist() == before.counts.tolist()
    assert np.all(after.counts[k, :k] == len(ALL_FEATURES))  # loses every feature
    assert np.all(after.counts[:k, k] == 0)  # beats nobody


# ---------------------------------------------------------------------------
# transition matrix


def test_transition_of_the_reference_row(golden_vectors):
    matrix = comparison_matrix(golden_vectors)
    p = transition(matrix)
    row18 = p[matrix.order.index("18")]
    assert row18 == pytest.approx([0.0, 0.2, 0.1, 0.2, 0.2, 0.3])


def test_transition_zero_rows_jump_uniformly():
    all_tied = [vec(str(i), 1.0, 0.5, 2, 100.0, 1.0) for i in range(3)]
    p = transition(comparison_matrix(all_tied))
    assert p.tolist() == [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]


def test_transition_single_mfi_is_undefined(golden_vectors):
    matrix = comparison_matrix(golden_vectors[:2])
    lonely = type(matrix)(order=("18",), counts=np.zeros((1, 1), dtype=np.int64), features=matrix.features)
    with pytest.raises(ValueError, match="undefined"):
        transition(lonely)


def test_transition_damping_bounds(golden_vectors):
    matrix = comparison_matrix(golden_vectors)
    with pytest.raises(ValueError):
        transition(matrix, damping=1.0)
    p = transition(matrix, damping=0.3)
    assert np.all(p >= 0.3 / 6 - 1e-12)


@given(vector_tables, st.floats(min_value=0.0, max_value=0.9))
def test_transition_rows_always_sum_to_one(vectors, damping):
    p = transition(comparison_matrix(vectors), damping=damping)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


@st.composite
def count_matrices(draw):
    """Square count matrices, some rows all zero, any diagonal."""
    k = draw(st.integers(min_value=2, max_value=7))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=5), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
    for i in draw(st.sets(st.integers(min_value=0, max_value=k - 1))):
        rows[i] = [0] * k
    return np.array(rows, dtype=np.int64)


@given(
    count_matrices(),
    st.just(0.0) | st.floats(min_value=0.0, max_value=0.99),
)
def test_transition_matches_the_row_loop(counts, damping):
    k = counts.shape[0]
    matrix = ComparisonMatrix(order=tuple(map(str, range(k))), counts=counts, features=())
    assert np.array_equal(transition(matrix, damping=damping), loop_transition(counts, damping))


# ---------------------------------------------------------------------------
# stationary distribution


def test_reference_stationary_vector(golden_vectors):
    matrix = comparison_matrix(golden_vectors)
    dist = stationary(transition(matrix), order=matrix.order)
    assert dist.power_converged
    assert dist.method_gap <= 1e-8
    for mfi, published in PUBLISHED_PI.items():
        assert dist.as_dict()[mfi] == pytest.approx(published, abs=1e-3)
    for mfi, frozen in REFERENCE_PI.items():
        assert dist.as_dict()[mfi] == pytest.approx(frozen, abs=5e-7)


def test_stationary_fixed_point_and_normalization(golden_vectors):
    matrix = comparison_matrix(golden_vectors)
    p = transition(matrix)
    dist = stationary(p, order=matrix.order)
    assert abs(dist.pi.sum() - 1.0) < 1e-10
    assert np.max(np.abs(dist.pi @ p - dist.pi)) < 1e-8


def test_two_state_chain_forgets_the_margin():
    # row normalization erases how much one MFI beats the other by
    a = vec("a", 5.0, 0.9, 4, 10.0, 9.0)
    b = vec("b", 1.0, 0.1, 0, 99.0, 1.0)
    matrix = comparison_matrix([a, b])
    dist = stationary(transition(matrix), order=matrix.order)
    assert dist.pi == pytest.approx([0.5, 0.5])


def test_symmetric_chain_is_uniform():
    p = np.full((4, 4), 1.0 / 3.0)
    np.fill_diagonal(p, 0.0)
    dist = stationary(p)
    assert dist.pi == pytest.approx([0.25] * 4)


def test_solvers_agree_on_random_chains():
    rng = np.random.default_rng(20210301)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        p = rng.random((k, k)) + 1e-3
        p /= p.sum(axis=1, keepdims=True)
        dist = stationary(p)
        assert dist.power_converged
        assert dist.method_gap <= 1e-8


# the power iteration before the lazy-chain fallback, kept as the reference
# for every chain it brought to convergence
def reference_power_stationary(p: np.ndarray) -> tuple[np.ndarray, bool]:
    k = p.shape[0]
    x = np.full(k, 1.0 / k)
    for _ in range(_POWER_MAX_ITER):
        nxt = x @ p
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - x)) < _POWER_TOL:
            return nxt, True
        x = nxt
    return x, False


def test_chains_that_converged_keep_their_power_iterate():
    # Sparse chains of two blocks joined by a weak coupling mix slowly: the
    # weakest here take over ten thousand steps, well past the stall window.
    rng = np.random.default_rng(20210301)
    for coupling in (1.0, 1e-2, 1e-3):
        for _ in range(6):
            k = int(rng.integers(2, 9))
            p = rng.random((k, k)) * (rng.random((k, k)) < 0.6)
            p[np.arange(k), rng.integers(0, k, k)] += 1.0
            half = k // 2
            p[:half, half:] *= coupling
            p[half:, :half] *= coupling
            p /= p.sum(axis=1, keepdims=True)
            expected, converged = reference_power_stationary(p)
            assert converged
            pi, converged = _power_stationary(p)
            assert converged and np.array_equal(pi, expected)


def test_a_periodic_star_chain_converges_on_the_lazy_chain():
    # One MFI linked both ways with every other one: the chain has period 2,
    # and the plain iteration alternates between two vectors for good.
    k = 200
    p = np.zeros((k, k))
    p[0, 1:] = 1.0 / (k - 1)
    p[1:, 0] = 1.0
    start = time.perf_counter()
    dist = stationary(p)
    assert time.perf_counter() - start < 1.0
    assert dist.power_converged
    assert dist.method_gap <= 1e-8
    assert np.max(np.abs(dist.pi - _direct_stationary(p))) <= 1e-8


def test_stationary_validates_input():
    with pytest.raises(ValueError, match="square"):
        stationary(np.ones((2, 3)))
    with pytest.raises(ValueError, match="probability"):
        stationary(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="order"):
        stationary(np.eye(2) * 0 + 0.5, order=("a",))


# ---------------------------------------------------------------------------
# rank order


def test_reference_ranking(golden_vectors):
    result = rank_mfis(golden_vectors)
    assert result.ranking == REFERENCE_RANKING


def test_rank_breaks_ties_by_lar_then_id():
    p = np.full((3, 3), 0.5)
    np.fill_diagonal(p, 0.0)
    dist = stationary(p, order=("b", "a", "c"))
    assert rank_list(dist) == ["a", "b", "c"]  # pure lexicographic
    vectors = [
        vec("b", 3.0, 0.3, 2, 10.0, 1.0),
        vec("a", 3.0, 0.1, 2, 10.0, 1.0),
        vec("c", 3.0, 0.2, 2, 10.0, 1.0),
    ]
    assert rank_list(dist, vectors) == ["b", "c", "a"]  # higher LAR first


def reference_rank_list(dist, vectors=None, tie_eps=TIE_EPS):
    """The ε-tolerant comparator sort that ``rank_list`` replaced.  It is
    not transitive: on a chain of masses less than ε apart its result
    depends on the input order."""
    mass = dist.as_dict()
    lar = {v.mfi_id: v.lar_norm for v in vectors} if vectors is not None else {}

    def cmp(a, b):
        if mass[a] > mass[b] + tie_eps:
            return -1
        if mass[b] > mass[a] + tie_eps:
            return 1
        la, lb = lar.get(a), lar.get(b)
        if la is not None and lb is not None:
            if la > lb + tie_eps:
                return -1
            if lb > la + tie_eps:
                return 1
        return -1 if a < b else (1 if a > b else 0)

    return sorted(dist.order, key=functools.cmp_to_key(cmp))


def ranked(ids, masses, lars=None):
    dist = StationaryDistribution(
        order=tuple(ids), pi=np.array(masses, dtype=float), power_converged=True, method_gap=0.0
    )
    if lars is None:
        return dist, None
    return dist, [FeatureVector(mfi_id=m, lar_norm=x) for m, x in zip(ids, lars)]


# steps between neighbours of a chain: ties, gaps under ε that add up to
# more than ε, and clear gaps
CHAIN_STEPS = st.sampled_from([0.0, 0.3e-9, 0.6e-9, 0.9e-9, 1.5e-9, 5e-9])


@given(
    st.lists(st.tuples(CHAIN_STEPS, CHAIN_STEPS), min_size=2, max_size=5),
    st.booleans(),
)
def test_rank_list_is_one_ranking_over_every_order_of_an_eps_chain(steps, with_lar):
    ids = [f"m{i}" for i in range(len(steps))]
    masses = [0.2 + x for x in itertools.accumulate(step for step, _ in steps)]
    lars = [0.1 + x for x in itertools.accumulate(step for _, step in steps)]
    rankings = set()
    for order in itertools.permutations(range(len(ids))):
        dist, vectors = ranked(
            [ids[i] for i in order],
            [masses[i] for i in order],
            [lars[i] for i in order] if with_lar else None,
        )
        rankings.add(tuple(rank_list(dist, vectors)))
    assert len(rankings) == 1


def test_a_three_mass_eps_chain_is_one_tie_group():
    mass = {"a": 0.3, "b": 0.3 + 6e-10, "c": 0.3 + 1.2e-9}
    dists = [ranked(ids, [mass[m] for m in ids])[0] for ids in itertools.permutations("abc")]
    assert len({tuple(reference_rank_list(dist)) for dist in dists}) == 3
    assert {tuple(rank_list(dist)) for dist in dists} == {("a", "b", "c")}


def test_a_mass_gap_of_exactly_tie_eps_is_a_tie():
    dist, vectors = ranked(["b", "a"], [0.2 + TIE_EPS, 0.2], [0.5, 0.5 + TIE_EPS])
    assert rank_list(dist) == reference_rank_list(dist) == ["a", "b"]
    assert rank_list(dist, vectors) == reference_rank_list(dist, vectors) == ["a", "b"]


def clustered(draw, n, start):
    """``n`` values in clusters whose members lie within ε/2 of their
    cluster's base and whose bases lie at least 2ε apart."""
    bases = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    offsets = draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    return [start + TIE_EPS * (2 * b + o) for b, o in zip(bases, offsets)]


@st.composite
def separated_tables(draw):
    n = draw(st.integers(2, 7))
    ids = draw(st.permutations([f"m{i}" for i in range(n)]))
    lars = clustered(draw, n, 0.1) if draw(st.booleans()) else None
    return ranked(ids, clustered(draw, n, 0.2), lars)


@given(separated_tables())
def test_rank_list_matches_the_reference_when_no_tie_group_spans_more_than_eps(table):
    dist, vectors = table
    assert rank_list(dist, vectors) == reference_rank_list(dist, vectors)


@given(vector_tables)
def test_rank_is_permutation_invariant(vectors):
    forward = rank_mfis(vectors).ranking
    assert rank_mfis(vectors[::-1]).ranking == forward


@given(vector_tables, st.floats(min_value=0.05, max_value=20.0))
def test_epc_rescaling_never_changes_the_ranking(vectors, scale):
    scaled = [
        FeatureVector(
            mfi_id=v.mfi_id,
            rating_norm=v.rating_norm,
            lar_norm=v.lar_norm,
            fairness=v.fairness,
            service_p90_sec=v.service_p90_sec,
            epc=v.epc * scale,
        )
        for v in vectors
    ]
    base = rank_mfis(vectors)
    rescaled = rank_mfis(scaled)
    assert rescaled.matrix.counts.tolist() == base.matrix.counts.tolist()
    assert rescaled.ranking == base.ranking


# ---------------------------------------------------------------------------
# page filtering


def cards() -> list[ProductRecord]:
    def c(mfi, loan_type, age_min=None):
        return ProductRecord(
            mfi_id=mfi, card_id=f"card-{mfi}-{loan_type.value}", loan_type=loan_type, age_min=age_min
        )

    return [
        c("18", LoanType.STANDARD, age_min=18),
        c("20", LoanType.LONG_TERM, age_min=21),
        c("29", LoanType.STANDARD),
        c("56", LoanType.LONG_TERM, age_min=18),
        c("64", LoanType.STANDARD),
    ]


def test_page_filter_empty_constraints_is_identity():
    ranking = ["87", "64", "18"]
    assert page_filter(ranking, cards(), None) == ranking
    assert page_filter(ranking, cards(), {}) == ranking


def test_page_filter_matches_predicates_in_rank_order():
    ranking = ["64", "56", "29", "20", "18"]
    kept = page_filter(ranking, cards(), {"loan_type": LoanType.LONG_TERM})
    assert kept == ["56", "20"]
    young = page_filter(ranking, cards(), {"age_min": {"max": 18}})
    assert young == ["56", "18"]


def test_page_filter_excluding_everything_warns(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="mfirank.rank"):
        kept = page_filter(["18", "20"], cards(), {"loan_type": LoanType.INTEREST_FREE})
    assert kept == []
    assert any("match no ranked MFI" in m for m in caplog.messages)


def test_page_filter_unknown_field_is_an_error():
    with pytest.raises(ValueError, match="unknown product field"):
        page_filter(["18"], cards(), {"flavour": "vanilla"})
