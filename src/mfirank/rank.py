"""Ranking MFIs through a pairwise-comparison Markov chain.

Each ordered pair of MFIs is compared feature by feature; entry (i, j)
of the comparison matrix counts the features on which j beats i.  Row
normalization turns the matrix into a transition kernel (a random
surfer keeps moving toward better MFIs), and the stationary
distribution orders the MFIs: more probability mass means harder to
leave, i.e. better.

The stationary vector is computed twice, by a direct linear solve and
by power iteration, and the two must agree to within 1e-8; silent
numerical drift is treated as an internal error rather than tolerated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import ALL_FEATURES, TIE_EPS
from .data import ProductRecord, product_fields
from .errors import InternalError
from .features import LOWER_IS_BETTER, FeatureVector

logger = logging.getLogger(__name__)

METHOD_AGREEMENT = 1e-8
_POWER_TOL = 1e-13
_POWER_MAX_ITER = 100_000
# Power steps per progress check, and the least shrink that counts as progress.
_STALL_WINDOW = 1_000
_STALL_SHRINK = 0.01


@dataclass(frozen=True)
class ComparisonMatrix:
    """Pairwise loss counts: counts[i, j] = features on which j beats i.

    ``comparison_matrix`` fills ``counts`` as ``uint8``, one byte per cell:
    a count is at most ``len(features)``, and there are five features.
    """

    order: tuple[str, ...]
    counts: np.ndarray
    features: tuple[str, ...]


@dataclass(frozen=True)
class StationaryDistribution:
    order: tuple[str, ...]
    pi: np.ndarray
    power_converged: bool
    method_gap: float

    def as_dict(self) -> dict[str, float]:
        return {m: float(p) for m, p in zip(self.order, self.pi)}


@dataclass(frozen=True)
class RankingResult:
    """One ranking pass.  ``table`` is the feature table ranked, in
    ``mfi_id`` order whatever the order it was given in, and the matrix
    and stationary vector follow that order."""

    table: list[FeatureVector]
    matrix: ComparisonMatrix
    stationary: StationaryDistribution
    ranking: list[str]


def comparison_matrix(
    vectors: Sequence[FeatureVector],
    features: Sequence[str] | None = None,
    tie_eps: float = TIE_EPS,
) -> ComparisonMatrix:
    """Count pairwise feature wins.

    For every ordered pair (i, j) and every feature, entry (i, j) scores a
    point when j's value exceeds i's by more than ``tie_eps``; values
    within ``tie_eps`` of each other score nothing.  Lower is better for
    the service period (its values are negated first), higher for
    everything else.  Each feature is one numpy broadcast over all pairs,
    ``v[None, :] > v[:, None] + tie_eps``: the same float expression per
    pair as a scalar loop would evaluate, so ties at exactly ``tie_eps``
    resolve the same way.  The broadcast goes into one reused k-by-k
    bool buffer and is added to ``uint8`` counts, so the stage holds two
    bytes per pair while it counts and one once it returns.  A feature may
    be named once, so a count is at most the five features.
    """
    feats = tuple(features) if features is not None else ALL_FEATURES
    unknown = [f for f in feats if f not in ALL_FEATURES]
    if unknown:
        raise ValueError(f"unknown features: {unknown}")
    repeated = list(dict.fromkeys(f for f in feats if feats.count(f) > 1))
    if repeated:
        raise ValueError(f"repeated features: {repeated}")
    if len(vectors) < 2:
        raise ValueError("pairwise comparison needs at least two feature vectors")
    if not tie_eps >= 0.0:
        raise ValueError("tie_eps must be non-negative")
    order = tuple(v.mfi_id for v in vectors)
    if len(set(order)) != len(order):
        raise ValueError("duplicate mfi_id in feature vectors")

    k = len(vectors)
    counts = np.zeros((k, k), dtype=np.uint8)
    wins = np.empty((k, k), dtype=bool)
    for f in feats:
        sign = -1.0 if f in LOWER_IS_BETTER else 1.0
        v = sign * np.array([vec.get(f) for vec in vectors], dtype=float)
        np.greater(v[None, :], v[:, None] + tie_eps, out=wins)
        counts += wins
    return ComparisonMatrix(order=order, counts=counts, features=feats)


def transition(matrix: ComparisonMatrix, damping: float = 0.0) -> np.ndarray:
    """Row-normalize the comparison counts into a stochastic matrix.

    Every row with a positive sum is divided by that sum, all rows in one
    operation.  Any other row (an MFI that loses to nobody on any
    feature) becomes a uniform jump to the other MFIs.  ``damping`` in [0, 1)
    mixes in a uniform restart over all MFIs, guaranteeing
    irreducibility.  The result is one float copy of the counts, turned
    into the kernel in place: no other k-by-k array is allocated.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    p = np.array(matrix.counts, dtype=float)
    k = p.shape[0]
    if p.shape != (k, k):
        raise ValueError("comparison matrix must be square")
    if k < 2:
        raise ValueError("ranking a single MFI is undefined")
    sums = p.sum(axis=1, keepdims=True)
    jump = np.flatnonzero(~(sums > 0.0))
    if jump.size:
        sums[jump] = 1.0  # these rows are overwritten below
    p /= sums
    if jump.size:
        p[jump] = 1.0 / (k - 1)
        p[jump, jump] = 0.0
    if damping > 0.0:
        p *= 1.0 - damping
        p += damping / k
    return p


def _direct_stationary(p: np.ndarray) -> np.ndarray:
    """Solve pi P = pi with the normalization sum(pi) = 1 replacing one
    equation of the singular system.

    The system matrix is ``P.T - I`` with its last row set to ones.  It is
    written into ``p`` itself (the diagonal minus one, the last column set
    to ones) and solved through the transposed view; the diagonal and the
    last column are saved first and restored afterwards, also when the
    solve raises, so ``p`` ends bit-identical.  Off the diagonal
    ``x - 0.0 == x``, so the solve sees the values ``p.T - np.eye(k)``
    would hold.  A read-only ``p`` is solved on a copy.
    """
    if not p.flags.writeable:
        p = p.copy()
    k = p.shape[0]
    b = np.zeros(k)
    b[-1] = 1.0
    diagonal = p.diagonal().copy()
    last = p[:, -1].copy()
    try:
        np.fill_diagonal(p, diagonal - 1.0)
        p[:, -1] = 1.0
        try:
            pi = np.linalg.solve(p.T, b)
        except np.linalg.LinAlgError:
            pi, *_ = np.linalg.lstsq(p.T, b, rcond=None)
    finally:
        p[:, -1] = last
        np.fill_diagonal(p, diagonal)
    return pi


def _power_stationary(p: np.ndarray) -> tuple[np.ndarray, bool]:
    """Iterate x <- x P from the uniform vector until it stops moving.

    On a periodic chain the iterate cycles and never settles.  The L1 size
    of a step never grows (P is stochastic), so when it has shrunk by less
    than ``_STALL_SHRINK`` over ``_STALL_WINDOW`` steps, the iteration goes
    on with the lazy chain (I + P) / 2 instead: it has the same stationary
    vector and is aperiodic.  A step that shrinks that slowly needs millions
    of steps to fall below the tolerance, far past the step budget, so a
    chain the plain iteration brings to convergence never switches.
    """
    k = p.shape[0]
    x = np.full(k, 1.0 / k)
    lazy = False
    mark = None
    for step in range(_POWER_MAX_ITER):
        nxt = x @ p
        nxt /= nxt.sum()
        moved = np.abs(nxt - x)
        if np.max(moved) < _POWER_TOL:
            return nxt, True
        if not lazy and step % _STALL_WINDOW == 0:
            size = moved.sum()
            if mark is not None and size > (1.0 - _STALL_SHRINK) * mark:
                p = 0.5 * (np.eye(k) + p)
                lazy = True
            mark = size
        x = nxt
    return x, False


def stationary(
    p: np.ndarray, order: Sequence[str] | None = None
) -> StationaryDistribution:
    """Stationary distribution of a stochastic matrix, doubly checked.

    The direct solve and power iteration must agree entrywise to within
    1e-8, otherwise the chain is numerically ill-behaved (for instance
    reducible without damping) and an InternalError is raised.  A power
    iteration that merely fails to converge falls back to the direct
    result with ``power_converged`` False.  The direct solve borrows a
    writable ``p`` as its system matrix and restores it before returning,
    so no other thread may read ``p`` during the call.  The checks on
    ``p`` allocate nothing of its size, so on a writable ``p`` the solve's
    one k-by-k buffer is the copy ``numpy.linalg.solve`` makes for LAPACK.
    """
    p = np.asarray(p, dtype=float)
    k = p.shape[0]
    if p.shape != (k, k):
        raise ValueError("transition matrix must be square")
    if p.min() < -1e-12 or np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("rows must be probability distributions")
    names = tuple(order) if order is not None else tuple(str(i) for i in range(k))
    if len(names) != k:
        raise ValueError("order length does not match the matrix")

    direct = _direct_stationary(p)
    power, converged = _power_stationary(p)
    if not converged:
        logger.warning("power iteration did not converge in %d steps", _POWER_MAX_ITER)
        pi, gap = direct, float("nan")
    else:
        gap = float(np.max(np.abs(direct - power)))
        if gap > METHOD_AGREEMENT:
            raise InternalError(
                f"stationary solvers disagree by {gap:.3e} (> {METHOD_AGREEMENT:.0e}); "
                "the chain may be reducible, consider damping > 0"
            )
        pi = direct
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    return StationaryDistribution(
        order=names, pi=pi, power_converged=converged, method_gap=gap
    )


def _tie_groups(ids: Sequence[str], value: Mapping, tie_eps: float, within=None) -> dict:
    """Number the tie groups of ``ids`` from the best: sorted by (``within``
    group, descending value), a group ends where the ``within`` group does
    or the next value is more than ``tie_eps`` lower.  Input order is moot."""
    outer = within or {}
    ordered = sorted(ids, key=value.__getitem__, reverse=True)
    ordered.sort(key=lambda m: outer.get(m, 0))  # stable: values stay descending
    groups = dict.fromkeys(ordered[:1], 0)
    for above, m in zip(ordered, ordered[1:]):
        cut = outer.get(above) != outer.get(m) or value[above] > value[m] + tie_eps
        groups[m] = groups[above] + cut
    return groups


def rank_list(
    dist: StationaryDistribution,
    vectors: Sequence[FeatureVector] | None = None,
    tie_eps: float = TIE_EPS,
) -> list[str]:
    """Order MFI ids by stationary mass, best first.

    The masses are cut into tie groups (:func:`_tie_groups`).  When every
    MFI has a normalized approval rate, the rates cut each group the same
    way; the id breaks what ties remain.  Sorting by (mass group, rate
    group, id) is a total order, so the ranking does not depend on the
    order of the input.
    """
    groups = _tie_groups(dist.order, dist.as_dict(), tie_eps)
    lar = {v.mfi_id: v.lar_norm for v in vectors or ()}
    if all(lar.get(m) is not None for m in dist.order):
        groups = _tie_groups(dist.order, lar, tie_eps, within=groups)
    return sorted(sorted(dist.order), key=groups.__getitem__)


def page_filter(
    ranking: Sequence[str],
    products: Sequence[ProductRecord],
    constraints: Mapping[str, object] | None,
) -> list[str]:
    """Restrict a ranking to MFIs whose card satisfies page constraints.

    A constraint maps a product field either to a plain value (equality)
    or to a {"min": x} / {"max": x} range.  An MFI stays when any of its
    cards passes every constraint; relative order is preserved.
    """
    if not constraints:
        return list(ranking)
    numeric = product_fields()
    for name, want in constraints.items():
        if name not in numeric:
            raise ValueError(f"unknown product field {name!r} in page constraints")
        if isinstance(want, Mapping) and not numeric[name]:
            raise ValueError(f"page constraint {name!r}: a range needs a numeric product field")

    def card_ok(card: ProductRecord) -> bool:
        for name, want in constraints.items():
            have = getattr(card, name)
            if isinstance(want, Mapping):
                if have is None:
                    return False
                lo = want.get("min")
                hi = want.get("max")
                if lo is not None and have < lo:
                    return False
                if hi is not None and have > hi:
                    return False
            else:
                normalized = want.value if hasattr(want, "value") else want
                if have != normalized and str(have) != str(normalized):
                    return False
        return True

    by_mfi: dict[str, list[ProductRecord]] = {}
    for p in products:
        by_mfi.setdefault(p.mfi_id, []).append(p)
    kept = [m for m in ranking if any(card_ok(c) for c in by_mfi.get(m, ()))]
    if not kept:
        logger.warning("page constraints %r match no ranked MFI", dict(constraints))
    return kept


def rank_mfis(
    vectors: Sequence[FeatureVector],
    *,
    features: Sequence[str] | None = None,
    damping: float = 0.0,
    tie_eps: float = TIE_EPS,
) -> RankingResult:
    """Full ranking pass over a precomputed feature table, taken in
    ``mfi_id`` order so that the row order cannot change the solve."""
    vectors = sorted(vectors, key=lambda v: v.mfi_id)
    matrix = comparison_matrix(vectors, features=features, tie_eps=tie_eps)
    p = transition(matrix, damping=damping)
    dist = stationary(p, order=matrix.order)
    ranking = rank_list(dist, vectors, tie_eps=tie_eps)
    return RankingResult(table=vectors, matrix=matrix, stationary=dist, ranking=ranking)
