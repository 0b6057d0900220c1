"""Linkability metrics over labeled trial scores: EER, Cllr, min-Cllr, DET.

Scores are natural-log likelihood ratios at the interface. EER is computed on
the ROC convex hull (ROCCH-EER), which is well defined under ties and tiny
trial sets. Cllr is reported in bits; min-Cllr evaluates Cllr after the
optimal monotone recalibration obtained with pool-adjacent-violators over
tied-score groups (tied scores always receive one common calibrated value,
so the calibration is a true monotone function of the score).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPopulationError, InvalidValueError

__all__ = [
    "TrialScoreSet",
    "EvalReport",
    "eer",
    "cllr",
    "min_cllr",
    "det_points",
    "evaluate",
]

_LN2 = float(np.log(2.0))


@dataclass(eq=False)
class TrialScoreSet:
    """Target (same-speaker) and nontarget (different-speaker) trial scores."""

    target_scores: np.ndarray
    nontarget_scores: np.ndarray

    def __post_init__(self):
        self.target_scores = np.asarray(self.target_scores, dtype=np.float64)
        self.nontarget_scores = np.asarray(self.nontarget_scores, dtype=np.float64)
        for name, arr in (
            ("target_scores", self.target_scores),
            ("nontarget_scores", self.nontarget_scores),
        ):
            if arr.ndim != 1:
                raise InvalidValueError(f"{name} must be a 1-D sequence")
            if not np.all(np.isfinite(arr)):
                raise InvalidValueError(f"{name} must be finite")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialScoreSet):
            return NotImplemented
        return np.array_equal(self.target_scores, other.target_scores) and np.array_equal(
            self.nontarget_scores, other.nontarget_scores
        )


def _require_populations(scores: TrialScoreSet) -> None:
    if scores.target_scores.size == 0 or scores.nontarget_scores.size == 0:
        raise EmptyPopulationError(
            "metrics need at least one target and one nontarget score"
        )


def _tied_groups(scores: TrialScoreSet):
    """Distinct pooled score values (ascending) with trial and target counts."""
    pooled = np.concatenate([scores.target_scores, scores.nontarget_scores])
    labels = np.concatenate(
        [
            np.ones(scores.target_scores.size),
            np.zeros(scores.nontarget_scores.size),
        ]
    )
    distinct, inverse = np.unique(pooled, return_inverse=True)
    trials = np.bincount(inverse, minlength=distinct.size).astype(np.float64)
    targets = np.bincount(inverse, weights=labels, minlength=distinct.size)
    return distinct, inverse, trials, targets


def _pav_blocks(trials: np.ndarray, targets: np.ndarray):
    """Weighted pool-adjacent-violators fit of target proportion vs. score rank.

    Returns per-block (trial_count, target_count) with nondecreasing
    target proportion; adjacent blocks with equal proportion are merged.
    """
    blocks: list[list[float]] = []
    for w, t in zip(trials, targets):
        blocks.append([float(w), float(t)])
        # merge while previous proportion >= current: t1/w1 >= t2/w2
        while len(blocks) > 1 and blocks[-2][1] * blocks[-1][0] >= blocks[-1][1] * blocks[-2][0]:
            w2, t2 = blocks.pop()
            blocks[-1][0] += w2
            blocks[-1][1] += t2
    return blocks


def _pav_fit(scores: TrialScoreSet):
    """Tied groups and their PAV blocks: the one fit EER and min-Cllr share.

    Returns (inverse, trials, blocks): each trial's group index, the trial
    count per group, and the blocks of ``_pav_blocks``.
    """
    _, inverse, trials, targets = _tied_groups(scores)
    return inverse, trials, _pav_blocks(trials, targets)


def _rocch_vertices(scores: TrialScoreSet, blocks):
    """Vertices (p_miss, p_fa) of the ROC convex hull, p_fa descending."""
    n_tar = float(scores.target_scores.size)
    n_non = float(scores.nontarget_scores.size)
    p_miss = [0.0]
    p_fa = [1.0]
    miss = 0.0
    rejected = 0.0
    for w, t in blocks:
        rejected += w
        miss += t
        p_miss.append(miss / n_tar)
        p_fa.append((n_non - (rejected - miss)) / n_non)
    return np.array(p_miss), np.array(p_fa)


def eer(scores: TrialScoreSet) -> float:
    """ROCCH equal error rate in [0, 0.5].

    Intersects the ROC convex hull with the p_miss = p_fa diagonal; the result
    is deterministic and invariant to trial order and to strictly increasing
    score transforms.
    """
    _require_populations(scores)
    return _eer(scores, _pav_fit(scores)[2])


def _eer(scores: TrialScoreSet, blocks) -> float:
    p_miss, p_fa = _rocch_vertices(scores, blocks)
    best = 0.0
    for i in range(p_fa.size - 1):
        x1, y1 = p_fa[i], p_miss[i]
        x2, y2 = p_fa[i + 1], p_miss[i + 1]
        if x1 == x2 or y1 == y2:
            continue  # axis-parallel segment crosses the diagonal only at a vertex
        det = x1 * y2 - y1 * x2
        if det == 0.0:
            continue
        a = (y2 - y1) / det
        b = (x1 - x2) / det
        best = max(best, 1.0 / (a + b))
    return float(np.clip(best, 0.0, 0.5))


def cllr(scores: TrialScoreSet) -> float:
    """Cost of log-likelihood ratio in bits, reading scores as natural-log LLRs."""
    _require_populations(scores)
    c_tar = float(np.mean(np.logaddexp(0.0, -scores.target_scores)))
    c_non = float(np.mean(np.logaddexp(0.0, scores.nontarget_scores)))
    return 0.5 * (c_tar + c_non) / _LN2


def _optimal_llrs(scores: TrialScoreSet, inverse, trials, blocks):
    """PAV-calibrated natural-log LLRs per trial (targets, nontargets).

    Tied-score groups are pooled first, then fit with weighted PAV; the
    posterior of each group converts to an LLR by removing the empirical
    prior log-odds log(n_tar / n_non). End groups may map to +-inf.
    """
    posterior_per_group = np.empty(trials.size)
    group_index = 0
    for w, t in blocks:
        p = t / w
        consumed = 0.0
        while consumed < w - 0.5:  # trial counts are integral
            posterior_per_group[group_index] = p
            consumed += trials[group_index]
            group_index += 1
    with np.errstate(divide="ignore"):
        post_log_odds = np.log(posterior_per_group) - np.log1p(-posterior_per_group)
    prior_log_odds = np.log(scores.target_scores.size / scores.nontarget_scores.size)
    llr_per_group = post_log_odds - prior_log_odds
    llr_per_trial = llr_per_group[inverse]
    n_tar = scores.target_scores.size
    return llr_per_trial[:n_tar], llr_per_trial[n_tar:]


def min_cllr(scores: TrialScoreSet) -> float:
    """Cllr in bits after optimal monotone (PAV) recalibration of the scores."""
    _require_populations(scores)
    return _min_cllr(scores, *_pav_fit(scores))


def _min_cllr(scores: TrialScoreSet, inverse, trials, blocks) -> float:
    tar_llr, non_llr = _optimal_llrs(scores, inverse, trials, blocks)
    c_tar = float(np.mean(np.logaddexp(0.0, -tar_llr)))
    c_non = float(np.mean(np.logaddexp(0.0, non_llr)))
    return 0.5 * (c_tar + c_non) / _LN2


def det_points(scores: TrialScoreSet) -> list[tuple[float, float]]:
    """Distinct empirical (p_fa, p_miss) operating points, ascending in p_fa.

    Sweeps a threshold through every gap between distinct pooled score values;
    includes the reject-all (0, 1) and accept-all (1, 0) endpoints.
    """
    _require_populations(scores)
    _, _, trials, targets = _tied_groups(scores)
    n_tar = float(scores.target_scores.size)
    n_non = float(scores.nontarget_scores.size)
    points = []
    miss = 0.0
    rejected = 0.0
    points.append((1.0, 0.0))
    for w, t in zip(trials, targets):
        rejected += w
        miss += t
        points.append(((n_non - (rejected - miss)) / n_non, miss / n_tar))
    points.reverse()
    return points


@dataclass(frozen=True)
class EvalReport:
    """Privacy-linkability evaluation summary for one trial score set."""

    eer_pct: float
    cllr_bits: float
    min_cllr_bits: float
    n_target_trials: int
    n_nontarget_trials: int

    @property
    def eer(self) -> float:
        return self.eer_pct / 100.0


def evaluate(scores: TrialScoreSet) -> EvalReport:
    """Compute the full report (EER %, Cllr, min-Cllr, trial counts).

    Equal to ``EvalReport(100 * eer(s), cllr(s), min_cllr(s), ...)``, with
    the tied groups built and PAV fit once for both EER and min-Cllr.
    """
    _require_populations(scores)
    inverse, trials, blocks = _pav_fit(scores)
    return EvalReport(
        eer_pct=100.0 * _eer(scores, blocks),
        cllr_bits=cllr(scores),
        min_cllr_bits=_min_cllr(scores, inverse, trials, blocks),
        n_target_trials=int(scores.target_scores.size),
        n_nontarget_trials=int(scores.nontarget_scores.size),
    )
