"""Linkability metrics over labeled trial scores: EER, Cllr, min-Cllr, DET.

Scores are natural-log likelihood ratios at the interface. EER is computed on
the ROC convex hull (ROCCH-EER), which is well defined under ties and tiny
trial sets. Cllr is reported in bits; min-Cllr evaluates Cllr after the
optimal monotone recalibration obtained with pool-adjacent-violators over
tied-score groups (tied scores always receive one common calibrated value,
so the calibration is a true monotone function of the score).

All of it comes from one table of tied-score groups (trial and target counts,
ascending in score) and one cumulative sweep over it. ``evaluate`` fits PAV
once; the sweep over its blocks gives the ROC hull vertices for EER, each
group takes its block's target proportion for min-Cllr, and the sweep over
the groups themselves gives the DET points. PAV is the only Python loop.
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
    """Each trial's group of tied scores (groups ascending in score), and
    the trial and target counts of each group."""
    pooled = np.concatenate([scores.target_scores, scores.nontarget_scores])
    distinct, inverse = np.unique(pooled, return_inverse=True)
    trials = np.bincount(inverse, minlength=distinct.size).astype(np.float64)
    n_tar = scores.target_scores.size  # targets come first in ``pooled``
    targets = np.bincount(inverse[:n_tar], minlength=distinct.size).astype(np.float64)
    return inverse, trials, targets


def _pav_blocks(trials: np.ndarray, targets: np.ndarray):
    """Weighted pool-adjacent-violators fit of target proportion vs. score rank.

    Returns arrays (trials, targets, groups) per block: its trial and target
    counts and the number of tied groups it pools. Target proportions are
    nondecreasing; adjacent blocks with equal proportion are merged.
    """
    blocks: list[tuple[float, float, int]] = []
    for w, t in zip(trials.tolist(), targets.tolist()):
        groups = 1
        # merge while previous proportion >= current: t1/w1 >= t2/w2
        while blocks and blocks[-1][1] * w >= t * blocks[-1][0]:
            prev_w, prev_t, prev_groups = blocks.pop()
            w, t, groups = w + prev_w, t + prev_t, groups + prev_groups
        blocks.append((w, t, groups))
    return tuple(map(np.array, zip(*blocks)))


def _pav_fit(scores: TrialScoreSet):
    """Tied groups and their PAV blocks: the one fit EER and min-Cllr share.

    Returns (inverse, blocks): each trial's group index and the blocks of
    ``_pav_blocks``.
    """
    inverse, trials, targets = _tied_groups(scores)
    return inverse, _pav_blocks(trials, targets)


def _sweep(trials: np.ndarray, targets: np.ndarray):
    """(p_fa, p_miss) of rejecting nothing, then each longer prefix of the
    given score-ascending groups or blocks, down to rejecting everything.

    The counts are integers held as floats, so the cumulative sums are exact.
    """
    miss = np.cumsum(targets)
    rejected_non = np.cumsum(trials) - miss
    n_non = rejected_non[-1]
    p_fa = np.concatenate([[1.0], (n_non - rejected_non) / n_non])
    return p_fa, np.concatenate([[0.0], miss / miss[-1]])


def eer(scores: TrialScoreSet) -> float:
    """ROCCH equal error rate in [0, 0.5].

    Intersects the ROC convex hull with the p_miss = p_fa diagonal; the result
    is deterministic and invariant to trial order and to strictly increasing
    score transforms.
    """
    _require_populations(scores)
    return _eer(_pav_fit(scores)[1])


def _eer(blocks) -> float:
    p_fa, p_miss = _sweep(*blocks[:2])  # ROC hull vertices, p_fa descending
    x1, x2, y1, y2 = p_fa[:-1], p_fa[1:], p_miss[:-1], p_miss[1:]
    det = x1 * y2 - y1 * x2
    # an axis-parallel segment crosses the diagonal only at a vertex
    seg = (x1 != x2) & (y1 != y2) & (det != 0.0)
    crossings = 1.0 / ((y2 - y1)[seg] / det[seg] + (x1 - x2)[seg] / det[seg])
    return float(np.clip(np.max(crossings, initial=0.0), 0.0, 0.5))


def cllr(scores: TrialScoreSet) -> float:
    """Cost of log-likelihood ratio in bits, reading scores as natural-log LLRs."""
    _require_populations(scores)
    with np.errstate(over="ignore"):  # each term is finite, a sum may not be: refused below
        c_tar = float(np.mean(np.logaddexp(0.0, -scores.target_scores)))
        c_non = float(np.mean(np.logaddexp(0.0, scores.nontarget_scores)))
    bits = 0.5 * (c_tar + c_non) / _LN2
    if not np.isfinite(bits):
        raise InvalidValueError("Cllr overflows float64")
    return bits


def min_cllr(scores: TrialScoreSet) -> float:
    """Cllr in bits after optimal monotone (PAV) recalibration of the scores."""
    _require_populations(scores)
    return _min_cllr(scores, *_pav_fit(scores))


def _min_cllr(scores: TrialScoreSet, inverse, blocks) -> float:
    """Cllr of the PAV-calibrated LLRs: each group's block posterior, less
    the empirical prior log-odds log(n_tar / n_non). End groups may map to
    +-inf."""
    block_w, block_t, block_groups = blocks
    posterior = np.repeat(block_t / block_w, block_groups)
    with np.errstate(divide="ignore"):
        post_log_odds = np.log(posterior) - np.log1p(-posterior)
    prior_log_odds = np.log(scores.target_scores.size / scores.nontarget_scores.size)
    llr_per_trial = (post_log_odds - prior_log_odds)[inverse]
    n_tar = scores.target_scores.size
    c_tar = float(np.mean(np.logaddexp(0.0, -llr_per_trial[:n_tar])))
    c_non = float(np.mean(np.logaddexp(0.0, llr_per_trial[n_tar:])))
    return 0.5 * (c_tar + c_non) / _LN2


def det_points(scores: TrialScoreSet) -> list[tuple[float, float]]:
    """Distinct empirical (p_fa, p_miss) operating points, ascending in p_fa.

    Sweeps a threshold through every gap between distinct pooled score values;
    includes the reject-all (0, 1) and accept-all (1, 0) endpoints.
    """
    _require_populations(scores)
    _, trials, targets = _tied_groups(scores)
    p_fa, p_miss = _sweep(trials, targets)
    return list(zip(p_fa[::-1].tolist(), p_miss[::-1].tolist()))


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
    inverse, blocks = _pav_fit(scores)
    return EvalReport(
        eer_pct=100.0 * _eer(blocks),
        cllr_bits=cllr(scores),
        min_cllr_bits=_min_cllr(scores, inverse, blocks),
        n_target_trials=int(scores.target_scores.size),
        n_nontarget_trials=int(scores.nontarget_scores.size),
    )
