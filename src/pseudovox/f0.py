"""Voiced-frame log-F0 statistics and linear log-domain contour renormalization.

A contour holds per-frame F0 in Hz with 0.0 marking unvoiced frames.
Statistics and transforms operate on voiced frames only; unvoiced frames pass
through every operation untouched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSourceStatsError,
    EmptySpeakerSetError,
    InvalidValueError,
    NoVoicedFramesError,
)

__all__ = [
    "F0Mode",
    "F0Contour",
    "LogF0Stats",
    "compute_log_f0_stats",
    "transform_contour",
    "aggregate_target_stats",
]


class F0Mode(enum.Enum):
    ORIGINAL = "original"
    MODIFIED = "modified"


@dataclass(eq=False)
class F0Contour:
    """Per-frame fundamental frequency of one utterance.

    Parameters
    ----------
    utterance_id : str
        Opaque identifier, no whitespace.
    values : array-like of float
        F0 per frame in Hz; 0.0 if and only if the frame is unvoiced.
    """

    utterance_id: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not self.utterance_id:
            raise InvalidValueError("utterance_id must be non-empty")
        if self.values.ndim != 1:
            raise InvalidValueError("contour values must be a 1-D sequence")
        if not np.all(np.isfinite(self.values)):
            raise InvalidValueError(
                f"contour {self.utterance_id!r} has non-finite values"
            )
        if np.any(self.values < 0.0):
            raise InvalidValueError(
                f"contour {self.utterance_id!r} has negative F0 values"
            )

    @property
    def voiced_mask(self) -> np.ndarray:
        """Boolean mask of voiced frames (value > 0)."""
        return self.values > 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, F0Contour):
            return NotImplemented
        return (
            self.utterance_id == other.utterance_id
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class LogF0Stats:
    """Mean and population standard deviation of natural-log F0 over voiced frames."""

    mean: float
    std: float
    voiced_frame_count: int

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "std", float(self.std))
        object.__setattr__(self, "voiced_frame_count", int(self.voiced_frame_count))
        if not np.isfinite(self.mean):
            raise InvalidValueError("log-F0 mean must be finite")
        if not (np.isfinite(self.std) and self.std >= 0.0):
            raise InvalidValueError("log-F0 std must be finite and >= 0")
        if self.voiced_frame_count < 0:
            raise InvalidValueError("voiced_frame_count must be >= 0")


def compute_log_f0_stats(contour: F0Contour) -> LogF0Stats:
    """Mean/std of ln(F0) over the voiced frames of one contour.

    The standard deviation is the population standard deviation (divide by N),
    so re-deriving stats from a transformed contour reproduces the target
    stats exactly.

    Raises
    ------
    NoVoicedFramesError
        If every frame is unvoiced; such an utterance cannot be transformed.
    """
    voiced = contour.values[contour.voiced_mask]
    if voiced.size == 0:
        raise NoVoicedFramesError(
            f"utterance {contour.utterance_id!r} has no voiced frames"
        )
    logs = np.log(voiced)
    return LogF0Stats(float(logs.mean()), float(logs.std()), int(voiced.size))


def transform_contour(
    contour: F0Contour, source: LogF0Stats, target: LogF0Stats
) -> F0Contour:
    """Map a contour onto target log-F0 statistics with a linear transform.

    Each voiced frame x becomes exp(m_t + (s_t / s_s) * (ln x - m_s)) where
    (m_s, s_s) are the source stats and (m_t, s_t) the target stats.
    Unvoiced frames (0.0) are passed through unchanged.

    When both spreads are zero the transform degenerates to a pure relocation:
    every voiced frame becomes exp(m_t).

    Raises
    ------
    DegenerateSourceStatsError
        If source.std == 0 while target.std > 0; the scale ratio is undefined.
    InvalidValueError
        If a transformed frame is not finite, as when exp(m_t) overflows.
    """
    if source.std == 0.0 and target.std > 0.0:
        raise DegenerateSourceStatsError(
            f"utterance {contour.utterance_id!r}: source log-F0 std is zero;"
            " cannot scale to a nonzero target std"
        )
    ratio = 0.0 if source.std == 0.0 else target.std / source.std
    out = contour.values.copy()
    mask = contour.voiced_mask
    with np.errstate(over="ignore", invalid="ignore"):  # a frame that is not finite is refused below
        out[mask] = np.exp(target.mean + ratio * (np.log(contour.values[mask]) - source.mean))
    try:
        return F0Contour(contour.utterance_id, out)
    except InvalidValueError:
        raise InvalidValueError(f"utterance {contour.utterance_id!r}: its transformed F0 is not finite") from None


def aggregate_target_stats(per_speaker_stats: list[LogF0Stats]) -> LogF0Stats:
    """Combine per-speaker stats into pseudo-speaker target stats.

    Mean and std are arithmetic means of the per-speaker means and stds
    (each speaker weighs equally regardless of frame count); frame counts
    are summed.
    """
    if not per_speaker_stats:
        raise EmptySpeakerSetError("cannot aggregate statistics of zero speakers")
    for stats in per_speaker_stats:
        if stats.voiced_frame_count < 1:
            raise InvalidValueError(
                "aggregate requires voiced_frame_count >= 1 for every speaker"
            )
    mean = float(np.mean([s.mean for s in per_speaker_stats]))
    std = float(np.mean([s.std for s in per_speaker_stats]))
    count = int(sum(s.voiced_frame_count for s in per_speaker_stats))
    return LogF0Stats(mean, std, count)
