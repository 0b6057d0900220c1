"""Pseudo-speaker derivation: gender filter, furthest-K ranking, random draw.

One pseudo-speaker is derived per source speaker: filter the external pool by
gender policy, rank candidates by scorer dissimilarity to the source x-vector,
keep the ``k_far`` furthest, sample ``k_sel`` of them with a per-speaker
deterministic generator, then average the members' x-vectors and aggregate
their F0 statistics.

Reproducibility contract
------------------------
Per-speaker seeds are derived as::

    seed_for_speaker(g, s) = mix64( mix64(g) XOR fnv1a64(utf8(s)) )

where ``mix64`` is one SplitMix64 step (increment by 0x9E3779B97F4A7C15, then
the 30/27/31-shift finalizer) and ``fnv1a64`` is the 64-bit FNV-1a hash
(offset basis 0xCBF29CE484222325, prime 0x100000001B3). Sampling uses a
SplitMix64 stream driving a partial Fisher-Yates shuffle with unbiased bounded
draws (the biased tail is rejected), so member sets are identical across
platforms and runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    EmptyAfterFilterError,
    InvalidSpecError,
    InvalidValueError,
    PoolTooSmallError,
)
from .f0 import (
    F0Contour, F0Mode, LogF0Stats, aggregate_target_stats, compute_log_f0_stats, transform_contour,
)
from .plda import (
    Gender,
    PldaModel,
    SpeakerEmbedding,
    cosine_scores,
    plda_score_matrix,
    project,
    project_many,
)

__all__ = [
    "GenderPolicy",
    "Scorer",
    "PoolSpeaker",
    "SpeakerPool",
    "SelectionConfig",
    "PseudoSpeaker",
    "SplitMix64",
    "fnv1a64",
    "seed_for_speaker",
    "sample_without_replacement",
    "filter_by_gender",
    "rank_furthest",
    "derive_pseudo_speaker",
    "pseudonymize_speaker",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & _MASK64
    return h


def seed_for_speaker(global_seed: int, speaker_id: str) -> int:
    """Deterministic 64-bit per-speaker seed; see the module docstring."""
    g = int(global_seed) & _MASK64
    return _mix64(_mix64(g) ^ fnv1a64(speaker_id.encode("utf-8")))


class SplitMix64:
    """Tiny deterministic 64-bit generator (SplitMix64)."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        z = _mix64(self._state)
        self._state = (self._state + _GOLDEN) & _MASK64
        return z

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise InvalidValueError("bound must be positive")
        span = _MASK64 + 1
        limit = span - (span % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def sample_without_replacement(items: Sequence[str], k: int, seed: int) -> list[str]:
    """Draw k distinct items uniformly, via a seeded partial Fisher-Yates."""
    if k > len(items):
        raise PoolTooSmallError(f"cannot draw {k} items from {len(items)}")
    pool = list(items)
    rng = SplitMix64(seed)
    for i in range(k):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


class GenderPolicy(enum.Enum):
    SAME = "same"
    OPPOSITE = "opposite"


class Scorer(enum.Enum):
    PLDA = "plda"
    COSINE = "cosine"


@dataclass(eq=False, frozen=True)
class PoolSpeaker:
    """External pool speaker: mean x-vector plus speaker-level F0 statistics."""

    speaker_id: str
    gender: Gender
    mean_embedding: np.ndarray
    f0_stats: LogF0Stats

    def __post_init__(self):
        object.__setattr__(
            self, "mean_embedding", np.asarray(self.mean_embedding, dtype=np.float64)
        )
        if not self.speaker_id:
            raise InvalidValueError("pool speaker_id must be non-empty")
        if self.mean_embedding.ndim != 1 or self.mean_embedding.size == 0:
            raise InvalidValueError("pool embedding must be 1-D and non-empty")
        if not np.all(np.isfinite(self.mean_embedding)):
            raise InvalidValueError(
                f"pool embedding for {self.speaker_id!r} has non-finite components"
            )
        if self.f0_stats.voiced_frame_count < 1:
            raise InvalidValueError(
                f"pool speaker {self.speaker_id!r} needs voiced_frame_count >= 1"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoolSpeaker):
            return NotImplemented
        return (
            self.speaker_id == other.speaker_id
            and self.gender == other.gender
            and self.f0_stats == other.f0_stats
            and np.array_equal(self.mean_embedding, other.mean_embedding)
        )


@dataclass(frozen=True)
class SpeakerPool:
    """Pool speakers (kept as a tuple) and the optional PLDA model used to
    rank them.

    Selection caches derived views of the pool (gender subsets, projected
    latents) on first use. The pool and its speakers are frozen so the views
    cannot go stale; the embedding arrays must not be written in place.
    """

    speakers: tuple[PoolSpeaker, ...]
    plda: PldaModel | None = None
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "speakers", tuple(self.speakers))
        ids = [s.speaker_id for s in self.speakers]
        if len(set(ids)) != len(ids):
            raise InvalidValueError("pool speaker ids must be unique")
        dims = {s.mean_embedding.size for s in self.speakers}
        if len(dims) > 1:
            raise InvalidValueError("pool embeddings must share one dimension")
        if self.plda is not None and dims and self.plda.dim not in dims:
            raise InvalidValueError("pool embedding dimension must match the PLDA model")

    def __len__(self) -> int:
        return len(self.speakers)

    def _cached(self, key, build):
        """``build()``, computed once per key for the life of the pool."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


@dataclass(frozen=True)
class SelectionConfig:
    """Selection knobs; k_far/k_sel default to the 200-furthest / 100-drawn scheme."""

    k_far: int = 200
    k_sel: int = 100
    gender_policy: GenderPolicy = GenderPolicy.SAME
    scorer: Scorer = Scorer.PLDA
    global_seed: int = 0
    length_norm: bool = True

    def __post_init__(self):
        if self.k_far < 1 or self.k_sel < 1:
            raise InvalidSpecError("k_far and k_sel must be positive")
        if self.k_sel > self.k_far:
            raise InvalidSpecError("k_sel must be <= k_far")
        if not 0 <= int(self.global_seed) < (1 << 64):
            raise InvalidSpecError("global_seed must fit in 64 unsigned bits")


@dataclass(eq=False)
class PseudoSpeaker:
    source_speaker_id: str
    xvector: np.ndarray
    f0_stats: LogF0Stats
    member_ids: list[str]
    seed_used: int


def filter_by_gender(
    pool: SpeakerPool, source_gender: Gender, policy: GenderPolicy
) -> SpeakerPool:
    """Keep pool speakers matching the policy relative to the source gender.

    The subset is built once per wanted gender; later calls return the same
    object, so the ranking view cached on it is shared by every source.
    """
    wanted = source_gender if policy is GenderPolicy.SAME else source_gender.opposite

    def build() -> SpeakerPool:
        kept = [s for s in pool.speakers if s.gender is wanted]
        if not kept:
            raise EmptyAfterFilterError(
                f"no pool speakers of gender {wanted.value} under policy {policy.value}"
            )
        return SpeakerPool(kept, pool.plda)

    return pool._cached(("gender", wanted), build)


@dataclass(frozen=True)
class _RankView:
    """What ranking needs of a pool, computed once per (scorer, length_norm)."""

    id_rank: np.ndarray          # position of each row's id in sorted id order
    by_id: dict[str, PoolSpeaker]
    vectors: np.ndarray          # PLDA: projected latents; cosine: raw members (norms taken per call)


def _rank_view(pool_subset: SpeakerPool, cfg: SelectionConfig) -> _RankView:
    def build() -> _RankView:
        speakers = pool_subset.speakers
        ids = [s.speaker_id for s in speakers]
        id_rank = np.empty(len(ids), dtype=np.intp)
        id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        vectors = np.stack([s.mean_embedding for s in speakers])
        with np.errstate(over="ignore"):
            overflows = np.linalg.norm(vectors, axis=1) == np.inf
        if overflows.any():
            raise InvalidValueError(f"the x-vector norm of pool speaker {ids[overflows.argmax()]!r} overflows float64")
        if cfg.scorer is Scorer.PLDA:
            vectors = project_many(pool_subset.plda, vectors, length_norm=cfg.length_norm)
        return _RankView(id_rank, dict(zip(ids, speakers)), vectors)

    return pool_subset._cached(("rank", cfg.scorer, cfg.length_norm), build)


def _scores_against_source(
    pool_subset: SpeakerPool, source_xvector: np.ndarray, cfg: SelectionConfig
) -> np.ndarray:
    if cfg.scorer is Scorer.PLDA:
        model = pool_subset.plda
        if model is None:
            raise InvalidSpecError("scorer 'plda' requires a PLDA model on the pool")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is refused below
            src = project(model, source_xvector, length_norm=cfg.length_norm)
            scores = plda_score_matrix(model, src[None, :], _rank_view(pool_subset, cfg).vectors)[0]
        non_finite = np.flatnonzero(~np.isfinite(scores))
        if non_finite.size:
            pool_id = pool_subset.speakers[non_finite[0]].speaker_id
            raise InvalidValueError(f"its PLDA score against pool speaker {pool_id!r} is not finite")
        return scores
    return cosine_scores(source_xvector, _rank_view(pool_subset, cfg).vectors)


def rank_furthest(
    pool_subset: SpeakerPool, source_xvector: np.ndarray, cfg: SelectionConfig
) -> list[str]:
    """Ids of the k_far pool speakers least similar to the source.

    Ordered ascending by score (furthest first); ties broken by ascending
    speaker_id so rankings are reproducible.
    """
    if len(pool_subset) < cfg.k_far:
        raise PoolTooSmallError(
            f"k_far={cfg.k_far} exceeds filtered pool size {len(pool_subset)}"
        )
    scores = _scores_against_source(pool_subset, np.asarray(source_xvector, float), cfg)
    order = np.lexsort((_rank_view(pool_subset, cfg).id_rank, scores))[: cfg.k_far]
    return [pool_subset.speakers[i].speaker_id for i in order]


def derive_pseudo_speaker(
    pool: SpeakerPool, source: SpeakerEmbedding, cfg: SelectionConfig
) -> PseudoSpeaker:
    """Derive the pseudo-speaker mapped one-to-one to a source speaker.

    The k_sel members are drawn uniformly without replacement from the k_far
    furthest candidates, seeded by ``seed_for_speaker(cfg.global_seed,
    source.speaker_id)``; every utterance of a speaker therefore maps to the
    same pseudo-speaker within one run.
    """
    subset = filter_by_gender(pool, source.gender, cfg.gender_policy)
    ranked = rank_furthest(subset, source.vector, cfg)
    seed = seed_for_speaker(cfg.global_seed, source.speaker_id)
    member_ids = sorted(sample_without_replacement(ranked, cfg.k_sel, seed))
    by_id = _rank_view(subset, cfg).by_id
    members = [by_id[m] for m in member_ids]
    xvector = np.mean([m.mean_embedding for m in members], axis=0)
    try:
        with np.errstate(over="ignore"):
            stats = aggregate_target_stats([m.f0_stats for m in members])
    except InvalidValueError:
        raise InvalidValueError("the mean of its pool members' log-F0 statistics is not finite") from None
    return PseudoSpeaker(source.speaker_id, xvector, stats, member_ids, seed)


def pseudonymize_speaker(
    pool: SpeakerPool, speaker_id: str, gender: Gender, vectors: Sequence[np.ndarray],
    contours: Sequence[F0Contour], cfg: SelectionConfig, f0_mode: F0Mode,
) -> tuple[PseudoSpeaker, list[F0Contour]]:
    """The pseudo-speaker derived from the mean of ``vectors``, and ``contours``
    in order, renormalized toward its F0 statistics under ``F0Mode.MODIFIED``.
    A contour with no voiced frames, or any under ``ORIGINAL``, is returned as is."""
    with np.errstate(over="ignore"):
        mean = np.mean(vectors, axis=0)
    if not np.isfinite(mean).all():
        raise InvalidValueError("the mean of its utterance x-vectors is not finite")
    source = SpeakerEmbedding(speaker_id, gender, mean)
    pseudo = derive_pseudo_speaker(pool, source, cfg)
    return pseudo, [
        transform_contour(c, compute_log_f0_stats(c), pseudo.f0_stats)
        if f0_mode is F0Mode.MODIFIED and c.voiced_mask.any() else c
        for c in contours
    ]
