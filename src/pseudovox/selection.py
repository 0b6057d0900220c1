"""Pseudo-speaker derivation: gender filter, furthest-K ranking, random draw.

One pseudo-speaker is derived per source speaker: filter the external pool by
gender policy, rank candidates by scorer dissimilarity to the source x-vector,
keep the ``k_far`` furthest, sample ``k_sel`` of them with a per-speaker
deterministic generator, then average the members' x-vectors and aggregate
their F0 statistics. :func:`pseudonymize_speakers` runs each step once over
all the source speakers of a gender; the one-speaker functions are batches
of one.

Reproducibility contract
------------------------
Per-speaker seeds are derived as::

    seed_for_speaker(g, s) = mix64( mix64(g) XOR fnv1a64(utf8(s)) )

where ``mix64`` is one SplitMix64 step (increment by 0x9E3779B97F4A7C15, then
the 30/27/31-shift finalizer) and ``fnv1a64`` is the 64-bit FNV-1a hash
(offset basis 0xCBF29CE484222325, prime 0x100000001B3). Sampling is a partial
Fisher-Yates shuffle fed by a SplitMix64 stream: its state starts at the seed
modulo 2**64, and each output is ``mix64`` of the state, which then grows by
the increment. Draw i swaps position i with ``i + below(n - i)``, where
``below(m)`` rejects outputs at or above the largest multiple of m not above
2**64 and reduces the first other one modulo m, so member sets are identical
across platforms and runs. :func:`_draw` runs one generator lane per seed in
NumPy ``uint64`` arithmetic.
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
    PseudovoxError,
)
from .f0 import (
    F0Contour, F0Mode, LogF0Stats, _aggregate, _count_array, compute_log_f0_stats, transform_contour,
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
    "fnv1a64",
    "seed_for_speaker",
    "sample_without_replacement",
    "filter_by_gender",
    "rank_furthest",
    "derive_pseudo_speaker",
    "pseudonymize_speaker",
    "pseudonymize_speakers",
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


def sample_without_replacement(items: Sequence[str], k: int, seed: int) -> list[str]:
    """Draw k distinct items uniformly: one lane of :func:`_draw`."""
    if k > len(items):
        raise PoolTooSmallError(f"cannot draw {k} items from {len(items)}")
    return [items[j] for j in _draw([int(seed) & _MASK64], len(items), k)[0].tolist()]


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
    """What selection needs of a pool subset, computed once per (scorer, length_norm)."""

    ids: np.ndarray              # each row's speaker id, as an object array
    id_rank: np.ndarray          # position of each row's id in sorted id order
    id_order: np.ndarray         # the row at each position of sorted id order
    vectors: np.ndarray          # PLDA: projected latents; cosine: raw members (norms taken per call)
    f0_means: np.ndarray
    f0_stds: np.ndarray
    f0_counts: np.ndarray        # from ``_count_array``


def _rank_view(pool_subset: SpeakerPool, cfg: SelectionConfig) -> _RankView:
    def build() -> _RankView:
        speakers = pool_subset.speakers
        ids = [s.speaker_id for s in speakers]
        id_order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        id_rank = np.empty(len(ids), dtype=np.intp)
        id_rank[id_order] = np.arange(len(ids))
        vectors = np.stack([s.mean_embedding for s in speakers])
        with np.errstate(over="ignore"):
            overflows = np.linalg.norm(vectors, axis=1) == np.inf
        if overflows.any():
            raise InvalidValueError(f"the x-vector norm of pool speaker {ids[overflows.argmax()]!r} overflows float64")
        if cfg.scorer is Scorer.PLDA:
            vectors = project_many(pool_subset.plda, vectors, length_norm=cfg.length_norm)
        return _RankView(
            np.array(ids, dtype=object), id_rank, id_order, vectors,
            np.array([s.f0_stats.mean for s in speakers]), np.array([s.f0_stats.std for s in speakers]),
            _count_array([s.f0_stats.voiced_frame_count for s in speakers]),
        )

    return pool_subset._cached(("rank", cfg.scorer, cfg.length_norm), build)


def _plda_rows(
    pool_subset: SpeakerPool, sources: list[np.ndarray], cfg: SelectionConfig
) -> tuple[np.ndarray, PseudovoxError | None]:
    """PLDA scores of each source against the pool, one 1 x n
    :func:`plda_score_matrix` row per source (a gemm over all sources sums in
    another order), for the sources before the first that fails; that one's
    error, or None."""
    model = pool_subset.plda
    rows, error = [], None
    try:
        if model is None:
            raise InvalidSpecError("scorer 'plda' requires a PLDA model on the pool")
        for source in sources:
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is refused below
                src = project(model, source, length_norm=cfg.length_norm)
                scores = plda_score_matrix(model, src[None, :], _rank_view(pool_subset, cfg).vectors)[0]
            non_finite = np.flatnonzero(~np.isfinite(scores))
            if non_finite.size:
                pool_id = pool_subset.speakers[non_finite[0]].speaker_id
                raise InvalidValueError(f"its PLDA score against pool speaker {pool_id!r} is not finite")
            rows.append(scores)
    except PseudovoxError as exc:
        error = exc
    return np.array(rows).reshape(len(rows), len(pool_subset)), error


def _cosine_rows(
    pool_subset: SpeakerPool, sources: list[np.ndarray], cfg: SelectionConfig
) -> tuple[np.ndarray, PseudovoxError | None]:
    """:func:`cosine_scores` of each source against the pool, as one broadcast
    ``vecdot`` (the same ``ddot`` per pair), for the sources before the first
    whose :func:`cosine_scores` raises; that error, or None."""
    try:
        members = _rank_view(pool_subset, cfg).vectors
    except PseudovoxError as exc:
        return np.empty((0, len(pool_subset))), exc
    dim = members.shape[1]
    n = next((k for k, s in enumerate(sources) if s.shape != (dim,)), len(sources))
    block = np.array(sources[:n]).reshape(n, dim)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(block, block))
        member_norms = np.sqrt(np.vecdot(members, members))
    refused = (norms == 0.0) | (norms == np.inf)  # as ``cosine_scores`` refuses them
    if ((member_norms == 0.0) | (member_norms == np.inf)).any():
        n = 0
    elif refused.any():
        n = int(refused.argmax())
    error = None
    if n < len(sources):
        try:
            cosine_scores(sources[n], members)  # raises that source's error
        except PseudovoxError as exc:
            error = exc
    scores = np.vecdot(block[:n, None, :], members) / (norms[:n, None] * member_norms)
    return np.clip(scores, -1.0, 1.0), error


def _rank(
    pool_subset: SpeakerPool, sources: list[np.ndarray], cfg: SelectionConfig
) -> tuple[np.ndarray, PseudovoxError | None]:
    """The rows in ``pool_subset`` of the k_far pool speakers least similar
    to each source, furthest first, ties broken by ascending speaker id: one
    row per source before the first that cannot be ranked, and that one's
    error (None if every source is ranked)."""
    if len(pool_subset) < cfg.k_far:
        error = PoolTooSmallError(f"k_far={cfg.k_far} exceeds filtered pool size {len(pool_subset)}")
        return np.empty((0, cfg.k_far), np.intp), error
    scores, error = (_plda_rows if cfg.scorer is Scorer.PLDA else _cosine_rows)(pool_subset, sources, cfg)
    if not len(scores):
        return np.empty((0, cfg.k_far), np.intp), error
    id_rank = np.broadcast_to(_rank_view(pool_subset, cfg).id_rank, scores.shape)
    return np.lexsort((id_rank, scores), axis=-1)[:, : cfg.k_far], error


def rank_furthest(
    pool_subset: SpeakerPool, source_xvector: np.ndarray, cfg: SelectionConfig
) -> list[str]:
    """Ids of the k_far pool speakers least similar to the source.

    Ordered ascending by score (furthest first); ties broken by ascending
    speaker_id so rankings are reproducible.
    """
    order, error = _rank(pool_subset, [np.asarray(source_xvector, float)], cfg)
    if error is not None:
        raise error
    return _rank_view(pool_subset, cfg).ids[order[0]].tolist()


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _next_u64(states: np.ndarray) -> np.ndarray:
    """The next generator output of each lane: adds the increment to the
    uint64 ``states`` in place and returns the finalizer of each new state."""
    states += np.uint64(_GOLDEN)
    z = states ^ (states >> 30)
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    return z ^ (z >> 31)


def _below(states: np.ndarray, n: int) -> np.ndarray:
    """``below(n)`` of the module docstring in each lane, for ``0 < n <
    2**64``: advances ``states`` in place, drawing again only in the lanes
    whose output is rejected."""
    draws = _next_u64(states)
    tail = (_MASK64 + 1) % n
    if tail:
        limit = np.uint64(_MASK64 + 1 - tail)
        redo = np.flatnonzero(draws >= limit)
        while redo.size:
            lanes = states[redo]
            draws[redo] = _next_u64(lanes)
            states[redo] = lanes
            redo = redo[draws[redo] >= limit]
    return draws % np.uint64(n)


def _draw(seeds: list[int], n: int, k: int) -> np.ndarray:
    """The positions of the ``k`` of ``n`` items that the partial
    Fisher-Yates shuffle draws with each seed, in draw order: a (seeds, k)
    matrix, from one generator lane per seed."""
    states = np.array(seeds, dtype=np.uint64)
    lanes = np.arange(len(seeds))
    drawn = np.tile(np.arange(n), (len(seeds), 1))
    for i in range(k):
        j = i + _below(states, n - i).astype(np.intp)
        drawn[lanes, i], drawn[lanes, j] = drawn[lanes, j], drawn[lanes, i]
    return drawn[:, :k]


_GATHER_VALUES = 1 << 17  # member x-vector components gathered at once for the means


def _derive(
    pool: SpeakerPool, sources: list[SpeakerEmbedding], cfg: SelectionConfig
) -> tuple[list[PseudoSpeaker], PseudovoxError | None]:
    """:func:`derive_pseudo_speaker` of each source, in order, up to the first
    that fails, and that one's error (None if none fails).

    Each stage runs once per gender over all its sources: the filter and the
    rank view come from the pool's cache, the ranking is :func:`_rank`, the
    draw one generator lane per source (:func:`_draw`), and the member
    x-vectors and F0 statistics are averaged over a (sources, k_sel) matrix
    of member rows, with the same reductions as the one-source mean. A
    source that fails a stage leaves the later stages to the sources before
    it, so the error is the one a loop over the sources would meet first.
    """
    groups: dict[Gender, list[int]] = {}
    for number, source in enumerate(sources):
        groups.setdefault(source.gender, []).append(number)
    failed, error = len(sources), None
    ranked = []  # per gender: its pool subset, its sources' numbers and their ranking rows
    for gender, numbers in groups.items():
        try:
            subset = filter_by_gender(pool, gender, cfg.gender_policy)
        except PseudovoxError as exc:
            subset, order, first_error = None, (), exc
        else:
            order, first_error = _rank(subset, [sources[k].vector for k in numbers], cfg)
        if first_error is not None and numbers[len(order)] < failed:
            failed, error = numbers[len(order)], first_error
        ranked.append((subset, numbers, order))

    picks = {}  # each source's seed, member ids, x-vector and F0 statistics
    for subset, numbers, order in ranked:
        numbers = [k for k in numbers if k < failed]
        if not numbers:
            continue
        view = _rank_view(subset, cfg)
        seeds = [seed_for_speaker(cfg.global_seed, sources[k].speaker_id) for k in numbers]
        rows = np.take_along_axis(order[: len(numbers)], _draw(seeds, cfg.k_far, cfg.k_sel), axis=1)
        # ids are unique, so any sort gives this order; the stable one loads the least code
        members = view.id_order[np.sort(view.id_rank[rows], axis=1, kind="stable")]
        # the pool x-vectors: PLDA's rank view holds latents, and a second
        # cached matrix beside them raised the peak memory of ``anonymize``
        embeddings = view.vectors if cfg.scorer is Scorer.COSINE else np.stack(
            [s.mean_embedding for s in subset.speakers])
        step = max(1, _GATHER_VALUES // (cfg.k_sel * embeddings.shape[1]))
        xvectors = np.concatenate([
            np.mean(embeddings[members[i: i + step]], axis=1) for i in range(0, len(numbers), step)
        ])
        del embeddings
        with np.errstate(over="ignore"):
            f0_means, f0_stds, counts = _aggregate(view.f0_means[members], view.f0_stds[members], view.f0_counts[members])
        ids = view.ids[members]
        for j, k in enumerate(numbers):
            picks[k] = (seeds[j], ids[j].tolist(), xvectors[j], f0_means[j], f0_stds[j], counts[j])

    pseudos = []
    for k in range(failed):
        seed, member_ids, xvector, mean, std, count = picks[k]
        try:
            stats = LogF0Stats(mean, std, count)
        except InvalidValueError:
            return pseudos, InvalidValueError("the mean of its pool members' log-F0 statistics is not finite")
        pseudos.append(PseudoSpeaker(sources[k].speaker_id, xvector, stats, member_ids, seed))
    return pseudos, error


def derive_pseudo_speaker(
    pool: SpeakerPool, source: SpeakerEmbedding, cfg: SelectionConfig
) -> PseudoSpeaker:
    """Derive the pseudo-speaker mapped one-to-one to a source speaker.

    The k_sel members are drawn uniformly without replacement from the k_far
    furthest candidates, seeded by ``seed_for_speaker(cfg.global_seed,
    source.speaker_id)``; every utterance of a speaker therefore maps to the
    same pseudo-speaker within one run. A batch of one source.
    """
    pseudos, error = _derive(pool, [source], cfg)
    if error is not None:
        raise error
    return pseudos[0]


# one source speaker: its id, gender, utterance x-vectors and F0 contours
_Source = tuple[str, Gender, Sequence[np.ndarray], Sequence[F0Contour]]


def _pseudonymize(
    pool: SpeakerPool, speakers: Sequence[_Source], cfg: SelectionConfig, f0_mode: F0Mode
) -> tuple[list[tuple[PseudoSpeaker, list[F0Contour]]], PseudovoxError | None]:
    """:func:`pseudonymize_speakers` of the speakers before the first that
    fails, and that one's error (None if none fails)."""
    sources, error = [], None
    for speaker_id, gender, vectors, _ in speakers:
        with np.errstate(over="ignore"):
            mean = np.mean(vectors, axis=0)
        try:
            if not np.isfinite(mean).all():
                raise InvalidValueError("the mean of its utterance x-vectors is not finite")
            sources.append(SpeakerEmbedding(speaker_id, gender, mean))
        except PseudovoxError as exc:
            error = exc
            break
    pseudos, derive_error = _derive(pool, sources, cfg)
    if derive_error is not None:  # of a speaker before the one that ``error`` is of
        error = derive_error
    done = []
    for pseudo, (_, _, _, contours) in zip(pseudos, speakers):
        try:
            done.append((pseudo, [
                transform_contour(c, compute_log_f0_stats(c), pseudo.f0_stats)
                if f0_mode is F0Mode.MODIFIED and c.voiced_mask.any() else c
                for c in contours
            ]))
        except PseudovoxError as exc:
            return done, exc
    return done, error


def pseudonymize_speakers(
    pool: SpeakerPool, speakers: Sequence[_Source], cfg: SelectionConfig, f0_mode: F0Mode,
) -> list[tuple[PseudoSpeaker, list[F0Contour]]]:
    """:func:`pseudonymize_speaker` of each ``(speaker_id, gender, vectors,
    contours)`` in ``speakers``, in one batch: the speakers of a gender are
    ranked, drawn and averaged together, with results bit-equal to a loop of
    :func:`pseudonymize_speaker`.

    Raises the error of the first speaker that fails, with the type and text
    that the loop would raise.
    """
    done, error = _pseudonymize(pool, speakers, cfg, f0_mode)
    if error is not None:
        raise error
    return done


def pseudonymize_speaker(
    pool: SpeakerPool, speaker_id: str, gender: Gender, vectors: Sequence[np.ndarray],
    contours: Sequence[F0Contour], cfg: SelectionConfig, f0_mode: F0Mode,
) -> tuple[PseudoSpeaker, list[F0Contour]]:
    """The pseudo-speaker derived from the mean of ``vectors``, and ``contours``
    in order, renormalized toward its F0 statistics under ``F0Mode.MODIFIED``.
    A contour with no voiced frames, or any under ``ORIGINAL``, is returned as
    is. A batch of one speaker of :func:`pseudonymize_speakers`."""
    return pseudonymize_speakers(pool, [(speaker_id, gender, vectors, contours)], cfg, f0_mode)[0]
