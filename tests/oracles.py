"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's code paths: the EER oracle enumerates
raw threshold operating points and intersects every point-pair segment with
the diagonal; the PLDA oracle integrates the latent speaker variable on a
dense grid; the F0 oracle is a frame-by-frame pure-Python loop.

The scalar scoring and ranking oracles are the per-pair code that the
library's batched paths replaced, kept verbatim so tests can require the
batched results to be bit-identical to it. The per-speaker selection loop
after them is the code that ``selection.pseudonymize_speakers`` replaced:
one source speaker at a time, with the Python ``SplitMix64`` generator, its
``sample_without_replacement`` draw and the list ``aggregate_target_stats``,
which the library now runs as batches of one of its batched code. The loop
uses these scalar bodies, not the library functions they check; the
selection and F0 tests require the same draws and statistics or the same
error, and the same members, seeds, vector and contour bits, or the same
error for the first speaker that fails.

The per-token text parsers and serializers at the end are the format code
that the one-pass fast paths replaced, with LF-only lines and ASCII-only
digits; the formats tests require the library to accept, reject (same error
type and message) and write exactly what they do. ``serialize_scores`` here
is the reference for the library's, which writes through the same score-line
writer as ``score``.

The metric loops and the sort-built simulate rows at the very end are the
code that the one-sweep metrics and the one trial table of ``simulate``
replaced: the metrics and simulate tests require those to return exactly
(``repr``-equal) what these do. The dict join of ``eval`` is what its
column compare stands in for when the score file is in key order; the CLI
tests require the same scores or the same error message. The tuple path of
``score`` is that command as it was before it read its key as columns and
streamed its output; the CLI tests require the same output and manifest
bytes or the same error message, and at most two thirds of its traced memory.
"""

import hashlib
import math
import re
from pathlib import Path

import numpy as np

from pseudovox import __version__, errors, formats
from pseudovox.cli import FORMAT_VERSION
from pseudovox.f0 import F0Contour, LogF0Stats, compute_log_f0_stats
from pseudovox.metrics import EvalReport, TrialScoreSet
from pseudovox.plda import (
    Gender,
    PldaModel,
    SpeakerEmbedding,
    plda_score_matrix,
    plda_score_pairs,
    project,
    project_many,
)
from pseudovox.selection import PoolSpeaker
from pseudovox.simulate import AttackerModel

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def brute_force_eer(tar, non):
    """Hull-crossing EER via exhaustive threshold search.

    Builds every deterministic operating point (accept iff score >= t for
    thresholds between distinct scores and beyond the extremes), then takes
    the minimum diagonal-crossing over all point pairs, which is where the
    convex hull of achievable points meets p_fa = p_miss.
    """
    tar = np.asarray(tar, dtype=float)
    non = np.asarray(non, dtype=float)
    distinct = np.unique(np.concatenate([tar, non]))
    thresholds = [distinct[0] - 1.0]
    thresholds += [0.5 * (a + b) for a, b in zip(distinct[:-1], distinct[1:])]
    thresholds += [distinct[-1] + 1.0]
    points = []
    for t in thresholds:
        p_fa = float(np.mean(non >= t))
        p_miss = float(np.mean(tar < t))
        points.append((p_fa, p_miss))
    best = None
    for x, y in points:
        if x == y:
            best = x if best is None else min(best, x)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            x1, y1 = points[i]
            x2, y2 = points[j]
            d1 = x1 - y1
            d2 = x2 - y2
            if d1 == d2:
                continue
            lam = d2 / (d2 - d1)
            if 0.0 <= lam <= 1.0:
                value = lam * x1 + (1.0 - lam) * x2
                best = value if best is None else min(best, value)
    return best


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def integration_llr(psi, enroll, test, n_grid=40001):
    """Same/different log-likelihood ratio by latent-variable quadrature.

    Same-speaker likelihood integrates N(z; 0, psi) N(u; z, 1) N(v; z, 1)
    over a dense grid per dimension; the different-speaker likelihood
    factorizes into two N(.; 0, 1 + psi) terms.
    """
    total = 0.0
    for p, u, v in zip(np.atleast_1d(psi), np.atleast_1d(enroll), np.atleast_1d(test)):
        if p == 0.0:
            continue  # both hypotheses collapse to N(.; 0, 1)
        half = 8.0 * max(1.0, math.sqrt(p)) + abs(u) + abs(v)
        z = np.linspace(-half, half, n_grid)
        same = _trapezoid(
            _normal_pdf(z, 0.0, p) * _normal_pdf(u, z, 1.0) * _normal_pdf(v, z, 1.0), z
        )
        diff = _normal_pdf(u, 0.0, 1.0 + p) * _normal_pdf(v, 0.0, 1.0 + p)
        total += math.log(same) - math.log(diff)
    return total


def transform_frames(values, src_mean, src_std, tgt_mean, tgt_std):
    """Frame-by-frame pure-Python transform of a contour to target stats."""
    out = []
    for value in values:
        if value <= 0.0:
            out.append(0.0)
        else:
            ratio = 0.0 if src_std == 0.0 else tgt_std / src_std
            out.append(math.exp(tgt_mean + ratio * (math.log(value) - src_mean)))
    return out


def two_pass_log_stats(values):
    """Two-pass mean/population-std of ln(F0) over voiced frames."""
    voiced = [math.log(v) for v in values if v > 0.0]
    mean = sum(voiced) / len(voiced)
    var = sum((x - mean) ** 2 for x in voiced) / len(voiced)
    return mean, math.sqrt(var), len(voiced)


def cllr_direct(tar, non):
    """Direct evaluation of the Cllr definition in bits."""
    c_tar = sum(math.log2(1.0 + math.exp(-s)) for s in tar) / len(tar)
    c_non = sum(math.log2(1.0 + math.exp(s)) for s in non) / len(non)
    return 0.5 * (c_tar + c_non)


def reference_llr_matrix(model, enroll_latents, test_latents):
    """PLDA LLR matrix exactly as the scalar ``plda_score`` (one pair as a
    1x1 matrix) and the per-source ranking (one 1xn row) computed it."""
    e = np.asarray(enroll_latents, dtype=np.float64)
    t = np.asarray(test_latents, dtype=np.float64)
    psi = model.psi
    a = psi / (psi + 1.0)
    v_same = 1.0 + a
    v_diff = 1.0 + psi
    const = 0.5 * float(np.sum(np.log(v_diff / v_same)))
    test_part = (t * t) @ (0.5 / v_diff - 0.5 / v_same)
    enroll_part = (e * e) @ (-0.5 * a * a / v_same)
    cross = (e * (a / v_same)) @ t.T
    return cross + enroll_part[:, None] + test_part[None, :] + const


def scalar_plda_score(model, enroll, test):
    """One trial's PLDA LLR, the way ``plda_score`` computed it per pair."""
    e = np.asarray(enroll, dtype=np.float64)
    t = np.asarray(test, dtype=np.float64)
    return float(reference_llr_matrix(model, e[None, :], t[None, :])[0, 0])


def scalar_cosine_scores(source, members):
    """Cosine of the source against each member row, one pair at a time."""
    va = np.asarray(source, dtype=np.float64)
    out = []
    for vb in members:
        na = float(np.linalg.norm(va))
        nb = float(np.linalg.norm(vb))
        out.append(float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0)))
    return np.array(out)


def sorted_ranking(scores, ids, k):
    """The k lowest-scoring ids, ties broken by id, via sorted(zip(...))."""
    order = sorted(zip(np.asarray(scores).tolist(), ids))
    return [sid for _, sid in order[:k]]


def rank_furthest_scalar(pool_subset, source_xvector, cfg):
    """``rank_furthest`` as the per-source, uncached code computed it."""
    from pseudovox.plda import project, project_many
    from pseudovox.selection import Scorer

    source = np.asarray(source_xvector, dtype=np.float64)
    members = np.stack([s.mean_embedding for s in pool_subset.speakers])
    if cfg.scorer is Scorer.PLDA:
        model = pool_subset.plda
        src = project(model, source, length_norm=cfg.length_norm)
        latents = project_many(model, members, length_norm=cfg.length_norm)
        scores = reference_llr_matrix(model, src[None, :], latents)[0]
    else:
        scores = scalar_cosine_scores(source, members)
    return sorted_ranking(scores, [s.speaker_id for s in pool_subset.speakers], cfg.k_far)


# --- per-speaker selection -------------------------------------------------------


def _loop_scores_against_source(pool_subset, source_xvector, cfg):
    from pseudovox.errors import InvalidSpecError, InvalidValueError
    from pseudovox.plda import cosine_scores
    from pseudovox.selection import Scorer, _rank_view

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


def loop_rank_furthest(pool_subset, source_xvector, cfg):
    """``rank_furthest`` of one source, as the per-speaker code computed it."""
    from pseudovox.selection import _rank_view

    if len(pool_subset) < cfg.k_far:
        raise errors.PoolTooSmallError(f"k_far={cfg.k_far} exceeds filtered pool size {len(pool_subset)}")
    scores = _loop_scores_against_source(pool_subset, np.asarray(source_xvector, float), cfg)
    order = np.lexsort((_rank_view(pool_subset, cfg).id_rank, scores))[: cfg.k_far]
    return [pool_subset.speakers[i].speaker_id for i in order]


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x):
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Tiny deterministic 64-bit generator (SplitMix64): the scalar generator
    that each lane of ``selection._draw`` runs."""

    def __init__(self, seed):
        self._state = int(seed) & _MASK64

    def next_u64(self):
        z = _mix64(self._state)
        self._state = (self._state + _GOLDEN) & _MASK64
        return z

    def below(self, n):
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise errors.InvalidValueError("bound must be positive")
        span = _MASK64 + 1
        limit = span - (span % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def sample_without_replacement(items, k, seed):
    """``selection.sample_without_replacement`` as one ``SplitMix64`` drove it."""
    if k > len(items):
        raise errors.PoolTooSmallError(f"cannot draw {k} items from {len(items)}")
    pool = list(items)
    rng = SplitMix64(seed)
    for i in range(k):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def aggregate_target_stats(per_speaker_stats):
    """``f0.aggregate_target_stats`` as the list code computed it."""
    if not per_speaker_stats:
        raise errors.EmptySpeakerSetError("cannot aggregate statistics of zero speakers")
    for stats in per_speaker_stats:
        if stats.voiced_frame_count < 1:
            raise errors.InvalidValueError("aggregate requires voiced_frame_count >= 1 for every speaker")
    mean = float(np.mean([s.mean for s in per_speaker_stats]))
    std = float(np.mean([s.std for s in per_speaker_stats]))
    count = int(sum(s.voiced_frame_count for s in per_speaker_stats))
    return LogF0Stats(mean, std, count)


def loop_derive_pseudo_speaker(pool, source, cfg):
    """``derive_pseudo_speaker`` as the per-speaker code computed it."""
    from pseudovox.selection import PseudoSpeaker, filter_by_gender, seed_for_speaker

    subset = filter_by_gender(pool, source.gender, cfg.gender_policy)
    ranked = loop_rank_furthest(subset, source.vector, cfg)
    seed = seed_for_speaker(cfg.global_seed, source.speaker_id)
    member_ids = sorted(sample_without_replacement(ranked, cfg.k_sel, seed))
    by_id = {s.speaker_id: s for s in subset.speakers}
    members = [by_id[m] for m in member_ids]
    xvector = np.mean([m.mean_embedding for m in members], axis=0)
    try:
        with np.errstate(over="ignore"):
            stats = aggregate_target_stats([m.f0_stats for m in members])
    except errors.InvalidValueError:
        raise errors.InvalidValueError("the mean of its pool members' log-F0 statistics is not finite") from None
    return PseudoSpeaker(source.speaker_id, xvector, stats, member_ids, seed)


def loop_pseudonymize_speaker(pool, speaker_id, gender, vectors, contours, cfg, f0_mode):
    """``pseudonymize_speaker`` as the per-speaker code computed it."""
    from pseudovox.f0 import F0Mode, transform_contour

    with np.errstate(over="ignore"):
        mean = np.mean(vectors, axis=0)
    if not np.isfinite(mean).all():
        raise errors.InvalidValueError("the mean of its utterance x-vectors is not finite")
    source = SpeakerEmbedding(speaker_id, gender, mean)
    pseudo = loop_derive_pseudo_speaker(pool, source, cfg)
    return pseudo, [
        transform_contour(c, compute_log_f0_stats(c), pseudo.f0_stats)
        if f0_mode is F0Mode.MODIFIED and c.voiced_mask.any() else c
        for c in contours
    ]


def loop_pseudonymize_speakers(pool, speakers, cfg, f0_mode):
    """``loop_pseudonymize_speaker`` of each ``(speaker_id, gender, vectors,
    contours)``, in order; it raises the first speaker's error."""
    return [loop_pseudonymize_speaker(pool, *speaker, cfg, f0_mode) for speaker in speakers]


# --- per-token text formats ---------------------------------------------------

_FLOAT_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\Z", re.ASCII)
_UINT_RE = re.compile(r"\d+\Z", re.ASCII)


def _data_lines(text):
    for lineno, raw in enumerate(text.split("\n"), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


def _parse_float(token, line):
    if not _FLOAT_RE.match(token):
        raise errors.LineSyntaxError(f"expected a decimal real, got {token!r}", line)
    value = float(token)
    if not np.isfinite(value):
        raise errors.InvalidValueError(f"non-finite value {token!r}", line)
    return value


def _parse_uint(token, line, bits=64):
    if not _UINT_RE.match(token):
        raise errors.LineSyntaxError(f"expected an unsigned integer, got {token!r}", line)
    value = int(token)
    if value >= (1 << bits):
        raise errors.InvalidValueError(f"integer {token} does not fit in {bits} bits", line)
    return value


def _parse_id(token, line):
    if token.startswith("#"):
        raise errors.InvalidValueError(f"id {token!r} may not start with '#'", line)
    return token


def _check_out_id(identifier):
    if not identifier or any(c.isspace() for c in identifier) or identifier.startswith("#"):
        raise errors.InvalidValueError(f"id {identifier!r} is not serializable")
    return identifier


def _with_line(exc, line):
    kinds = (errors.LineSyntaxError, errors.InvalidValueError, errors.DimensionMismatchError)
    return type(exc)(str(exc), line) if isinstance(exc, kinds) else errors.InvalidValueError(str(exc), line)


def _format_float(value):
    return repr(float(value))


def _joined(lines):
    return "\n".join(lines) + "\n" if lines else ""


def _require_unique(keys):
    seen = set()
    for key in keys:
        if key in seen:
            raise errors.InvalidValueError(f"duplicate record key {key!r}")
        seen.add(key)


def parse_contours(text):
    records = []
    seen = set()
    for lineno, tokens in _data_lines(text):
        utt_id = _parse_id(tokens[0], lineno)
        if utt_id in seen:
            raise errors.InvalidValueError(f"duplicate utterance id {utt_id!r}", lineno)
        seen.add(utt_id)
        values = [_parse_float(t, lineno) for t in tokens[1:]]
        try:
            records.append(F0Contour(utt_id, values))
        except errors.PseudovoxError as exc:
            raise errors.InvalidValueError(str(exc), lineno) from None
    return records


def serialize_contours(records):
    _require_unique(r.utterance_id for r in records)
    lines = []
    for rec in sorted(records, key=lambda r: r.utterance_id):
        fields = [_check_out_id(rec.utterance_id)] + [_format_float(v) for v in rec.values]
        lines.append(" ".join(fields))
    return _joined(lines)


def parse_stats(text):
    records = []
    seen = set()
    for lineno, tokens in _data_lines(text):
        if len(tokens) != 4:
            raise errors.LineSyntaxError(f"stats line needs 4 fields, got {len(tokens)}", lineno)
        rec_id = _parse_id(tokens[0], lineno)
        if rec_id in seen:
            raise errors.InvalidValueError(f"duplicate stats id {rec_id!r}", lineno)
        seen.add(rec_id)
        mean = _parse_float(tokens[1], lineno)
        std = _parse_float(tokens[2], lineno)
        count = _parse_uint(tokens[3], lineno)
        if count < 1:
            raise errors.InvalidValueError("voiced_count must be >= 1", lineno)
        try:
            records.append((rec_id, LogF0Stats(mean, std, count)))
        except errors.PseudovoxError as exc:
            raise errors.InvalidValueError(str(exc), lineno) from None
    return records


def serialize_stats(records):
    _require_unique(r[0] for r in records)
    lines = []
    for rec_id, stats in sorted(records, key=lambda r: r[0]):
        lines.append(
            " ".join(
                [
                    _check_out_id(rec_id),
                    _format_float(stats.mean),
                    _format_float(stats.std),
                    str(stats.voiced_frame_count),
                ]
            )
        )
    return _joined(lines)


def parse_embeddings(text):
    records = []
    seen = set()
    gender_of = {}
    dim = None
    for lineno, tokens in _data_lines(text):
        if len(tokens) < 4:
            raise errors.LineSyntaxError("embedding line needs id, utt, gender, values", lineno)
        speaker_id = _parse_id(tokens[0], lineno)
        utt_id = _parse_id(tokens[1], lineno)
        gender_token = tokens[2]
        if (speaker_id, utt_id) in seen:
            raise errors.InvalidValueError(
                f"duplicate embedding for ({speaker_id!r}, {utt_id!r})", lineno
            )
        seen.add((speaker_id, utt_id))
        try:
            gender = Gender.parse(gender_token)
        except errors.PseudovoxError as exc:
            raise _with_line(exc, lineno) from None
        if gender_of.setdefault(speaker_id, gender) is not gender:
            raise errors.InvalidValueError(f"conflicting gender for speaker {speaker_id!r}", lineno)
        values = [_parse_float(t, lineno) for t in tokens[3:]]
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise errors.DimensionMismatchError(
                f"expected {dim} embedding values, got {len(values)}", lineno
            )
        try:
            records.append(SpeakerEmbedding(speaker_id, gender, values, utt_id))
        except errors.PseudovoxError as exc:
            raise _with_line(exc, lineno) from None
    return records


def serialize_embeddings(records):
    keys = []
    for rec in records:
        if rec.utterance_id is None:
            raise errors.InvalidValueError(
                f"embedding for {rec.speaker_id!r} needs an utterance_id to serialize"
            )
        keys.append((rec.speaker_id, rec.utterance_id))
    _require_unique(keys)
    lines = []
    for rec in sorted(records, key=lambda r: (r.speaker_id, r.utterance_id)):
        fields = [
            _check_out_id(rec.speaker_id),
            _check_out_id(rec.utterance_id),
            rec.gender.value,
        ] + [_format_float(v) for v in rec.vector]
        lines.append(" ".join(fields))
    return _joined(lines)


def parse_pool(text):
    records = []
    seen = set()
    dim = None
    for lineno, tokens in _data_lines(text):
        if len(tokens) < 7:
            raise errors.LineSyntaxError(
                "pool line needs id, gender, embedding, '|', three stats", lineno
            )
        if tokens[-4] != "|":
            raise errors.LineSyntaxError("pool line needs a '|' before the F0 stats", lineno)
        speaker_id = _parse_id(tokens[0], lineno)
        if speaker_id in seen:
            raise errors.InvalidValueError(f"duplicate pool speaker {speaker_id!r}", lineno)
        seen.add(speaker_id)
        try:
            gender = Gender.parse(tokens[1])
        except errors.PseudovoxError as exc:
            raise _with_line(exc, lineno) from None
        values = [_parse_float(t, lineno) for t in tokens[2:-4]]
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise errors.DimensionMismatchError(
                f"expected {dim} embedding values, got {len(values)}", lineno
            )
        mean = _parse_float(tokens[-3], lineno)
        std = _parse_float(tokens[-2], lineno)
        count = _parse_uint(tokens[-1], lineno)
        if count < 1:
            raise errors.InvalidValueError("voiced_count must be >= 1", lineno)
        try:
            records.append(PoolSpeaker(speaker_id, gender, values, LogF0Stats(mean, std, count)))
        except errors.PseudovoxError as exc:
            raise _with_line(exc, lineno) from None
    return records


def serialize_pool(records):
    _require_unique(r.speaker_id for r in records)
    lines = []
    for rec in sorted(records, key=lambda r: r.speaker_id):
        fields = (
            [_check_out_id(rec.speaker_id), rec.gender.value]
            + [_format_float(v) for v in rec.mean_embedding]
            + [
                "|",
                _format_float(rec.f0_stats.mean),
                _format_float(rec.f0_stats.std),
                str(rec.f0_stats.voiced_frame_count),
            ]
        )
        lines.append(" ".join(fields))
    return _joined(lines)


def parse_plda(text):
    rows = list(_data_lines(text))
    if not rows:
        raise errors.LineSyntaxError("PLDA file is empty", 1)
    lineno, tokens = rows[0]
    if len(tokens) != 2 or tokens[0] != "dim":
        raise errors.LineSyntaxError("first PLDA line must be 'dim <d>'", lineno)
    dim = _parse_uint(tokens[1], lineno)
    if dim < 1:
        raise errors.InvalidValueError("PLDA dimension must be >= 1", lineno)
    if len(rows) != dim + 3:
        last = rows[-1][0]
        raise errors.LineSyntaxError(
            f"PLDA file needs {dim + 3} data lines for dim {dim}, got {len(rows)}", last
        )

    def vector_line(index, label):
        lineno, tokens = rows[index]
        if len(tokens) != dim + 1 or tokens[0] != label:
            raise errors.LineSyntaxError(f"expected '{label}' followed by {dim} reals", lineno)
        return np.array([_parse_float(t, lineno) for t in tokens[1:]])

    mean = vector_line(1, "mean")
    transform = np.stack([vector_line(2 + i, "transform") for i in range(dim)])
    psi = vector_line(dim + 2, "psi")
    if np.any(psi < 0.0):
        raise errors.InvalidValueError("psi components must be >= 0", rows[dim + 2][0])
    try:
        return PldaModel(mean, transform, psi)
    except errors.PseudovoxError as exc:
        raise _with_line(exc, rows[0][0]) from None


def serialize_plda(model):
    lines = [f"dim {model.dim}"]
    lines.append(" ".join(["mean"] + [_format_float(v) for v in model.mean]))
    for row in model.transform:
        lines.append(" ".join(["transform"] + [_format_float(v) for v in row]))
    lines.append(" ".join(["psi"] + [_format_float(v) for v in model.psi]))
    return _joined(lines)


def parse_scores(text):
    records = []
    seen = set()
    for lineno, tokens in _data_lines(text):
        if len(tokens) != 3:
            raise errors.LineSyntaxError("score line needs enroll, test, score", lineno)
        key = (_parse_id(tokens[0], lineno), _parse_id(tokens[1], lineno))
        if key in seen:
            raise errors.InvalidValueError(f"duplicate trial {key!r}", lineno)
        seen.add(key)
        records.append((key[0], key[1], _parse_float(tokens[2], lineno)))
    return records


def serialize_scores(records):
    _require_unique((r[0], r[1]) for r in records)
    lines = [
        " ".join([_check_out_id(e), _check_out_id(t), _format_float(s)])
        for e, t, s in sorted(records, key=lambda r: (r[0], r[1]))
    ]
    return _joined(lines)


def parse_trials(text):
    records = []
    seen = set()
    for lineno, tokens in _data_lines(text):
        if len(tokens) != 3:
            raise errors.LineSyntaxError("trial line needs enroll, test, label", lineno)
        if tokens[2] not in ("target", "nontarget"):
            raise errors.InvalidValueError(
                f"label must be 'target' or 'nontarget', got {tokens[2]!r}", lineno
            )
        key = (_parse_id(tokens[0], lineno), _parse_id(tokens[1], lineno))
        if key in seen:
            raise errors.InvalidValueError(f"duplicate trial {key!r}", lineno)
        seen.add(key)
        records.append((key[0], key[1], tokens[2] == "target"))
    return records


def serialize_trials(records):
    _require_unique((r[0], r[1]) for r in records)
    lines = [
        " ".join([_check_out_id(e), _check_out_id(t), "target" if is_tar else "nontarget"])
        for e, t, is_tar in sorted(records, key=lambda r: (r[0], r[1]))
    ]
    return _joined(lines)


def parse_mapping(text):
    records = []
    seen = set()
    for lineno, tokens in _data_lines(text):
        if len(tokens) < 3:
            raise errors.LineSyntaxError("mapping line needs source, seed, members", lineno)
        source = _parse_id(tokens[0], lineno)
        if source in seen:
            raise errors.InvalidValueError(f"duplicate mapping for {source!r}", lineno)
        seen.add(source)
        seed = _parse_uint(tokens[1], lineno)
        members = tuple(_parse_id(t, lineno) for t in tokens[2:])
        if len(set(members)) != len(members):
            raise errors.InvalidValueError("mapping members must be unique", lineno)
        records.append((source, seed, members))
    return records


def serialize_mapping(records):
    _require_unique(r[0] for r in records)
    lines = []
    for source, seed, members in sorted(records, key=lambda r: r[0]):
        lines.append(
            " ".join([_check_out_id(source), str(seed)] + [_check_out_id(m) for m in members])
        )
    return _joined(lines)


def serialize_det(points):
    return _joined([f"{_format_float(x)} {_format_float(y)}" for x, y in points])


REPORT_KEYS = ("eer_pct", "cllr_bits", "min_cllr_bits", "n_target_trials", "n_nontarget_trials")


def parse_report(text):
    values = {}
    for lineno, tokens in _data_lines(text):
        if len(tokens) != 2:
            raise errors.LineSyntaxError("report line needs 'key value'", lineno)
        key, value = tokens
        if key not in REPORT_KEYS:
            raise errors.InvalidValueError(f"unknown report key {key!r}", lineno)
        if key in values:
            raise errors.InvalidValueError(f"duplicate report key {key!r}", lineno)
        values[key] = (value, lineno)
    missing = [k for k in REPORT_KEYS if k not in values]
    if missing:
        raise errors.LineSyntaxError(f"report is missing keys: {', '.join(missing)}", 1)
    return EvalReport(
        eer_pct=_parse_float(*values["eer_pct"]),
        cllr_bits=_parse_float(*values["cllr_bits"]),
        min_cllr_bits=_parse_float(*values["min_cllr_bits"]),
        n_target_trials=_parse_uint(*values["n_target_trials"]),
        n_nontarget_trials=_parse_uint(*values["n_nontarget_trials"]),
    )


def serialize_report(report):
    lines = [
        f"eer_pct {_format_float(report.eer_pct)}",
        f"cllr_bits {_format_float(report.cllr_bits)}",
        f"min_cllr_bits {_format_float(report.min_cllr_bits)}",
        f"n_target_trials {report.n_target_trials}",
        f"n_nontarget_trials {report.n_nontarget_trials}",
    ]
    return _joined(lines)


def parse_keyvalues(text):
    values = {}
    for lineno, tokens in _data_lines(text):
        if len(tokens) != 2:
            raise errors.LineSyntaxError("expected 'key value'", lineno)
        key, value = _parse_id(tokens[0], lineno), _parse_id(tokens[1], lineno)
        if key in values:
            raise errors.InvalidValueError(f"duplicate key {key!r}", lineno)
        values[key] = value
    return values


def serialize_keyvalues(values):
    lines = [f"{_check_out_id(k)} {_check_out_id(str(v))}" for k, v in sorted(values.items())]
    return _joined(lines)


# --- metric loops and sort-built simulate rows ---------------------------------

_LN2 = float(np.log(2.0))


def _tied_groups(tar, non):
    """Distinct pooled score values (ascending) with trial and target counts."""
    pooled = np.concatenate([tar, non])
    labels = np.concatenate([np.ones(tar.size), np.zeros(non.size)])
    distinct, inverse = np.unique(pooled, return_inverse=True)
    trials = np.bincount(inverse, minlength=distinct.size).astype(np.float64)
    targets = np.bincount(inverse, weights=labels, minlength=distinct.size)
    return distinct, inverse, trials, targets


def _pav_blocks(trials, targets):
    """Per-block [trial_count, target_count], nondecreasing target proportion."""
    blocks = []
    for w, t in zip(trials, targets):
        blocks.append([float(w), float(t)])
        # merge while previous proportion >= current: t1/w1 >= t2/w2
        while len(blocks) > 1 and blocks[-2][1] * blocks[-1][0] >= blocks[-1][1] * blocks[-2][0]:
            w2, t2 = blocks.pop()
            blocks[-1][0] += w2
            blocks[-1][1] += t2
    return blocks


def _rocch_vertices(tar, non, blocks):
    """Vertices (p_miss, p_fa) of the ROC convex hull, p_fa descending."""
    n_tar = float(tar.size)
    n_non = float(non.size)
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


def _eer(tar, non, blocks):
    p_miss, p_fa = _rocch_vertices(tar, non, blocks)
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


def _optimal_llrs(tar, non, inverse, trials, blocks):
    """PAV-calibrated natural-log LLRs per trial (targets, nontargets)."""
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
    prior_log_odds = np.log(tar.size / non.size)
    llr_per_group = post_log_odds - prior_log_odds
    llr_per_trial = llr_per_group[inverse]
    return llr_per_trial[: tar.size], llr_per_trial[tar.size :]


def _min_cllr(tar, non, inverse, trials, blocks):
    tar_llr, non_llr = _optimal_llrs(tar, non, inverse, trials, blocks)
    c_tar = float(np.mean(np.logaddexp(0.0, -tar_llr)))
    c_non = float(np.mean(np.logaddexp(0.0, non_llr)))
    return 0.5 * (c_tar + c_non) / _LN2


def loop_eer(tar, non):
    """ROCCH-EER from the per-block vertex loop and the per-segment loop."""
    _, _, trials, targets = _tied_groups(tar, non)
    return _eer(tar, non, _pav_blocks(trials, targets))


def loop_min_cllr(tar, non):
    """Min-Cllr with each group's posterior filled in by a per-group loop."""
    _, inverse, trials, targets = _tied_groups(tar, non)
    return _min_cllr(tar, non, inverse, trials, _pav_blocks(trials, targets))


def loop_evaluate(tar, non):
    """``EvalReport`` from one PAV fit shared by the two loops above."""
    _, inverse, trials, targets = _tied_groups(tar, non)
    blocks = _pav_blocks(trials, targets)
    c_tar = float(np.mean(np.logaddexp(0.0, -tar)))
    c_non = float(np.mean(np.logaddexp(0.0, non)))
    return EvalReport(
        eer_pct=100.0 * _eer(tar, non, blocks),
        cllr_bits=0.5 * (c_tar + c_non) / _LN2,
        min_cllr_bits=_min_cllr(tar, non, inverse, trials, blocks),
        n_target_trials=int(tar.size),
        n_nontarget_trials=int(non.size),
    )


def loop_det_points(tar, non):
    """DET points from a per-group threshold sweep, ascending in p_fa.

    The swept points hold NumPy scalars, where the library returns Python
    floats of the same values."""
    _, _, trials, targets = _tied_groups(tar, non)
    n_tar = float(tar.size)
    n_non = float(non.size)
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


def sorted_trial_rows(cohort, enroll_utts, trial_utts, attacker, f0_weight):
    """Scores, rows and f0 weight of one scenario, rows built per trial.

    Takes ``simulate._score_trials``'s arguments. Returns (score set, score
    rows, trial rows, f0 weight used): one 4-tuple per (enroll, trial) cell,
    sorted on (enroll id, utterance id) keys, then split into the
    (enroll, utt, score) and (enroll, utt, target) records of ``scores.txt``
    and ``trials.txt``.
    """
    enroll_latents = project_many(
        cohort.plda, np.stack([u.embedding for u in enroll_utts]), length_norm=False
    )
    trial_latents = project_many(
        cohort.plda, np.stack([u.embedding for u in trial_utts]), length_norm=False
    )
    scores = plda_score_matrix(cohort.plda, enroll_latents, trial_latents)
    weight_used = None
    if attacker is AttackerModel.EMBEDDING_PLUS_F0:
        enroll_f0 = np.array([compute_log_f0_stats(u.contour).mean for u in enroll_utts])
        trial_f0 = np.array([compute_log_f0_stats(u.contour).mean for u in trial_utts])
        f0_term = -np.abs(enroll_f0[:, None] - trial_f0[None, :])
        if f0_weight is None:
            spread = float(f0_term.std())
            weight_used = float(scores.std()) / spread if spread > 1e-12 else 0.0
        else:
            weight_used = float(f0_weight)
        scores = scores + weight_used * f0_term
    labels = np.array(
        [[e.speaker_id == t.speaker_id for t in trial_utts] for e in enroll_utts]
    )
    score_set = TrialScoreSet(scores[labels], scores[~labels])
    rows = [
        (e.speaker_id, t.utterance_id, float(scores[i, j]), bool(labels[i, j]))
        for i, e in enumerate(enroll_utts)
        for j, t in enumerate(trial_utts)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    score_rows = [(e, u, s) for e, u, s, _ in rows]
    trial_rows = [(e, u, t) for e, u, _, t in rows]
    return score_set, score_rows, trial_rows, weight_used


def dict_join(scores, key_rows):
    """``eval``'s join of score rows to key rows through a pair dict and a
    key set: the scores of the key's target and nontarget trials, in key
    order. Raises ``InvalidValueError`` with the message ``eval`` fails with.
    """
    def fail(message):
        raise errors.InvalidValueError(message)

    score_by_trial = {(e, t): s for e, t, s in scores}
    key_set = {(e, t) for e, t, _ in key_rows}
    for pair in score_by_trial:
        if pair not in key_set:
            fail(f"score for {pair!r} has no trial-key entry")
    target, nontarget = [], []
    for enroll_id, test_id, is_target in key_rows:
        if (enroll_id, test_id) not in score_by_trial:
            fail(f"trial ({enroll_id!r}, {test_id!r}) has no score")
        (target if is_target else nontarget).append(
            score_by_trial[(enroll_id, test_id)]
        )
    return TrialScoreSet(np.array(target), np.array(nontarget))


def tuple_score(plda_file, enroll_file, trial_embeddings, trial_key, length_norm=True):
    """``score``'s outputs built from ``parse_trials`` tuples: the id checks
    in key order, one ``plda_score_pairs`` call, the finiteness check, a row
    tuple per trial and ``serialize_scores``. Returns the texts of the score
    file and of its manifest, or raises ``InvalidValueError`` with the
    message of ``score``. The inputs must parse, with the model's dimension.
    """
    entries = {"format_version": FORMAT_VERSION, "package_version": __version__, "command": "score",
               "length_norm": "true" if length_norm else "false"}

    def read(path, name, parse):
        data = Path(path).read_bytes()
        entries[f"input_sha256_{name}"] = hashlib.sha256(data).hexdigest()
        return parse(data.decode("utf-8"))

    model = read(plda_file, "plda", formats.parse_plda)
    enroll = read(enroll_file, "enroll", formats.parse_embeddings)
    trials_emb = read(trial_embeddings, "trial_embeddings", formats.parse_embeddings)
    key_rows = read(trial_key, "trial_key", formats.parse_trials)

    enroll_row = {sid: row for row, sid in enumerate(dict.fromkeys(e.speaker_id for e in enroll))}
    test_row = {e.utterance_id: row for row, e in enumerate(trials_emb)}
    for enroll_id, test_id, _ in key_rows:
        if enroll_id not in enroll_row:
            raise errors.InvalidValueError(f"enrollment speaker {enroll_id!r} missing from {enroll_file}")
        if test_id not in test_row:
            raise errors.InvalidValueError(f"trial utterance {test_id!r} missing from {trial_embeddings}")
    with np.errstate(over="ignore", invalid="ignore"):
        enroll_latents = {}
        for emb in enroll:
            enroll_latents.setdefault(emb.speaker_id, []).append(project(model, emb, length_norm=length_norm))
        llrs = plda_score_pairs(
            model,
            np.array([np.mean(latents, axis=0) for latents in enroll_latents.values()]).reshape(-1, model.dim),
            np.array([project(model, emb, length_norm=length_norm) for emb in trials_emb]).reshape(-1, model.dim),
            np.array([enroll_row[e] for e, _, _ in key_rows], dtype=np.intp),
            np.array([test_row[t] for _, t, _ in key_rows], dtype=np.intp),
        )
    non_finite = np.flatnonzero(~np.isfinite(llrs))
    if non_finite.size:
        enroll_id, test_id, _ = key_rows[non_finite[0]]
        raise errors.InvalidValueError(f"score of trial ({enroll_id!r}, {test_id!r}) is not finite")
    rows = [(e, t, llr) for (e, t, _), llr in zip(key_rows, llrs.tolist())]
    entries["n_trials"] = str(len(rows))
    return formats.serialize_scores(rows), serialize_keyvalues(entries)
