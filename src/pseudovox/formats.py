"""Line-oriented text formats with strict validation and byte-stable output.

All formats share one set of rules: UTF-8 with LF line endings, ``#``-prefixed
comment lines and blank lines are skipped, fields are whitespace-separated on
input and single-space separated on output, reals are written in shortest
round-trip decimal, and every output line ends in LF. Unknown trailing fields
are a parse error.

Every format with a record key follows three record rules, each written once:

- a key appears on one line only (``_records`` reads every keyed format);
- a parse error names the first bad (1-based) line;
- output is sorted by key, and each distinct id is checked once
  (``_sorted_text``; the grid writers sort two id lists, not rows, and
  ``_score_chunks`` takes columns put in key order by ``_in_pair_order``).

The keys: contours the utterance id, stats the stats id, embeddings
(speaker, utterance), pool the pool speaker id, scores and trials (enroll,
test), mapping the source speaker, keyvalues (configs, manifests) and report
the key. Within a line the checks run in one order: shape, ids, duplicate
key, values, constructor. A report is written in its fixed key order, and its
values are read in that order after its last line. PLDA and DET files have no
key.

Lines end at LF only: every other character that ``str.splitlines`` breaks at
(CR, form feed, U+2028, ...) is whitespace inside a line, so a CRLF file
parses and line numbers count LFs. Reals and counts take ASCII digits only.

The fast path checks, the per-token path reports. The value tokens of a vector
line (contours, embeddings, pool, PLDA) are checked without a regex: they must
be ASCII with no ``_``, each must convert with ``float`` and all must be
finite (``float`` accepts the real grammar plus non-ASCII digits, ``_``
between digits and inf/nan, which these checks reject). A score or trial file
is checked as a whole with one regex pass over its lines and one finiteness
check, and is read as columns (``_score_columns``, ``_trial_columns``): two id
lists, one value array and whether the pairs are in order. It is split a
block of lines at a time, and its ids are interned: a column holds one
``str`` per distinct id, the same object in every file read this way. Its
(enroll, test) pairs are checked for repeats with one strictly-increasing
pass, whose answer is that order flag; only pairs that are not sorted build a
set. Whatever these checks do not accept goes through the per-token code,
which accepts the same records and raises the first error with its line
number. ``parse_scores`` and ``parse_trials`` return those columns as
tuples. Serializers write every real through ``_real_fields``, in
``repr``'s spelling of a Python float: made in C by ``orjson`` for finite
magnitudes in [1e-4, 1e16) and zeros, and by ``repr`` outside that band.
``_score_chunks`` is the one writer of score lines: it writes columns in
pair order, a fixed number of lines per chunk, for ``score`` and
``serialize_scores``. The grid writers (``serialize_score_grid``,
``serialize_trial_grid``) write the all-pairs rows
of an (enroll, utt) matrix without building them: they sort each id list once,
reorder the matrix to match and write each enrollment row from precomputed
``" <utt> ..."`` tails, with the bytes and errors of the row writers. Each
joins one row generator (``_score_grid_rows``, ``_trial_grid_rows``), which
makes every check when it is called and then yields the text of one
enrollment row at a time; the command line writes those texts into the file
and its hash as they come, so the whole grid text is never built there.

Grammars
--------
contours    ``<utterance_id> <v1> ... <vN>``          (Hz, 0.0 = unvoiced)
stats       ``<id> <mean> <std> <voiced_count>``      (natural-log Hz)
embeddings  ``<speaker_id> <utterance_id> <M|F> <d reals>``
pool        ``<speaker_id> <M|F> <d reals> | <f0_mean> <f0_std> <voiced_count>``
plda        ``dim d`` / ``mean ...`` / d x ``transform ...`` / ``psi ...``
scores      ``<enroll_speaker_id> <test_utterance_id> <score>``
trials      ``<enroll_speaker_id> <test_utterance_id> <target|nontarget>``
mapping     ``<source_speaker_id> <seed_used> <member_1> ... <member_k>``
det         ``<p_fa> <p_miss>``                       (row order preserved)
report      fixed ``key value`` lines (eer_pct, cllr_bits, min_cllr_bits, ...)
keyvalues   generic ``key value`` lines (configs, run manifests)
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
from itertools import chain, count, pairwise, starmap
from operator import add, attrgetter, getitem, itemgetter, lt

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidValueError,
    LineSyntaxError,
    PseudovoxError,
)
from .f0 import F0Contour, LogF0Stats
from .metrics import EvalReport
from .plda import Gender, PldaModel, SpeakerEmbedding
from .selection import PoolSpeaker

__all__ = [
    "parse_contours",
    "serialize_contours",
    "parse_stats",
    "serialize_stats",
    "parse_embeddings",
    "serialize_embeddings",
    "parse_pool",
    "serialize_pool",
    "parse_plda",
    "serialize_plda",
    "parse_scores",
    "serialize_scores",
    "serialize_score_grid",
    "parse_trials",
    "serialize_trials",
    "serialize_trial_grid",
    "parse_mapping",
    "serialize_mapping",
    "parse_det",
    "serialize_det",
    "parse_report",
    "serialize_report",
    "parse_keyvalues",
    "serialize_keyvalues",
    "format_float",
    "sha256_hex",
    "decode_text",
]

_REAL = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT_RE = re.compile(_REAL + r"\Z", re.ASCII)
_UINT_RE = re.compile(r"\d+\Z", re.ASCII)
# Fast paths: the line patterns take ids of printable ASCII not starting with
# '#'; any other id leaves the file to the per-token path.
_ID = r"[!\"$-~][!-~]*"
_SCORE_LINE_RE = re.compile(rf"{_ID} {_ID} {_REAL}\n", re.ASCII)
_TRIAL_LINE_RE = re.compile(rf"{_ID} {_ID} (?:target|nontarget)\n", re.ASCII)
_pair = itemgetter(0, 1)
_CHUNK_LINES = 4096  # lines per text chunk of ``_score_chunks``
_BLOCK_CHARS = 1 << 16  # characters of a score or trial file that ``_pair_columns`` splits at a time


def decode_text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LineSyntaxError(f"input is not valid UTF-8: {exc}") from None


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def format_float(value: float) -> str:
    """Shortest decimal that round-trips to the exact float64 value."""
    return _real_fields([float(value)])[0]


def _data_lines(text: str, split: bool = True):
    """(line number, tokens) of each data line, cut from ``text`` one at a
    time; (line number, stripped line) if not ``split``.

    ``text.split("\n")`` would put every line of a large file in the heap at
    once, beside the records parsed from it; whether a later file of similar
    size then fits in the freed lines or grows the heap depends on allocation
    details as small as the length of a path, and so does the peak RSS.
    """
    start = 0
    for lineno in count(1):
        end = text.find("\n", start)
        stripped = text[start:end if end >= 0 else None].strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped.split() if split else stripped
        if end < 0:
            return
        start = end + 1


def _parse_float(token: str, line: int) -> float:
    if not _FLOAT_RE.match(token):
        raise LineSyntaxError(f"expected a decimal real, got {token!r}", line)
    value = float(token)
    if not math.isfinite(value):
        raise InvalidValueError(f"non-finite value {token!r}", line)
    return value


def _parse_uint(token: str, line: int) -> int:
    if not _UINT_RE.match(token):
        raise LineSyntaxError(f"expected an unsigned integer, got {token!r}", line)
    value = int(token)
    if value >= (1 << 64):
        raise InvalidValueError(f"integer {token} does not fit in 64 bits", line)
    return value


def _parse_id(token: str, line: int) -> str:
    # ids starting with '#' are unrepresentable at line starts (comment rule)
    if token.startswith("#"):
        raise InvalidValueError(f"id {token!r} may not start with '#'", line)
    return token


def _check_out_id(identifier: str) -> str:
    if not identifier or any(c.isspace() for c in identifier) or identifier.startswith("#"):
        raise InvalidValueError(f"id {identifier!r} is not serializable")
    return identifier


def _parse_reals(tokens: list[str], line: int) -> np.ndarray:
    """The reals of one line: an ASCII and no-``_`` check, one ``float`` per
    token and one finiteness check, or else the per-token ``_parse_float`` loop.

    ``str.split`` tokens hold no whitespace, and on such a token ``float``
    accepts ``_REAL``, non-ASCII digits, ``_`` between digits and signed
    inf/nan in any case, so the three checks accept exactly ``_FLOAT_RE`` plus
    a finite value.
    """
    joined = " ".join(tokens)
    if joined.isascii() and "_" not in joined:
        try:
            values = np.fromiter(map(float, tokens), np.float64, len(tokens))
            if np.isfinite(values).all():
                return values
        except ValueError:
            pass
    # rejected: the per-token loop names the first bad token
    return np.array([_parse_float(t, line) for t in tokens], dtype=np.float64)


def _real_fields(values) -> list[str]:
    """The text of each value of ``values`` as a float64, in C order: the
    one writer of reals. Its spelling is ``repr`` of a Python float (the
    shortest decimal that round-trips), never of ``np.float64``.

    One ``orjson`` call writes the whole array in compiled code. For finite
    values with magnitude in [1e-4, 1e16), and for zeros, its shortest
    digits in positional form are ``repr``'s; the values outside that band
    (where ``orjson`` writes ``1e16``, ``0.00001`` or ``null``), found with one
    vectorized mask, are written by ``repr``. ``orjson`` is imported on first
    use, so a command that writes no real never loads it.
    """
    import orjson

    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not values.size:
        return []
    fields = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(values)
    for i in np.flatnonzero(((size < 1e-4) & (values != 0)) | ~(size < 1e16)).tolist():
        fields[i] = repr(values[i].item())
    return fields


def _check_out_ids(ids) -> None:
    """``_check_out_id`` once per distinct id, in first-appearance order."""
    for identifier in dict.fromkeys(ids):
        _check_out_id(identifier)


def _tiled_by(line_re: re.Pattern, text: str) -> bool:
    """Whether ``text`` is a run of ``line_re`` matches, each ending in LF.

    ``sub`` removes every match in one C-level pass, and nothing is left only
    when the matches tile the text. One ``(?:line)*`` match would instead keep
    backtracking state for every line (hundreds of MB on 1M lines).
    """
    return not line_re.sub("", text)


def _with_line(exc: PseudovoxError, line: int) -> PseudovoxError:
    return type(exc)(str(exc), line) if isinstance(exc, (LineSyntaxError, InvalidValueError, DimensionMismatchError)) else InvalidValueError(str(exc), line)


# --- contours ---------------------------------------------------------------


def parse_contours(text: str) -> list[F0Contour]:
    return _records(text, "duplicate utterance id", lambda tokens, line: _parse_id(tokens[0], line),
                    lambda tokens, utt_id, line: F0Contour(utt_id, _parse_reals(tokens[1:], line)))


def serialize_contours(records: list[F0Contour]) -> str:
    return _sorted_text(records, attrgetter, ("utterance_id",), lambda r: (r.utterance_id,),
                        lambda rows: [" ".join([r.utterance_id, *_real_fields(r.values)]) for r in rows])


# --- stats ------------------------------------------------------------------


def _stats_key(tokens: list[str], line: int) -> str:
    if len(tokens) != 4:
        raise LineSyntaxError(f"stats line needs 4 fields, got {len(tokens)}", line)
    return _parse_id(tokens[0], line)


def parse_stats(text: str) -> list[tuple[str, LogF0Stats]]:
    return _records(text, "duplicate stats id", _stats_key,
                    lambda tokens, rec_id, line: (rec_id, _log_f0_stats(tokens[1:], line)))


def serialize_stats(records: list[tuple[str, LogF0Stats]]) -> str:
    return _sorted_text(records, itemgetter, (0,), lambda r: (r[0],),
                        lambda rows: [" ".join([r[0], *_stats_fields(r[1])]) for r in rows])


def _log_f0_stats(tokens: list[str], line: int) -> LogF0Stats:
    """The stats of ``<mean> <std> <voiced_count>`` (a stats or pool line)."""
    mean, std = _parse_reals(tokens[:2], line).tolist()
    count = _parse_uint(tokens[2], line)
    if count < 1:
        raise InvalidValueError("voiced_count must be >= 1", line)
    return LogF0Stats(mean, std, count)


def _stats_fields(stats: LogF0Stats) -> list[str]:
    return [*_real_fields([stats.mean, stats.std]), str(stats.voiced_frame_count)]


# --- embeddings -------------------------------------------------------------


def _embedding_key(tokens: list[str], line: int) -> tuple[str, str]:
    if len(tokens) < 4:
        raise LineSyntaxError("embedding line needs id, utt, gender, values", line)
    return _two_ids(tokens, line)


def parse_embeddings(text: str) -> list[SpeakerEmbedding]:
    gender_of: dict[str, Gender] = {}
    vector = _one_dim_reals()

    def build(tokens: list[str], key: tuple[str, str], line: int) -> SpeakerEmbedding:
        gender = Gender.parse(tokens[2])
        if gender_of.setdefault(key[0], gender) is not gender:
            raise InvalidValueError(f"conflicting gender for speaker {key[0]!r}", line)
        return SpeakerEmbedding(key[0], gender, vector(tokens[3:], line), key[1])

    return _records(text, "duplicate embedding for", _embedding_key, build)


def serialize_embeddings(records: list[SpeakerEmbedding]) -> str:
    for rec in records:
        if rec.utterance_id is None:
            raise InvalidValueError(
                f"embedding for {rec.speaker_id!r} needs an utterance_id to serialize"
            )
    fields = ("speaker_id", "utterance_id")
    return _sorted_text(records, attrgetter, fields, attrgetter(*fields), lambda rows: [" ".join(
        [r.speaker_id, r.utterance_id, r.gender.value, *_real_fields(r.vector)]) for r in rows])


# --- pool manifest ----------------------------------------------------------


def _pool_key(tokens: list[str], line: int) -> str:
    if len(tokens) < 7:
        raise LineSyntaxError("pool line needs id, gender, embedding, '|', three stats", line)
    if tokens[-4] != "|":
        raise LineSyntaxError("pool line needs a '|' before the F0 stats", line)
    return _parse_id(tokens[0], line)


def parse_pool(text: str) -> list[PoolSpeaker]:
    vector = _one_dim_reals()

    def build(tokens: list[str], speaker_id: str, line: int) -> PoolSpeaker:
        gender = Gender.parse(tokens[1])
        return PoolSpeaker(speaker_id, gender, vector(tokens[2:-4], line), _log_f0_stats(tokens[-3:], line))

    return _records(text, "duplicate pool speaker", _pool_key, build)


def serialize_pool(records: list[PoolSpeaker]) -> str:
    return _sorted_text(records, attrgetter, ("speaker_id",), lambda r: (r.speaker_id,), lambda rows: [
        " ".join([r.speaker_id, r.gender.value, *_real_fields(r.mean_embedding), "|", *_stats_fields(r.f0_stats)])
        for r in rows])


# --- PLDA model -------------------------------------------------------------


def parse_plda(text: str) -> PldaModel:
    """The model of a PLDA file. A first pass numbers the data lines without
    splitting them; then each vector line is split and parsed as it is read."""
    numbers = [lineno for lineno, _ in _data_lines(text, split=False)]
    if not numbers:
        raise LineSyntaxError("PLDA file is empty", 1)
    rows = _data_lines(text)
    lineno, tokens = next(rows)
    if len(tokens) != 2 or tokens[0] != "dim":
        raise LineSyntaxError("first PLDA line must be 'dim <d>'", lineno)
    dim = _parse_uint(tokens[1], lineno)
    if dim < 1:
        raise InvalidValueError("PLDA dimension must be >= 1", lineno)
    if len(numbers) != dim + 3:
        raise LineSyntaxError(
            f"PLDA file needs {dim + 3} data lines for dim {dim}, got {len(numbers)}", numbers[-1]
        )

    def vector_line(label: str) -> np.ndarray:
        lineno, tokens = next(rows)
        if len(tokens) != dim + 1 or tokens[0] != label:
            raise LineSyntaxError(
                f"expected '{label}' followed by {dim} reals", lineno
            )
        return _parse_reals(tokens[1:], lineno)

    mean = vector_line("mean")
    transform = np.stack([vector_line("transform") for _ in range(dim)])
    psi = vector_line("psi")
    if np.any(psi < 0.0):
        raise InvalidValueError("psi components must be >= 0", numbers[-1])
    try:
        return PldaModel(mean, transform, psi)
    except PseudovoxError as exc:
        raise _with_line(exc, numbers[0]) from None


def serialize_plda(model: PldaModel) -> str:
    lines = [f"dim {model.dim}"]
    lines.append(" ".join(["mean", *_real_fields(model.mean)]))
    for row in model.transform:
        lines.append(" ".join(["transform", *_real_fields(row)]))
    lines.append(" ".join(["psi", *_real_fields(model.psi)]))
    return _joined(lines)


# --- scores and trial keys --------------------------------------------------


def parse_scores(text: str) -> list[tuple[str, str, float]]:
    enroll, test, scores, _ = _score_columns(text)
    return list(zip(enroll, test, scores.tolist()))


def _score_columns(text: str) -> tuple[list[str], list[str], np.ndarray, bool]:
    """The enroll ids, test ids and float64 scores of a score file, and
    whether its pairs go strictly up."""
    return _pair_columns(text, _SCORE_LINE_RE, float, np.float64, _score_key, _parse_float)


def _in_pair_order(enroll: list[str], test: list[str], values: np.ndarray,
                   in_order: bool) -> tuple[list[str], list[str], np.ndarray]:
    """The columns of a column reader, or of ids and values in the same
    form, in (enroll, test) order; ``in_order`` is the reader's flag that
    they already are. The pairs must not repeat.

    Two stable sorts, test then enroll, give the order of ``_sorted_text``.
    Score lines are written in that order. ``eval`` puts its key in it
    because the Cllr sums add the trials in key order and their last bits
    depend on that order; a key in pair order gives each trial set one report.
    """
    if in_order:
        return enroll, test, values
    order = sorted(range(len(enroll)), key=test.__getitem__)
    order.sort(key=enroll.__getitem__)
    return [enroll[i] for i in order], [test[i] for i in order], values[order]


def _score_chunks(enroll: list[str], test: list[str], scores: np.ndarray):
    """The score lines of the rows ``(enroll[i], test[i], scores[i])`` in
    chunks of ``_CHUNK_LINES`` lines; the rows must be in pair order with no
    repeat. Each distinct id is checked once, in written order, first."""
    _check_out_ids(chain.from_iterable(zip(enroll, test)))
    for i in range(0, len(enroll), _CHUNK_LINES):
        rows = zip(enroll[i:i + _CHUNK_LINES], test[i:i + _CHUNK_LINES], _real_fields(scores[i:i + _CHUNK_LINES]))
        yield _joined([f"{e} {t} {s}" for e, t, s in rows])


def _score_key(tokens: list[str], line: int) -> tuple[str, str]:
    if len(tokens) != 3:
        raise LineSyntaxError("score line needs enroll, test, score", line)
    return _two_ids(tokens, line)


def serialize_scores(records: list[tuple[str, str, float]]) -> str:
    enroll, test = [r[0] for r in records], [r[1] for r in records]
    in_order = _strictly_up(zip(enroll, test)) or _require_unique(zip(enroll, test))  # raises on a repeat
    return "".join(_score_chunks(*_in_pair_order(enroll, test, np.array([float(r[2]) for r in records]), in_order)))


def parse_trials(text: str) -> list[tuple[str, str, bool]]:
    enroll, test, labels, _ = _trial_columns(text)
    return list(zip(enroll, test, labels.tolist()))


def _trial_columns(text: str) -> tuple[list[str], list[str], np.ndarray, bool]:
    """The enroll ids, test ids and bool labels (True for target) of a trial
    file, and whether its pairs go strictly up."""
    return _pair_columns(text, _TRIAL_LINE_RE, "target".__eq__, bool, _trial_key,
                         lambda token, line: token == "target")


def _trial_key(tokens: list[str], line: int) -> tuple[str, str]:
    if len(tokens) != 3:
        raise LineSyntaxError("trial line needs enroll, test, label", line)
    if tokens[2] not in ("target", "nontarget"):
        raise InvalidValueError(
            f"label must be 'target' or 'nontarget', got {tokens[2]!r}", line
        )
    return _two_ids(tokens, line)


def serialize_trials(records: list[tuple[str, str, bool]]) -> str:
    return _sorted_text(records, itemgetter, (0, 1), _pair,
                        lambda rows: [f"{e} {t} {'target' if is_tar else 'nontarget'}" for e, t, is_tar in rows])


def _pair_columns(text: str, line_re: re.Pattern, convert, dtype, key,
                  value) -> tuple[list[str], list[str], np.ndarray, bool]:
    """The (enroll, test, value) records of a score or trial file as three
    columns, two id lists and a ``dtype`` array, and whether the (enroll,
    test) pairs go strictly up.

    The fast path takes a file tiled by ``line_re``. It splits the text in
    blocks of whole lines of about ``_BLOCK_CHARS`` characters, so the tokens
    of one block are alive at a time, not those of the whole file; it runs
    ``convert`` on each value token, passes each id through ``sys.intern``
    and checks the values for finiteness once. So a column holds one ``str``
    per distinct id, shared with every other file read this way, and equal
    id columns of two files compare by identity. The pairs are checked for
    repeats with one strictly-increasing pass, which also gives the order
    flag, and only pairs that are not sorted build a set. Any other file goes
    through ``_records`` with ``key`` and ``value(token, line)``, which raise
    the first error with its line number, and its records are transposed.
    """
    if _tiled_by(line_re, text):
        enroll, test, values = [], [], np.empty(text.count("\n"), dtype)
        start = 0
        while start < len(text):
            end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
            fields = text[start:end].split()
            values[len(enroll):len(enroll) + len(fields) // 3] = np.fromiter(map(convert, fields[2::3]), dtype)
            enroll += map(sys.intern, fields[0::3])
            test += map(sys.intern, fields[1::3])
            start = end
        if np.isfinite(values).all():
            if _strictly_up(zip(enroll, test)):
                return enroll, test, values, True
            if len(set(zip(enroll, test))) == len(enroll):
                return enroll, test, values, False
    records = _records(text, "duplicate trial", key, lambda tokens, pair, line: (*pair, value(tokens[2], line)))
    enroll, test = [r[0] for r in records], [r[1] for r in records]
    return enroll, test, np.array([r[2] for r in records], dtype), _strictly_up(zip(enroll, test))


def serialize_score_grid(enroll_ids: list[str], utt_ids: list[str], scores) -> str:
    """``serialize_scores`` of the rows ``(enroll_ids[i], utt_ids[j], scores[i, j])``."""
    return "".join(_score_grid_rows(enroll_ids, utt_ids, scores))


def serialize_trial_grid(enroll_ids: list[str], utt_ids: list[str], labels) -> str:
    """``serialize_trials`` of the rows ``(enroll_ids[i], utt_ids[j], labels[i, j])``."""
    return "".join(_trial_grid_rows(enroll_ids, utt_ids, labels))


def _score_grid_rows(enroll_ids, utt_ids, scores):
    """The text of ``serialize_score_grid``, one enrollment row at a time."""
    enroll, utts, matrix = _sorted_grid(enroll_ids, utt_ids, scores, np.float64)
    tails = [f" {u} " for u in utts]
    return _grid_rows(enroll, (map(add, tails, _real_fields(row)) for row in matrix))


def _trial_grid_rows(enroll_ids, utt_ids, labels):
    """The text of ``serialize_trial_grid``, one enrollment row at a time."""
    enroll, utts, matrix = _sorted_grid(enroll_ids, utt_ids, labels, bool)
    tails = [(f" {u} nontarget", f" {u} target") for u in utts]
    return _grid_rows(enroll, (map(getitem, tails, row.tolist()) for row in matrix))


# --- pseudo-speaker mapping -------------------------------------------------


def _mapping_key(tokens: list[str], line: int) -> str:
    if len(tokens) < 3:
        raise LineSyntaxError("mapping line needs source, seed, members", line)
    return _parse_id(tokens[0], line)


def _mapping_record(tokens: list[str], source: str, line: int) -> tuple[str, int, tuple[str, ...]]:
    seed = _parse_uint(tokens[1], line)
    members = tuple(_parse_id(t, line) for t in tokens[2:])
    if len(set(members)) != len(members):
        raise InvalidValueError("mapping members must be unique", line)
    return source, seed, members


def parse_mapping(text: str) -> list[tuple[str, int, tuple[str, ...]]]:
    return _records(text, "duplicate mapping for", _mapping_key, _mapping_record)


def serialize_mapping(records: list[tuple[str, int, tuple[str, ...]]]) -> str:
    return _sorted_text(records, itemgetter, (0,), lambda r: (r[0], *r[2]),
                        lambda rows: [" ".join([r[0], str(r[1]), *r[2]]) for r in rows])


# --- DET export -------------------------------------------------------------


def parse_det(text: str) -> list[tuple[float, float]]:
    points = []
    for lineno, tokens in _data_lines(text):
        if len(tokens) != 2:
            raise LineSyntaxError("DET line needs two columns: p_fa p_miss", lineno)
        p_fa = _parse_float(tokens[0], lineno)
        p_miss = _parse_float(tokens[1], lineno)
        if not (0.0 <= p_fa <= 1.0 and 0.0 <= p_miss <= 1.0):
            raise InvalidValueError("DET rates must lie in [0, 1]", lineno)
        points.append((p_fa, p_miss))
    return points


def serialize_det(points: list[tuple[float, float]]) -> str:
    return "".join(_det_chunks(np.array([(float(x), float(y)) for x, y in points]).reshape(-1, 2)))


def _det_chunks(points: np.ndarray):
    """The text of ``serialize_det`` of the (p_fa, p_miss) rows of the
    (n, 2) array ``points``, as chunks of ``_CHUNK_LINES`` lines."""
    for i in range(0, len(points), _CHUNK_LINES):
        fields = _real_fields(points[i:i + _CHUNK_LINES])
        yield _joined([f"{x} {y}" for x, y in zip(fields[0::2], fields[1::2])])


# --- evaluation report ------------------------------------------------------

_REPORT_KEYS = (
    "eer_pct",
    "cllr_bits",
    "min_cllr_bits",
    "n_target_trials",
    "n_nontarget_trials",
)


def _report_key(tokens: list[str], line: int) -> str:
    if len(tokens) != 2:
        raise LineSyntaxError("report line needs 'key value'", line)
    if tokens[0] not in _REPORT_KEYS:
        raise InvalidValueError(f"unknown report key {tokens[0]!r}", line)
    return tokens[0]


def parse_report(text: str) -> EvalReport:
    values = dict(_records(text, "duplicate report key", _report_key,
                           lambda tokens, key, line: (key, (tokens[1], line))))
    missing = [k for k in _REPORT_KEYS if k not in values]
    if missing:
        raise LineSyntaxError(f"report is missing keys: {', '.join(missing)}", 1)
    return EvalReport(
        eer_pct=_parse_float(*values["eer_pct"]),
        cllr_bits=_parse_float(*values["cllr_bits"]),
        min_cllr_bits=_parse_float(*values["min_cllr_bits"]),
        n_target_trials=_parse_uint(*values["n_target_trials"]),
        n_nontarget_trials=_parse_uint(*values["n_nontarget_trials"]),
    )


def serialize_report(report: EvalReport) -> str:
    lines = [
        f"eer_pct {format_float(report.eer_pct)}",
        f"cllr_bits {format_float(report.cllr_bits)}",
        f"min_cllr_bits {format_float(report.min_cllr_bits)}",
        f"n_target_trials {report.n_target_trials}",
        f"n_nontarget_trials {report.n_nontarget_trials}",
    ]
    return _joined(lines)


# --- generic key/value files (configs, run manifests) -----------------------


def _keyvalue_key(tokens: list[str], line: int) -> str:
    if len(tokens) != 2:
        raise LineSyntaxError("expected 'key value'", line)
    return _two_ids(tokens, line)[0]


def parse_keyvalues(text: str) -> dict[str, str]:
    return dict(_records(text, "duplicate key", _keyvalue_key, lambda tokens, key, line: (key, tokens[1])))


def serialize_keyvalues(values: dict[str, str]) -> str:
    return _sorted_text(values.items(), itemgetter, (0,), lambda kv: (kv[0], str(kv[1])),
                        lambda rows: [f"{k} {v!s}" for k, v in rows])


# --- shared helpers ---------------------------------------------------------


def _records(text: str, duplicate: str, key, build) -> list:
    """``build(tokens, k, line)`` of each data line of ``text``, in order.

    ``key(tokens, line)`` checks the line's shape and ids and returns its
    record key ``k``; a key that an earlier line had raises ``duplicate``
    followed by the key's ``repr``. ``build`` checks the values and makes the
    record. An error raised without a line number gets this line's through
    ``_with_line``; one that has a line passes through unchanged.
    """
    records = []
    seen = set()
    try:
        for line, tokens in _data_lines(text):
            k = key(tokens, line)
            if k in seen:
                raise InvalidValueError(f"{duplicate} {k!r}", line)
            seen.add(k)
            records.append(build(tokens, k, line))
    except PseudovoxError as exc:
        if getattr(exc, "line", None) is None:
            raise _with_line(exc, line) from None
        raise
    return records


def _two_ids(tokens: list[str], line: int) -> tuple[str, str]:
    return _parse_id(tokens[0], line), _parse_id(tokens[1], line)


def _one_dim_reals():
    """``(tokens, line) -> reals`` that requires as many reals as its first call read."""
    dims: list[int] = []

    def reals(tokens: list[str], line: int) -> np.ndarray:
        values = _parse_reals(tokens, line)
        if not dims:
            dims.append(len(values))
        elif len(values) != dims[0]:
            raise DimensionMismatchError(f"expected {dims[0]} embedding values, got {len(values)}", line)
        return values

    return reals


def _sorted_text(records, get, fields, ids, lines) -> str:
    """``lines(rows)`` of the records sorted by the key ``get(*fields)``
    (``get`` is ``itemgetter`` or ``attrgetter``): a repeated key raises
    ``_require_unique``'s error for the first repeat in input order, then each
    distinct id of ``ids(record)`` is checked once, in written order.

    Records whose keys already go strictly up are written as given. Others
    get one stable sort per field, last field first: the key order at a
    fraction of the cost of one sort on tuple keys, and after it a repeated
    key sits next to its twin.
    """
    key = get(*fields)
    rows = records
    if not _strictly_up(records, key):
        rows = list(records)
        for field in reversed(fields):
            rows.sort(key=get(field))
        if not _strictly_up(rows, key):
            _require_unique(map(key, records))
    _check_out_ids(chain.from_iterable(map(ids, rows)))
    return _joined(lines(rows))


def _strictly_up(records, key=None) -> bool:
    """Whether the keys of ``records`` (the records themselves if ``key`` is
    None) go strictly up: then they are in key order and none repeats. One
    pass, so ``records`` may be an iterator."""
    return all(starmap(lt, pairwise(records if key is None else map(key, records))))


def _joined(lines: list[str]) -> str:
    """Each of ``lines`` ended by LF, in one join: the final ``""`` appended
    to ``lines`` gives the last LF (and ``""`` for no lines) without copying
    the whole text a second time."""
    lines.append("")
    return "\n".join(lines)


def _sorted_grid(enroll_ids, utt_ids, matrix, dtype) -> tuple[list[str], list[str], np.ndarray]:
    """Both id lists sorted and ``matrix`` reordered to match, after the checks
    the row writers make on the enrollment-major rows: a repeated pair raises
    ``_require_unique``'s error, then each distinct id is checked once in the
    order the rows write them. No cells: nothing to write, nothing checked.
    """
    enroll_ids, utt_ids = list(enroll_ids), list(utt_ids)
    matrix = np.asarray(matrix, dtype=dtype)
    if matrix.shape != (len(enroll_ids), len(utt_ids)):
        raise ValueError(f"matrix shape {matrix.shape} does not match {len(enroll_ids)} x {len(utt_ids)} ids")
    if not matrix.size:
        return [], [], matrix
    if len(set(enroll_ids)) < len(enroll_ids) or len(set(utt_ids)) < len(utt_ids):
        _require_unique((e, u) for e in enroll_ids for u in utt_ids)
    enroll_order = sorted(range(len(enroll_ids)), key=enroll_ids.__getitem__)
    utt_order = sorted(range(len(utt_ids)), key=utt_ids.__getitem__)
    enroll = [enroll_ids[i] for i in enroll_order]
    utts = [utt_ids[j] for j in utt_order]
    _check_out_ids(chain(enroll[:1], utts, enroll[1:]))  # the first row, then the other rows
    return enroll, utts, matrix[np.ix_(enroll_order, utt_order)]


def _grid_rows(enroll: list[str], row_tails):
    """One text per (enroll id, tails): a line per tail, each the id and the tail."""
    for e, tails in zip(enroll, row_tails):
        yield e + ("\n" + e).join(tails) + "\n"


def _require_unique(keys) -> None:
    seen = set()
    for key in keys:
        if key in seen:
            raise InvalidValueError(f"duplicate record key {key!r}")
        seen.add(key)
