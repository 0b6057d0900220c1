"""Strict text I/O: the one-pass fast paths in ``formats`` accept, reject and
write exactly what the per-token code in ``tests/oracles.py`` does, and
canonical files never fall back to that per-token code."""

import itertools
import math
from operator import attrgetter, is_, itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from pseudovox import formats
from pseudovox.errors import InvalidValueError, LineSyntaxError, PseudovoxError
from pseudovox.f0 import F0Contour, LogF0Stats
from pseudovox.metrics import EvalReport
from pseudovox.plda import Gender, PldaModel, SpeakerEmbedding
from pseudovox.selection import PoolSpeaker

PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# --- generated texts ----------------------------------------------------------

VALID_REALS = ["0", "1.5", "-2.25", "+.5", "5.", "1e-3", "2E+10", "-0.0", "100", "3"]
BAD_REALS = [
    "nan", "inf", "-inf", "1_0", "1e999", "١", "١٢", ".", "-", "+", "e5", "1e", "0x10", "1.2.3",
    "Infinity", "-NaN", "+inf", "1e1_0", "_1", "1_", "１",
]
REALS = st.sampled_from(VALID_REALS * 3 + BAD_REALS)
NONNEG_REALS = st.sampled_from(["0", "1.5", "+.5", "5.", "1e-3", "100", "-0.0"] * 3 + BAD_REALS + ["-1.0"])
UINTS = st.sampled_from(["1", "40", "7"] * 3 + ["0", "١٢", "18446744073709551616", "-1", "1.0"])
IDS = st.sampled_from(["a", "b", "c", "u1", "spk-2", "#x", "é"])
GENDERS = st.sampled_from(["M", "F", "M", "F", "X"])
SEPARATORS = st.sampled_from([" "] * 6 + ["\t", "  ", "\x0c", "\x0b", "\x1c", " ", "\x85"])


def texts(line_tokens):
    return laid_out(st.lists(line_tokens, max_size=6))


@st.composite
def laid_out(draw, token_rows):
    """Lines of the token lists ``token_rows`` draws. A canonical file (single
    spaces, LF endings, no comments or blank lines) takes the fast paths; any
    other adds tabs, form feeds, CRLF, comments, blank lines and padding."""
    rows = draw(token_rows)
    if draw(st.booleans()):
        return "".join(" ".join(tokens) + "\n" for tokens in rows)
    out = []
    for tokens in rows:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(["# comment", "", "   ", "  # indented"])))
        sep = draw(SEPARATORS)
        pad = draw(st.sampled_from(["", "", " ", "\t"]))
        out.append(pad + sep.join(tokens) + pad)
    endings = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in out]
    text = "".join(line + end for line, end in zip(out, endings))
    return text[: -len(endings[-1])] if out and draw(st.booleans()) else text


def reals(n, elements=REALS):
    return st.lists(elements, min_size=n, max_size=n)


contour_line = st.builds(lambda i, v: [i, *v], IDS, st.lists(NONNEG_REALS, max_size=4))


@st.composite
def embedding_line(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(IDS, max_size=3))
    dim = draw(st.sampled_from([2, 2, 2, 1]))
    return [draw(IDS), draw(IDS), draw(GENDERS), *draw(reals(dim))]


@st.composite
def pool_line(draw):
    dim = draw(st.sampled_from([2, 2, 2, 1]))
    tokens = [draw(IDS), draw(GENDERS), *draw(reals(dim)), "|", *draw(reals(2, NONNEG_REALS)), draw(UINTS)]
    if draw(st.integers(0, 9)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return tokens


@st.composite
def score_line(draw):
    tokens = [draw(IDS), draw(IDS), draw(REALS)]
    if draw(st.integers(0, 9)) == 0:
        return tokens[: draw(st.integers(0, 2))] or tokens + ["extra"]
    return tokens


@st.composite
def trial_line(draw):
    tokens = [draw(IDS), draw(IDS), draw(st.sampled_from(["target", "nontarget"] * 3 + ["maybe", "Target"]))]
    if draw(st.integers(0, 9)) == 0:
        return tokens[:2] + draw(st.sampled_from([[], ["x", "y"]]))
    return tokens


def wrong_count(draw, tokens, keep):
    """``tokens``, one time in ten cut to fewer than ``keep`` fields or given an extra one."""
    if draw(st.integers(0, 9)) == 0:
        return tokens[: draw(st.integers(0, keep - 1))] or tokens + ["extra"]
    return tokens


@st.composite
def stats_line(draw):
    return wrong_count(draw, [draw(IDS), draw(REALS), draw(NONNEG_REALS), draw(UINTS)], 4)


SEEDS = st.sampled_from(["0", "7", "18446744073709551615"] * 3 + ["18446744073709551616", "١٢", "-1", "x"])


@st.composite
def mapping_line(draw):
    return wrong_count(draw, [draw(IDS), draw(SEEDS), *draw(st.lists(IDS, min_size=1, max_size=3))], 3)


@st.composite
def keyvalue_line(draw):
    return wrong_count(draw, [draw(IDS), draw(IDS)], 2)


@st.composite
def report_rows(draw):
    """The five report keys in any order, each with a count or a real; at
    times one is dropped, repeated, unknown or given the wrong field count."""
    rows = [[key, draw(UINTS if key.startswith("n_") else REALS)] for key in draw(st.permutations(oracles.REPORT_KEYS))]
    edit, i = draw(st.integers(0, 7)), draw(st.integers(0, len(rows) - 1))
    if edit == 0:
        del rows[i]
    elif edit == 1:
        rows.insert(draw(st.integers(0, len(rows))), [rows[i][0], draw(REALS)])
    elif edit == 2:
        rows.insert(i, [draw(st.sampled_from(["eer", "#c", "EER_PCT"])), "1.0"])
    elif edit == 3:
        rows[i] = rows[i][:1] + draw(st.sampled_from([[], ["1.0", "2.0"]]))
    return rows


@st.composite
def plda_text(draw):
    dim = draw(st.integers(1, 2))
    lines = [["dim", draw(st.sampled_from([str(dim)] * 8 + ["0", "x", "١"]))]]
    lines.append(["mean", *draw(reals(dim))])
    lines += [["transform", *draw(reals(dim))] for _ in range(dim)]
    lines.append(["psi", *draw(reals(dim, NONNEG_REALS))])
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from([lines[i][:-1], lines[i] + ["1.0"], ["bogus", *lines[i][1:]]]))
    if draw(st.integers(0, 9)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.booleans()):
        return "".join(" ".join(tokens) + "\n" for tokens in lines)
    return "".join(
        draw(st.sampled_from(["", "# c\n", "\n"]))
        + draw(SEPARATORS).join(tokens)
        + draw(st.sampled_from(["\n", "\r\n"]))
        for tokens in lines
    )


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except PseudovoxError as exc:
        return type(exc), str(exc)


def as_columns(read):
    """A column reader's ids, values' dtype and values, as lists to compare,
    after checking its flag of whether the pairs go strictly up."""
    def listed(text):
        enroll, test, values, in_order = read(text)
        pairs = list(zip(enroll, test))
        assert in_order == (pairs == sorted(set(pairs)))
        return enroll, test, values.dtype, values.tolist()
    return listed


def transposed(parse, dtype):
    """The records of ``parse`` as ``as_columns`` lists a column reader's."""
    def columns(text):
        records = parse(text)
        return [r[0] for r in records], [r[1] for r in records], np.dtype(dtype), [r[2] for r in records]
    return columns


PARSERS = {
    "contours": (texts(contour_line), formats.parse_contours, oracles.parse_contours),
    "embeddings": (texts(embedding_line()), formats.parse_embeddings, oracles.parse_embeddings),
    "pool": (texts(pool_line()), formats.parse_pool, oracles.parse_pool),
    "plda": (plda_text(), formats.parse_plda, oracles.parse_plda),
    "scores": (texts(score_line()), formats.parse_scores, oracles.parse_scores),
    "trials": (texts(trial_line()), formats.parse_trials, oracles.parse_trials),
    "score-columns": (texts(score_line()), as_columns(formats._score_columns),
                      transposed(oracles.parse_scores, np.float64)),
    "trial-columns": (texts(trial_line()), as_columns(formats._trial_columns),
                      transposed(oracles.parse_trials, bool)),
    "stats": (texts(stats_line()), formats.parse_stats, oracles.parse_stats),
    "mapping": (texts(mapping_line()), formats.parse_mapping, oracles.parse_mapping),
    "keyvalues": (texts(keyvalue_line()), formats.parse_keyvalues, oracles.parse_keyvalues),
    "report": (laid_out(report_rows()), formats.parse_report, oracles.parse_report),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
@PROPERTY
@given(data=st.data())
def test_parser_accepts_and_rejects_like_the_per_token_code(name, data):
    strategy, parse, oracle = PARSERS[name]
    text = data.draw(strategy)
    assert outcome(parse, text) == outcome(oracle, text)


EDGE_TEXTS = {
    "contours": [
        "u1 nan\n", "u1 inf\n", "u1 1_0\n", "u1 1e999\n", "u1 ١\n", "u1 +.5 5.\n", "u1 .\n",
        "u1 -\n", "u1\t1.0\x0c2.0\r\n", "# c\n\nu1 1.0\nu1 2.0\n", "u1 1.0 -3.0\n", "u1\n",
        "u1 Infinity\n", "u1 1.0 -NaN\n", "u1 +inf\n", "u1 1e1_0\n", "u1 _1\n", "u1 1_\n", "u1 １\n",
        "u_1 1.0 2.0\n", "é 1.0\n",
    ],
    "embeddings": [
        "a u1 M 1.0 2.0\nb u2 F 1.0\n", "a #u M 1.0\n", "a u1 M nan\n", "a u1 M 1.0\na u1 M 2.0\n",
        "a u1 M 1.0\na u2 F 1.0\n", "a u1 M 1e999\n", "a\tu1 M 1.0\r\n",
        "a u1 M Infinity\n", "a u1 M -NaN\n", "a u1 M 1.0 +inf\n", "a u1 M 1e1_0\n", "a u1 M _1\n",
        "a u1 M 1_\n", "a u1 M １\n", "p225 p225_001 F 1.0 2.0\n", "é u1 M 1.0\n",
    ],
    "pool": [
        "s1 M 1.0 2.0 | 5.0 0.2 40\ns2 F 1.0 | 5.0 0.2 40\n", "s1 M 1.0 | 5.0 0.2 ١٢\n",
        "s1 M 1.0 | nan 0.2 4\n", "s1 M 1.0 | 5.0 -0.2 4\n", "s1 M 1.0 5.0 0.2 4\n",
        "s1 M Infinity | 5.0 0.2 4\n", "s1 M 1.0 | -NaN 0.2 4\n", "s1 M +inf | 5.0 0.2 4\n",
        "s1 M 1e1_0 | 5.0 0.2 4\n", "s1 M 1.0 | _1 0.2 4\n", "s1 M 1.0 | 5.0 1_ 4\n",
        "s1 M １ | 5.0 0.2 4\n", "s_1 M 1.0 | 5.0 0.2 4\n", "é M 1.0 | 5.0 0.2 4\n",
    ],
    "plda": [
        "dim 1\nmean 0.0\ntransform 1.0\npsi -1.0\n", "dim 1\nmean nan\ntransform 1.0\npsi 1.0\n",
        "dim ١\nmean 0.0\ntransform 1.0\npsi 1.0\n", "dim 1\r\nmean 0.0\r\ntransform 1_0\r\npsi 1.0\r\n", "",
        "dim 1\nmean Infinity\ntransform 1.0\npsi 1.0\n", "dim 1\nmean 2.0\ntransform -NaN\npsi 1.0\n",
        "dim 1\nmean 3.0\ntransform 1.0\npsi +inf\n", "dim 1\nmean 1e1_0\ntransform 1.0\npsi 1.0\n",
        "dim 1\nmean _1\ntransform 1.0\npsi 1.0\n", "dim 1\nmean 4.0\ntransform 1_\npsi 1.0\n",
        "dim 1\nmean 5.0\ntransform 1.0\npsi １\n",
    ],
    "scores": [
        "a b 1.0\na b 2.0\n", "a #b 1.0\n", "a b nan\n", "a b 1e999\n", "a b ١\n", "a b 1.0\r\n",
        "a b 1.0", "# c\na b 1.0\n\n", "a\tb 1.0\n", "é b 1.0\n", "a b 1.0 2.0\n", "a b 1_0\n",
        # a repeat that is not adjacent; pairs sorted but for the last line, without and with a repeat
        "a b 1.0\na c 2.0\na b 3.0\n", "a b 1.0\na c 2.0\nb a 3.0\na d 4.0\n", "a b 1.0\nb a 2.0\na b 3.0\n",
    ],
    "trials": [
        "a b target\na b nontarget\n", "a #b target\n", "a b maybe\n", "a b target\r\n",
        "a b target", "é b target\n", "a b\n",
        "a b target\na c nontarget\na b target\n", "a b target\na c target\nb a nontarget\na d nontarget\n",
        "a b nontarget\nb a target\na b target\n",
    ],
    "stats": [
        "a 5.0 0.5 4\nb 5.0 0.5 4\na 5.0 0.5 4\n", "#a 5.0 0.5 4\n", "a 5.0 0.5\n", "a 5.0 0.5 4 1\n",
        "a 5.0 0.5 ١٢\n", "a 5.0 0.5 0\n", "a 5.0 -0.5 4\n", "a nan 0.5 4\n", "a 5.0 0.5 18446744073709551616\n",
        "a\t5.0 0.5 4\r\n", "a 5.0 0.5 1.0\n",
    ],
    "mapping": [
        "s 1 a b\ns 2 c\n", "#s 1 a\n", "s 1 #a\n", "s 1\n", "s ١٢ a\n", "s 0 a\n", "s 1 a b a\n",
        "s 18446744073709551616 a\n", "s -1 a\n", "s\t3 a  b\r\n",
    ],
    "keyvalues": [
        "a b\nc d\na e\n", "#a b\n", "a #b\n", "a\n", "a b c\n", "a ١٢\n", "a 0\n", "a b\na #b\n",
        "a\tb\r\n",
    ],
    "report": [
        "eer_pct 1.0\ncllr_bits 0.5\nmin_cllr_bits 0.25\nn_target_trials 0\nn_nontarget_trials 7\n",
        "eer_pct 1.0\ncllr_bits 0.5\nmin_cllr_bits 0.25\nn_target_trials ١٢\nn_nontarget_trials 7\n",
        "eer_pct 1.0\ncllr_bits 0.5\nbogus 1\nn_target_trials 1\nn_nontarget_trials 7\n",
        "eer_pct 1.0\ncllr_bits 0.5\nmin_cllr_bits 0.25\nn_target_trials 1\neer_pct 2.0\n",
        "eer_pct 1.0\ncllr_bits 0.5\nn_target_trials 1\nn_nontarget_trials 7\n",
        "n_target_trials x\neer_pct nan\ncllr_bits 0.5\nmin_cllr_bits 0.25\nn_nontarget_trials 7\n",
        "eer_pct 1.0 2.0\n", "",
    ],
}


EDGE_TEXTS.update({"score-columns": EDGE_TEXTS["scores"], "trial-columns": EDGE_TEXTS["trials"]})


@pytest.mark.parametrize(
    "name,text", [(name, text) for name, cases in sorted(EDGE_TEXTS.items()) for text in cases]
)
def test_edge_cases_match_the_per_token_code(name, text):
    _, parse, oracle = PARSERS[name]
    assert outcome(parse, text) == outcome(oracle, text)


# --- round trips --------------------------------------------------------------

OUT_IDS = st.text(alphabet="abz09_.-é", min_size=1, max_size=4)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NONNEG = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
STATS = st.builds(LogF0Stats, FLOATS, NONNEG, st.integers(1, 2**64 - 1))


def unique_by(key, elements):
    return st.lists(elements, max_size=6, unique_by=key)


def vectors(d):
    return st.lists(FLOATS, min_size=d, max_size=d)


@st.composite
def embedding_records(draw):
    d = draw(st.integers(1, 3))
    speakers = draw(st.lists(OUT_IDS, min_size=1, max_size=3, unique=True))
    keys = draw(st.lists(st.tuples(st.sampled_from(speakers), OUT_IDS), max_size=6, unique=True))
    gender = {s: draw(st.sampled_from(Gender)) for s in speakers}
    return [SpeakerEmbedding(s, gender[s], draw(vectors(d)), u) for s, u in keys]


@st.composite
def pool_records(draw):
    d = draw(st.integers(1, 3))
    ids = draw(st.lists(OUT_IDS, max_size=5, unique=True))
    return [PoolSpeaker(i, draw(st.sampled_from(Gender)), draw(vectors(d)), draw(STATS)) for i in ids]


@st.composite
def plda_models(draw):
    d = draw(st.integers(1, 3))
    transform = [draw(vectors(d)) for _ in range(d)]
    return PldaModel(draw(vectors(d)), transform, draw(st.lists(NONNEG, min_size=d, max_size=d)))


ROUND_TRIPS = {
    "contours": (
        unique_by(lambda c: c.utterance_id, st.builds(F0Contour, OUT_IDS, st.lists(NONNEG, max_size=4))),
        lambda r: r.utterance_id,
    ),
    "stats": (unique_by(lambda r: r[0], st.tuples(OUT_IDS, STATS)), lambda r: r[0]),
    "embeddings": (embedding_records(), lambda r: (r.speaker_id, r.utterance_id)),
    "pool": (pool_records(), lambda r: r.speaker_id),
    "plda": (plda_models(), None),
    "scores": (unique_by(lambda r: r[:2], st.tuples(OUT_IDS, OUT_IDS, FLOATS)), lambda r: r[:2]),
    "trials": (unique_by(lambda r: r[:2], st.tuples(OUT_IDS, OUT_IDS, st.booleans())), lambda r: r[:2]),
    "mapping": (
        unique_by(
            lambda r: r[0],
            st.tuples(OUT_IDS, st.integers(0, 2**64 - 1), st.lists(OUT_IDS, min_size=1, max_size=3, unique=True).map(tuple)),
        ),
        lambda r: r[0],
    ),
    "det": (st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=5), None),
    "report": (st.builds(EvalReport, FLOATS, FLOATS, FLOATS, st.integers(0, 10**6), st.integers(0, 10**6)), None),
    "keyvalues": (st.dictionaries(OUT_IDS, OUT_IDS, max_size=5), None),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_round_trip_is_exact_and_writes_the_per_token_bytes(name, data):
    strategy, sort_key = ROUND_TRIPS[name]
    records = data.draw(strategy)
    serialize = getattr(formats, f"serialize_{name}")
    text = serialize(records)
    assert text == getattr(oracles, f"serialize_{name}")(records)
    parsed = getattr(formats, f"parse_{name}")(text)
    assert parsed == (sorted(records, key=sort_key) if sort_key else records)
    assert serialize(parsed) == text  # also keeps the sign of every zero


WRITER_IDS = st.sampled_from(["a", "b", "#c", "d e", ""])
F0_STATS = LogF0Stats(5.0, 0.2, 4)


def with_ids(record, **ids):
    """``record`` with these id fields, set past the constructor, which refuses ``""``."""
    for field, value in ids.items():
        object.__setattr__(record, field, value)
    return record


WRITER_RECORDS = {
    "contours": st.builds(lambda i: with_ids(F0Contour("x", [1.0]), utterance_id=i), WRITER_IDS),
    "stats": st.tuples(WRITER_IDS, st.just(F0_STATS)),
    "embeddings": st.builds(
        lambda s, u: with_ids(SpeakerEmbedding("x", Gender.MALE, [1.0]), speaker_id=s, utterance_id=u),
        WRITER_IDS, st.none() | WRITER_IDS,
    ),
    "pool": st.builds(lambda i: with_ids(PoolSpeaker("x", Gender.FEMALE, [1.0], F0_STATS), speaker_id=i), WRITER_IDS),
    "mapping": st.tuples(WRITER_IDS, st.integers(0, 9), st.lists(WRITER_IDS, min_size=1, max_size=3).map(tuple)),
    # int, float and np.float64 scores: the score-line writer converts each as ``float`` does
    "scores": st.tuples(WRITER_IDS, st.sampled_from(["a", "b", "#c"]),
                        st.one_of(st.integers(-10**6, 10**6), FLOATS, FLOATS.map(np.float64))),
    "trials": st.tuples(WRITER_IDS, st.sampled_from(["a", "b", "#c"]), st.booleans()),
}


WRITER_KEYS = {
    "contours": attrgetter("utterance_id"),
    "stats": itemgetter(0),
    "embeddings": lambda r: (r.speaker_id, r.utterance_id or ""),
    "pool": attrgetter("speaker_id"),
    "mapping": itemgetter(0),
    "scores": itemgetter(0, 1),
    "trials": itemgetter(0, 1),
}


@pytest.mark.parametrize("name", sorted([*WRITER_RECORDS, "keyvalues"]))
@PROPERTY
@given(data=st.data())
def test_pair_serializers_raise_the_per_token_error(name, data):
    """Every writer with a record key, not only the pair writers: for
    repeated keys and unserializable ids the bytes or the error are those of
    the per-record code. Records come as drawn, sorted by key (the path that
    writes them as given), or sorted by key with one adjacent repeat."""
    order = data.draw(st.sampled_from(["drawn", "sorted", "repeat"]))
    if name == "keyvalues":
        records = data.draw(st.dictionaries(WRITER_IDS, WRITER_IDS))
        if order != "drawn":
            records = dict(sorted(records.items()))
    else:
        records = data.draw(st.lists(WRITER_RECORDS[name]))
        if order != "drawn":
            records = sorted(records + records[:1] if order == "repeat" else records, key=WRITER_KEYS[name])
    assert outcome(getattr(formats, f"serialize_{name}"), records) == outcome(getattr(oracles, f"serialize_{name}"), records)


# --- no fallback on canonical files -------------------------------------------


def canonical_texts(d=512, n=40, id_prefix=""):
    rng = np.random.default_rng(44)
    model = PldaModel(rng.normal(size=d), rng.normal(size=(d, d)), rng.uniform(0.0, 2.0, d))
    embeddings = [
        SpeakerEmbedding(f"{id_prefix}spk{i // 4}", Gender.MALE if i // 4 % 2 else Gender.FEMALE, rng.normal(size=d), f"{id_prefix}utt{i}")
        for i in range(n)
    ]
    pool = [
        PoolSpeaker(f"{id_prefix}p{i}", Gender.MALE if i % 2 else Gender.FEMALE, rng.normal(size=d),
                    LogF0Stats(rng.normal(5.0, 0.2), rng.uniform(0.05, 0.4), 60 + i))
        for i in range(n)
    ]
    contours = [F0Contour(f"{id_prefix}utt{i}", np.where(rng.random(300) < 0.3, 0.0, rng.uniform(80, 300, 300))) for i in range(n)]
    scores = [(f"spk{e}", f"utt{t}", float(rng.normal())) for e in range(10) for t in range(n)]
    return {
        "plda": formats.serialize_plda(model),
        "embeddings": formats.serialize_embeddings(embeddings),
        "pool": formats.serialize_pool(pool),
        "contours": formats.serialize_contours(contours),
        "scores": formats.serialize_scores(scores),
        "trials": formats.serialize_trials([(e, t, s > 0) for e, t, s in scores]),
    }


def test_canonical_files_never_reach_the_per_token_parser(monkeypatch):
    calls = []
    real = formats._parse_float
    monkeypatch.setattr(formats, "_parse_float", lambda token, line: calls.append(token) or real(token, line))
    for name, text in canonical_texts().items():
        parsed = getattr(formats, f"parse_{name}")(text)
        assert getattr(formats, f"serialize_{name}")(parsed) == text
        assert calls == [], name


@pytest.mark.parametrize("name", ["scores", "trials"])
def test_pair_files_with_unique_pairs_in_any_order_never_reach_the_per_line_reader(monkeypatch, name):
    """Sorted pairs pass the strictly-increasing check, and shuffled ones the
    pair set; either way the columns are read without ``_records``, and the
    order flag is the check's answer."""
    text = canonical_texts(d=4)[name]
    lines = text.splitlines(keepends=True)
    monkeypatch.setattr(formats, "_records", mock.Mock(side_effect=AssertionError("per-line reader")))
    read = getattr(formats, f"_{name[:-1]}_columns")
    for order in (lines, lines[::-1], lines[1:] + lines[:1]):
        enroll, test, values, in_order = read("".join(order))
        assert in_order == (order is lines)
        assert list(zip(enroll, test, values.tolist())) == getattr(oracles, f"parse_{name}")("".join(order))


@pytest.mark.parametrize("block", [1, 50, formats._BLOCK_CHARS])
def test_pair_columns_hold_one_object_per_distinct_id_shared_between_files(monkeypatch, block):
    """Split in blocks of any size, the fast path returns the per-token
    reader's ids, each column holds one object per distinct id, and a score
    file and its key hold the same objects."""
    texts = canonical_texts(d=4)
    monkeypatch.setattr(formats, "_records", mock.Mock(side_effect=AssertionError("per-line reader")))
    monkeypatch.setattr(formats, "_BLOCK_CHARS", block)
    columns = {name: getattr(formats, f"_{name[:-1]}_columns")(texts[name]) for name in ("scores", "trials")}
    for name, (enroll, test, values, _) in columns.items():
        records = getattr(oracles, f"parse_{name}")(texts[name])
        assert (enroll, test, values.tolist()) == tuple(list(column) for column in zip(*records))
        for ids in (enroll, test):
            assert len(set(map(id, ids))) == len(set(ids)) < len(ids)
    for score_ids, key_ids in zip(columns["scores"][:2], columns["trials"][:2]):
        assert all(map(is_, score_ids, key_ids))


def test_vector_lines_with_any_ids_never_reach_the_per_token_parser(monkeypatch):
    """The value check reads each line's values, not its ids: ids with ``_``
    (VCTK's ``p225_001``) or non-ASCII letters keep the fast path."""
    calls = []
    real = formats._parse_float
    monkeypatch.setattr(formats, "_parse_float", lambda token, line: calls.append(token) or real(token, line))
    texts = canonical_texts(d=64, id_prefix="é_")
    for name in ("pool", "embeddings", "contours"):
        parsed = getattr(formats, f"parse_{name}")(texts[name])
        assert getattr(formats, f"serialize_{name}")(parsed) == texts[name]
        assert calls == [], name


def test_value_check_accepts_exactly_the_real_grammar(monkeypatch):
    """Every string of length 1-4 over an alphabet that spells reals, hex,
    inf/nan and ``_`` groupings: ``_parse_reals`` keeps the fast path exactly
    when ``_FLOAT_RE`` matches and the value is finite."""
    fallbacks = []
    monkeypatch.setattr(formats, "_parse_float", lambda token, line: fallbacks.append(token) or 0.0)
    alphabet = "09.eE+-_naifINxX"
    for size in range(1, 5):
        for chars in itertools.product(alphabet, repeat=size):
            token = "".join(chars)
            expected = bool(formats._FLOAT_RE.match(token)) and math.isfinite(float(token))
            fallbacks.clear()
            formats._parse_reals([token], 1)
            assert (fallbacks == []) == expected, token


@pytest.mark.parametrize("name", ["scores", "trials"])
def test_pair_serializers_check_each_distinct_id_once(monkeypatch, name):
    rows = [(f"spk{e}", f"utt{t}", float(e - t)) for e in range(10) for t in range(40)]
    rows.append(("utt3", "spk1", 0.5))  # ids that are both enroll and test ids
    if name == "trials":
        rows = [(e, t, s > 0) for e, t, s in rows]
    checked = []
    real = formats._check_out_id
    monkeypatch.setattr(formats, "_check_out_id", lambda i: checked.append(i) or real(i))
    getattr(formats, f"serialize_{name}")(rows[::-1])
    in_order = [i for e, t, _ in sorted(rows, key=lambda r: r[:2]) for i in (e, t)]
    assert checked == list(dict.fromkeys(in_order))


SCORE_ROWS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "#c", "é", "d e"]), st.sampled_from(["a", "u_1", "#c"]), FLOATS), max_size=8
)


def as_rows(name, rows):
    """Score rows as ``name`` records: trials take the sign of each score as the label."""
    return rows if name == "scores" else [(e, t, s > 0) for e, t, s in rows]


@pytest.mark.parametrize("name", ["scores", "trials"])
@PROPERTY
@given(rows=SCORE_ROWS, data=st.data())
def test_pair_serializers_in_pair_order_equal_the_sorting_path(name, rows, data):
    """Rows already strictly in (enroll, test) order skip the sort; for
    sorted, shuffled and duplicated rows the bytes and errors are those of
    the path that always sorts."""
    rows = as_rows(name, data.draw(
        st.sampled_from([
            sorted(rows, key=lambda r: r[:2]),
            data.draw(st.permutations(rows)),
            sorted(rows + rows[:1], key=lambda r: r[:2]),
        ])
    ))
    serialize = getattr(formats, f"serialize_{name}")
    with mock.patch.object(formats, "_strictly_up", return_value=False):
        sorting = outcome(serialize, rows)
    assert outcome(serialize, rows) == sorting


@pytest.mark.parametrize("name", ["trials"])
def test_pair_serializers_do_not_sort_sorted_rows(monkeypatch, name):
    """Sorted rows pass one strictly-up check and are written as given;
    reversed rows fail it and pass it again only as a sorted copy. Scores
    take the pair-order step of ``score`` instead (the test below)."""
    checked = []
    real = formats._strictly_up
    monkeypatch.setattr(formats, "_strictly_up",
                        lambda records, key: checked.append((records, real(records, key))) or checked[-1][1])
    rows = as_rows(name, [(f"spk{e}", f"utt{t:02d}", float(e - t)) for e in range(10) for t in range(40)])
    serialize = getattr(formats, f"serialize_{name}")
    text = serialize(rows)
    assert checked == [(rows, True)] and checked[0][0] is rows
    checked.clear()
    backwards = rows[::-1]
    assert serialize(backwards) == text
    assert checked == [(backwards, False), (rows, True)] and checked[1][0] is not backwards


def test_serialize_scores_does_not_sort_sorted_rows(monkeypatch):
    """Sorted score rows reach the score-line writer through the pair-order
    step with its in-order flag set, so they are written as given; reversed
    rows clear the flag and are sorted there, to the same bytes."""
    flags = []
    real = formats._in_pair_order
    monkeypatch.setattr(formats, "_in_pair_order", lambda *columns: flags.append(bool(columns[3])) or real(*columns))
    rows = [(f"spk{e}", f"utt{t:02d}", float(e - t)) for e in range(10) for t in range(40)]
    text = formats.serialize_scores(rows)
    assert flags == [True]
    assert formats.serialize_scores(rows[::-1]) == text
    assert flags == [True, False]


# --- grid writers ----------------------------------------------------------------

GRID_ID = st.sampled_from(["a", "b", "c", "u1", "spk-2", "é", "#x", "a b", "x\ty", ""])
GRID_IDS = st.lists(GRID_ID, max_size=5)


def _write_outcome(write, *args):
    try:
        return write(*args)
    except PseudovoxError as exc:
        return type(exc), str(exc)


@PROPERTY
@given(enroll=GRID_IDS, utts=GRID_IDS, data=st.data())
def test_grid_writers_equal_the_row_writers(enroll, utts, data):
    """For ids in any order, repeated, unserializable or none, the grid
    writers write the bytes of the row writers on the enrollment-major rows,
    or raise the same error."""
    size = len(enroll) * len(utts)
    values = data.draw(st.lists(st.floats(width=64), min_size=size, max_size=size))
    scores = np.array(values, dtype=np.float64).reshape(len(enroll), len(utts))
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    labels = labels.reshape(scores.shape)

    def rows(matrix):
        return [(e, u, v) for e, row in zip(enroll, matrix.tolist()) for u, v in zip(utts, row)]

    assert _write_outcome(formats.serialize_score_grid, enroll, utts, scores) == _write_outcome(
        formats.serialize_scores, rows(scores)
    )
    assert _write_outcome(formats.serialize_trial_grid, enroll, utts, labels) == _write_outcome(
        formats.serialize_trials, rows(labels)
    )


@pytest.mark.parametrize("write", [formats.serialize_score_grid, formats.serialize_trial_grid])
def test_grid_writers_check_each_distinct_id_once(monkeypatch, write):
    checked = []
    real = formats._check_out_id
    monkeypatch.setattr(formats, "_check_out_id", lambda i: checked.append(i) or real(i))
    write(["spk3", "spk1", "utt1", "spk2"], ["utt2", "utt0", "utt1"], np.zeros((4, 3)))
    # in the order the rows write them: the first row, then the other rows
    assert checked == ["spk1", "utt0", "utt1", "utt2", "spk2", "spk3"]


# --- the writer of reals --------------------------------------------------------

FLOAT_BITS = st.lists(st.integers(0, 2**64 - 1), max_size=40).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))


def layouts(values):
    """``values`` (1-D), a non-contiguous view of them, and a matrix of them,
    transposed and reordered with ``np.ix_``."""
    spread = np.zeros(2 * values.size)
    spread[::2] = values
    matrix = values.reshape(2 if values.size % 2 == 0 else 1, -1)
    reordered = matrix[np.ix_(np.arange(matrix.shape[0])[::-1], np.arange(matrix.shape[1])[::-1])]
    return [values, spread[::2], matrix.T, reordered]


@settings(PROPERTY, max_examples=500)
@given(values=FLOAT_BITS)
@example(values=np.array([]))
@example(values=np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308]))
@example(values=np.array([np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e16]))
@example(values=np.array([2.0**53 - 1, 2.0**53, 2.0**53 + 2]))
@example(values=np.array([1e22, 1e23, np.finfo(np.float64).max]))
@example(values=np.array([math.inf, -math.inf, math.nan]))
def test_real_fields_spell_every_real_as_repr(values):
    """Any float64 bit pattern, in any memory layout, is written in C order
    as ``repr`` of a Python float writes it, inside and outside the band that
    ``orjson`` writes; ``format_float`` is the same writer on one value."""
    for layout in layouts(values):
        assert formats._real_fields(layout) == [oracles._format_float(v) for v in layout.ravel()]
    assert [formats.format_float(v) for v in values] == [oracles._format_float(v) for v in values]


@pytest.mark.parametrize("points", [
    [(0.5, "x")],
    [(None, 0.5)],
    [(0.25, 0.75), (1j, 0.0)],
    [(0.25, 0.75), (0.5, object())],
])
def test_det_writer_raises_the_error_of_float_on_a_point_it_rejects(points):
    with pytest.raises(Exception) as expected:
        oracles.serialize_det(points)
    with pytest.raises(type(expected.value)) as raised:
        formats.serialize_det(points)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


# --- grammar: ASCII digits, LF-only lines --------------------------------------


def test_non_ascii_digits_are_not_reals():
    with pytest.raises(LineSyntaxError) as err:
        formats.parse_contours("u1 ١٢\n")
    assert str(err.value) == "line 1: expected a decimal real, got '١٢'"


def test_non_ascii_digits_are_not_counts():
    with pytest.raises(LineSyntaxError) as err:
        formats.parse_stats("a 5.0 0.5 ١٢\n")
    assert str(err.value) == "line 1: expected an unsigned integer, got '١٢'"


def test_only_lf_ends_a_line():
    # a form feed is a field separator, not a line break, so this is two lines
    with pytest.raises(LineSyntaxError) as err:
        formats.parse_contours("u1 1.0\x0c3.0\nu2 x\n")
    assert str(err.value) == "line 2: expected a decimal real, got 'x'"
    with pytest.raises(LineSyntaxError) as err:
        formats.parse_contours("u1 1.0\x0cu3 1.0\nu2 x\n")
    assert str(err.value) == "line 1: expected a decimal real, got 'u3'"
    assert formats.parse_contours("u1 1.0\x0c2.0\n") == [F0Contour("u1", [1.0, 2.0])]


def test_crlf_files_parse():
    assert formats.parse_contours("u1 1.0 2.0\r\nu2 3.0\r\n") == [
        F0Contour("u1", [1.0, 2.0]), F0Contour("u2", [3.0])
    ]
    assert formats.parse_scores("a b 1.5\r\n") == [("a", "b", 1.5)]
    with pytest.raises(InvalidValueError) as err:
        formats.parse_trials("a b target\r\n\r\na b nontarget\r\n")
    assert err.value.line == 3
