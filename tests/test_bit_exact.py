"""Batched scoring and ranking are bit-identical to the per-pair code they
replaced (``tests/oracles.py``), and the per-pair loops stay gone."""

import dataclasses
import re
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

import pseudovox.plda
from pseudovox import formats, selection
from pseudovox.cli import main
from pseudovox.errors import DimensionMismatchError, PseudovoxError
from pseudovox.f0 import F0Contour, F0Mode, LogF0Stats
from pseudovox.plda import (
    Gender,
    PldaModel,
    SpeakerEmbedding,
    cosine_score,
    cosine_scores,
    plda_score_pairs,
    project,
)
from pseudovox.selection import (
    GenderPolicy,
    PoolSpeaker,
    Scorer,
    SelectionConfig,
    SpeakerPool,
    derive_pseudo_speaker,
    filter_by_gender,
    pseudonymize_speakers,
    rank_furthest,
)

from oracles import (
    loop_pseudonymize_speaker,
    rank_furthest_scalar,
    scalar_cosine_scores,
    scalar_plda_score,
    sorted_ranking,
)

STATS = LogF0Stats(5.0, 0.2, 100)
SEEDS = st.integers(0, 2**32 - 1)


def test_numpy_has_vecdot():
    # the batched paths need np.vecdot (NumPy >= 2.0) to stay one ddot per pair
    assert hasattr(pseudovox.plda.np, "vecdot")


def random_model(rng, d):
    psi = rng.uniform(0.0, 5.0, d)
    psi[rng.random(d) < 0.2] = 0.0
    return PldaModel(rng.normal(size=d), rng.normal(size=(d, d)), psi)


def random_pool(rng, n_per_gender, d, plda=None, duplicates=0):
    """Two-gender pool; the first ``duplicates`` rows of each gender repeat
    one vector, so their scores tie exactly and the id decides."""
    speakers = []
    for gender, tag in ((Gender.MALE, "m"), (Gender.FEMALE, "f")):
        vectors = rng.normal(size=(n_per_gender, d))
        vectors[:duplicates] = vectors[0]
        ids = rng.permutation(n_per_gender)  # ids not in row order
        for i, vec in zip(ids, vectors):
            speakers.append(PoolSpeaker(f"{tag}{i:03d}", gender, vec, STATS))
    return SpeakerPool(speakers, plda)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([1, 7, 512]), n_enroll=st.integers(1, 5),
       n_test=st.integers(1, 6), n_trials=st.integers(0, 25))
def test_plda_score_pairs_equals_scalar_oracle(seed, d, n_enroll, n_test, n_trials):
    rng = np.random.default_rng(seed)
    model = random_model(rng, d)
    enroll = rng.normal(size=(n_enroll, d)) * rng.uniform(0.1, 10.0)
    test = rng.normal(size=(n_test, d))
    ei = rng.integers(0, n_enroll, n_trials)
    ti = rng.integers(0, n_test, n_trials)
    batched = plda_score_pairs(model, enroll, test, ei, ti)
    assert batched.tolist() == [
        scalar_plda_score(model, enroll[e], test[t]) for e, t in zip(ei, ti)
    ]


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([1, 7, 512]), n=st.integers(1, 12))
def test_cosine_scores_equal_scalar_oracle(seed, d, n):
    rng = np.random.default_rng(seed)
    source = rng.normal(size=d)
    members = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, (n, 1))
    expected = scalar_cosine_scores(source, members).tolist()
    assert cosine_scores(source, members).tolist() == expected
    assert [cosine_score(source, m) for m in members] == expected


COSINE_FAULTS = [None, "zero source", "source norm overflows", "source norm underflows", "zero member",
                 "member of another dimension"]


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([1, 7, 64]), n_sources=st.integers(1, 5), n=st.integers(1, 8),
       fault=st.sampled_from(COSINE_FAULTS))
def test_a_block_of_cosine_sources_equals_the_one_source_calls(seed, d, n_sources, n, fault):
    """Each row of a block call is bit-equal to the one-source call, which
    also takes an embedding; a one-row block raises the one-source call's
    error type and text, and a block with a failing source raises."""
    rng = np.random.default_rng(seed)
    sources = rng.normal(size=(n_sources, d)) * 10.0 ** rng.integers(-3, 4, (n_sources, 1))
    members = rng.normal(size=(n, d + (fault == "member of another dimension")))
    at = rng.integers(n_sources)
    sources[at] = {"zero source": 0.0, "source norm overflows": 1e200, "source norm underflows": 1e-200}.get(
        fault, sources[at])
    if fault == "zero member":
        members[rng.integers(n)] = 0.0
    outcomes = []
    for source in sources:
        try:
            outcomes.append(cosine_scores(source, members))
        except PseudovoxError as exc:
            outcomes.append(exc)
            with pytest.raises(type(exc)) as raised:
                cosine_scores(source[None, :], members)
            assert str(raised.value) == str(exc)
        else:
            embedding = SpeakerEmbedding("s", Gender.MALE, source)
            assert cosine_scores(embedding, members).tobytes() == outcomes[-1].tobytes()
            assert cosine_scores(source[None, :], members).tobytes() == outcomes[-1][None, :].tobytes()
            assert [cosine_score(embedding, m) for m in members] == outcomes[-1].tolist()
    event(str(fault))
    if any(isinstance(o, PseudovoxError) for o in outcomes):
        with pytest.raises(PseudovoxError):
            cosine_scores(sources, members)
    else:
        assert cosine_scores(sources, members).tobytes() == np.array(outcomes).tobytes()
        assert cosine_scores(list(sources), members).tobytes() == np.array(outcomes).tobytes()


def test_a_block_of_cosine_sources_of_two_dimensions_is_refused():
    with pytest.raises(DimensionMismatchError, match=r"^cosine sources must share one dimension$"):
        cosine_scores([np.ones(3), np.ones(2)], np.ones((2, 3)))


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([1, 7, 64]), n=st.integers(2, 30),
       duplicates=st.integers(0, 5), data=st.data())
def test_cosine_rank_furthest_equals_oracle(seed, d, n, duplicates, data):
    rng = np.random.default_rng(seed)
    pool = random_pool(rng, n, d, duplicates=min(duplicates, n))
    cfg = SelectionConfig(k_far=data.draw(st.integers(1, n)), k_sel=1, scorer=Scorer.COSINE)
    subset = filter_by_gender(pool, Gender.MALE, cfg.gender_policy)
    for source in rng.normal(size=(3, d)):
        assert rank_furthest(subset, source, cfg) == rank_furthest_scalar(subset, source, cfg)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([1, 7, 64]), n=st.integers(2, 30),
       duplicates=st.integers(0, 5), length_norm=st.booleans(), data=st.data())
def test_plda_rank_furthest_equals_oracle(seed, d, n, duplicates, length_norm, data):
    rng = np.random.default_rng(seed)
    pool = random_pool(rng, n, d, random_model(rng, d), duplicates=min(duplicates, n))
    cfg = SelectionConfig(k_far=data.draw(st.integers(1, n)), k_sel=1, length_norm=length_norm)
    subset = filter_by_gender(pool, Gender.FEMALE, cfg.gender_policy)
    for source in rng.normal(size=(3, d)):
        assert rank_furthest(subset, source, cfg) == rank_furthest_scalar(subset, source, cfg)


@settings(max_examples=50, deadline=None)
@given(scores=st.lists(st.sampled_from([-0.0, 0.0, -1.5, 1.5, 2.0]), min_size=2, max_size=12),
       data=st.data())
def test_plda_rank_ties_and_signed_zeros_follow_the_ids(scores, data):
    # PLDA scores are never -0.0, so the scorer is replaced to reach the ordering
    rng = np.random.default_rng(len(scores))
    pool = random_pool(rng, len(scores), 2, random_model(rng, 2))
    subset = filter_by_gender(pool, Gender.MALE, selection.GenderPolicy.SAME)
    cfg = SelectionConfig(k_far=data.draw(st.integers(1, len(scores))), k_sel=1)
    fixed = np.array(scores)
    original = selection.plda_score_matrix
    selection.plda_score_matrix = lambda model, src, latents: fixed[None, :]
    try:
        ranked = rank_furthest(subset, np.ones(2), cfg)
    finally:
        selection.plda_score_matrix = original
    ids = [s.speaker_id for s in subset.speakers]
    assert ranked == sorted_ranking(fixed, ids, cfg.k_far)


def test_pool_and_its_cached_subsets_are_frozen():
    rng = np.random.default_rng(3)
    pool = random_pool(rng, 4, 3)
    subset = filter_by_gender(pool, Gender.MALE, selection.GenderPolicy.SAME)
    assert filter_by_gender(pool, Gender.MALE, selection.GenderPolicy.SAME) is subset
    assert isinstance(pool.speakers, tuple) and isinstance(subset.speakers, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        subset.speakers = pool.speakers
    with pytest.raises(dataclasses.FrozenInstanceError):
        pool.speakers[0].gender = Gender.FEMALE


# --- the batched pseudonymization equals the per-speaker loop -------------------

# up to two planted faults per case, each source fault in a speaker of its
# own, so that batches fail in each way a speaker can fail, after speakers
# that succeed, and in more than one gender group
PLANTS = st.lists(st.sampled_from([
    "source mean overflows", "source norm overflows", "zero source", "tied pool", "zero pool speaker",
    "pool norm overflows", "pool log-F0 means overflow", "k_far above a pool", "no male pool",
    "no PLDA model", "one voiced frame", "transform overflows",
]), min_size=1, max_size=2, unique=True)
POOL_VECTORS = {"tied pool", "zero pool speaker", "pool norm overflows"}


def selection_case(seed, d, data):
    """A pool, a batch of source speakers, a config and an F0 mode."""
    rng = np.random.default_rng(seed)
    plants = set(data.draw(PLANTS, label="plants")) if data.draw(st.booleans()) else set()
    scorer = data.draw(st.sampled_from(Scorer), label="scorer")
    # sizes drawn evenly, so that k_sel often exceeds the 8 terms that NumPy's pairwise sum adds one by one
    sizes = {Gender.MALE: 0 if "no male pool" in plants else data.draw(st.sampled_from(range(1, 25))),
             Gender.FEMALE: data.draw(st.sampled_from(range(1, 25)))}
    log_f0 = 1e308 if "pool log-F0 means overflow" in plants else 700.0 if "transform overflows" in plants else None
    speakers = []
    for gender, tag in ((Gender.MALE, "m"), (Gender.FEMALE, "f")):
        for i in rng.permutation(sizes[gender]):  # ids not in row order
            count = data.draw(st.sampled_from([int(rng.integers(1, 500))] * 9 + [2**62]))  # sums beyond int64
            std = data.draw(st.sampled_from([0.0, 0.1, rng.uniform(0.0, 0.5)]))
            stats = LogF0Stats(rng.uniform(4.0, 6.0) if log_f0 is None else log_f0, std, count)
            speakers.append(PoolSpeaker(f"p{tag}{i}", gender, rng.normal(size=d), stats))
    for plant in sorted(plants & POOL_VECTORS):
        at = data.draw(st.integers(0, len(speakers) - 1))
        vector = {"tied pool": speakers[0].mean_embedding, "zero pool speaker": np.zeros(d),
                  "pool norm overflows": np.full(d, 1e200)}[plant]
        speakers[at] = dataclasses.replace(speakers[at], mean_embedding=vector)
    model = None if scorer is Scorer.PLDA and "no PLDA model" in plants else random_model(rng, d)
    k_far = data.draw(st.sampled_from(range(1, min(sizes[Gender.FEMALE], sizes[Gender.MALE] or 24) + 1)), label="k_far")
    if "k_far above a pool" in plants:
        k_far = min(sizes.values()) + 1
    cfg = SelectionConfig(
        k_far=k_far, k_sel=data.draw(st.sampled_from(range(1, k_far + 1)), label="k_sel"),
        gender_policy=data.draw(st.sampled_from(GenderPolicy), label="policy"), scorer=scorer,
        global_seed=data.draw(st.integers(0, 2**64 - 1)), length_norm=data.draw(st.booleans()),
    )
    n_sources = data.draw(st.integers(0, 8), label="sources")
    planted = {plant: data.draw(st.integers(0, max(0, n_sources - 1)), label=plant) for plant in sorted(plants)}
    sources = []
    for i in range(n_sources):
        vectors = [rng.normal(size=d) * data.draw(st.sampled_from([1.0, 1e-3, 1e3]))
                   for _ in range(data.draw(st.integers(1, 3)))]
        frames = []
        for u in range(data.draw(st.integers(0, 2))):
            values = np.zeros(4) if data.draw(st.booleans()) and u else rng.uniform(60.0, 400.0, 12)
            values[::3] = 0.0
            frames.append(values)
        for plant in (plant for plant, at in planted.items() if at == i):
            vectors = {"source mean overflows": [np.full(d, 1e308)] * 2, "source norm overflows": [np.full(d, 1e200)],
                       "zero source": [np.zeros(d)]}.get(plant, vectors)
            if plant == "one voiced frame":
                frames.append(np.array([0.0, 150.0]))
        contours = [F0Contour(f"s{i}-u{u}", values) for u, values in enumerate(frames)]
        sources.append((f"s{i}", data.draw(st.sampled_from(Gender)), vectors, contours))
    return speakers, model, sources, cfg, data.draw(st.sampled_from(F0Mode), label="mode")


def bits(result):
    pseudo, contours = result
    stats = pseudo.f0_stats
    return (pseudo.source_speaker_id, pseudo.member_ids, pseudo.seed_used, pseudo.xvector.dtype,
            pseudo.xvector.shape, pseudo.xvector.tobytes(), repr(stats.mean), repr(stats.std),
            stats.voiced_frame_count, [(c.utterance_id, c.values.tobytes()) for c in contours])


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, d=st.sampled_from([1, 2, 5]), data=st.data())
def test_pseudonymize_speakers_equals_the_per_speaker_loop(seed, d, data):
    """For both scorers, gender policies and F0 modes, the batch gives the
    loop's member ids, seeds, x-vector, F0 statistics and contour bits for
    every speaker before the first that fails, returns each contour it does
    not transform as given, and raises that speaker's error with the same
    type and text; the same numeric warnings are issued."""
    speakers, model, sources, cfg, mode = selection_case(seed, d, data)
    expected, error = [], None
    with warnings.catch_warnings(record=True) as loop_warnings:
        warnings.simplefilter("always")
        pool = SpeakerPool(speakers, model)
        for source in sources:
            try:
                expected.append(loop_pseudonymize_speaker(pool, *source, cfg, mode))
            except PseudovoxError as exc:
                error = exc
                break
    with warnings.catch_warnings(record=True) as batch_warnings:
        warnings.simplefilter("always")
        pool = SpeakerPool(speakers, model)
        done, batch_error = selection._pseudonymize(pool, sources, cfg, mode)
        try:
            results = pseudonymize_speakers(SpeakerPool(speakers, model), sources, cfg, mode)
        except PseudovoxError as exc:
            results = exc
    event("fails" if error else "succeeds")
    assert [bits(r) for r in done] == [bits(r) for r in expected]
    for (_, _, _, given_contours), (_, contours) in zip(sources, done):
        for given, contour in zip(given_contours, contours):
            assert (contour is given) == (mode is F0Mode.ORIGINAL or not given.voiced_mask.any())
    if error is None:
        assert batch_error is None and [bits(r) for r in results] == [bits(r) for r in expected]
    else:
        event(type(error).__name__ + ": " + re.sub(r"'[^']*'|[0-9]+", "_", str(error)))
        for raised in (batch_error, results):
            assert type(raised) is type(error) and str(raised) == str(error)
    assert {str(w.message) for w in batch_warnings} == {str(w.message) for w in loop_warnings}


@pytest.mark.parametrize("scorer", list(Scorer))
@pytest.mark.parametrize("d", [1, 2, 512])
def test_batched_member_means_equal_the_loop_at_every_dimension(d, scorer):
    """With more members than NumPy's pairwise sum adds one by one (8), the
    member x-vector means are the loop's bits at every dimension: at d = 1
    NumPy sums each mean pairwise, at d > 1 row by row."""
    rng = np.random.default_rng(d)
    pool = random_pool(rng, 60, d, random_model(rng, d))
    cfg = SelectionConfig(k_far=50, k_sel=40, scorer=scorer, global_seed=7)
    sources = [(f"s{i}", Gender.MALE, [rng.normal(size=d) * 10.0 ** rng.integers(-3, 4)], []) for i in range(12)]
    batch = pseudonymize_speakers(pool, sources, cfg, F0Mode.ORIGINAL)
    loop = [loop_pseudonymize_speaker(SpeakerPool(pool.speakers, pool.plda), *s, cfg, F0Mode.ORIGINAL) for s in sources]
    assert [bits(r) for r in batch] == [bits(r) for r in loop]


# --- counts: the pool is projected once per gender, no per-pair calls ----------


def sources_of(pool, rng, d):
    return [
        SpeakerEmbedding(f"src-{s.speaker_id}", s.gender, rng.normal(size=d))
        for s in pool.speakers
    ]


@pytest.mark.parametrize("rounds", [1, 2, 8])
def test_pool_is_projected_once_per_gender(rounds, monkeypatch):
    rng = np.random.default_rng(5)
    d = 6
    pool = SpeakerPool(random_pool(rng, 9, d).speakers[:16], random_model(rng, d))
    sizes = sorted(sum(s.gender is g for s in pool.speakers) for g in Gender)
    assert sizes == [7, 9]
    rows = []
    project_many = selection.project_many

    def counting(model, vectors, length_norm=True):
        rows.append(len(vectors))
        return project_many(model, vectors, length_norm=length_norm)

    monkeypatch.setattr(selection, "project_many", counting)
    cfg = SelectionConfig(k_far=5, k_sel=2)
    sources = sources_of(pool, rng, d)
    # however often the sources are selected for, the projections are reused
    results = [derive_pseudo_speaker(pool, src, cfg) for _ in range(rounds) for src in sources]
    assert len(results) == rounds * len(sources)
    assert sorted(rows) == sizes


def count_calls(monkeypatch, fn):
    """Count calls of ``fn`` through every ``pseudovox`` name bound to it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pseudovox" or name.startswith("pseudovox."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_cosine_selection_makes_no_per_pair_calls(monkeypatch):
    calls = count_calls(monkeypatch, pseudovox.plda.cosine_score)
    rng = np.random.default_rng(9)
    pool = random_pool(rng, 8, 4)
    cfg = SelectionConfig(k_far=6, k_sel=3, scorer=Scorer.COSINE)
    for source in sources_of(pool, rng, 4):
        derive_pseudo_speaker(pool, source, cfg)
    assert calls == []


def write_score_inputs(tmp_path, rng, d=5):
    model = random_model(rng, d)
    enroll = [
        SpeakerEmbedding(f"spk{s}", Gender.MALE, rng.normal(size=d), f"spk{s}-u{u}")
        for s in (3, 1, 4) for u in range(1 + s % 3)
    ]
    trials = [
        SpeakerEmbedding("t", Gender.FEMALE, rng.normal(size=d), f"utt{u}") for u in (7, 2, 9, 5)
    ]
    # sparse, unsorted, with repeated enrollment speakers; spk1 is never used
    key = [("spk4", "utt9", True), ("spk3", "utt2", False), ("spk4", "utt7", False),
           ("spk3", "utt9", True), ("spk4", "utt2", False)]
    paths = []
    for name, text in (
        ("plda.txt", formats.serialize_plda(model)),
        ("enroll.txt", formats.serialize_embeddings(enroll)),
        ("trials.txt", formats.serialize_embeddings(trials)),
        ("key.txt", formats.serialize_trials(key)),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths.append(str(tmp_path / name))
    return paths, model, enroll, trials, key


def test_score_bytes_equal_the_scalar_loop(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, pseudovox.plda.plda_score)
    paths, model, enroll, trials, key = write_score_inputs(tmp_path, np.random.default_rng(17))
    out = tmp_path / "scores.txt"
    result = CliRunner().invoke(main, ["score", *paths, str(out)])
    assert result.exit_code == 0, result.output
    assert calls == []
    enroll_latents = {}
    for emb in enroll:
        enroll_latents.setdefault(emb.speaker_id, []).append(project(model, emb))
    trial_latents = {emb.utterance_id: project(model, emb) for emb in trials}
    rows = [
        (e, t, scalar_plda_score(model, np.mean(enroll_latents[e], axis=0), trial_latents[t]))
        for e, t, _ in key
    ]
    assert out.read_bytes() == formats.serialize_scores(rows).encode("utf-8")
