"""Batched scoring and ranking are bit-identical to the per-pair code they
replaced (``tests/oracles.py``), and the per-pair loops stay gone."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudovox.plda
from pseudovox import formats, selection
from pseudovox.cli import main
from pseudovox.concurrency import parallel_map
from pseudovox.f0 import LogF0Stats
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
    PoolSpeaker,
    Scorer,
    SelectionConfig,
    SpeakerPool,
    derive_pseudo_speaker,
    filter_by_gender,
    rank_furthest,
)

from oracles import rank_furthest_scalar, scalar_cosine_scores, scalar_plda_score, sorted_ranking

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


# --- counts: the pool is projected once per gender, no per-pair calls ----------


def sources_of(pool, rng, d):
    return [
        SpeakerEmbedding(f"src-{s.speaker_id}", s.gender, rng.normal(size=d))
        for s in pool.speakers
    ]


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_pool_is_projected_once_per_gender(threads, monkeypatch):
    rng = np.random.default_rng(5)
    d = 6
    pool = SpeakerPool(random_pool(rng, 9, d).speakers[:16], random_model(rng, d))
    sizes = sorted(sum(s.gender is g for s in pool.speakers) for g in Gender)
    assert sizes == [7, 9]
    rows = []
    lock = threading.Lock()
    project_many = selection.project_many

    def counting(model, vectors, length_norm=True):
        with lock:
            rows.append(len(vectors))
        time.sleep(0.02)  # widen the window in which two threads could both build
        return project_many(model, vectors, length_norm=length_norm)

    monkeypatch.setattr(selection, "project_many", counting)
    cfg = SelectionConfig(k_far=5, k_sel=2)
    sources = sources_of(pool, rng, d)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose a lost update
    try:
        results = parallel_map(lambda src: derive_pseudo_speaker(pool, src, cfg), sources, threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == len(sources)
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
