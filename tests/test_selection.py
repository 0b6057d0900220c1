import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from pseudovox.errors import (
    EmptyAfterFilterError,
    InvalidSpecError,
    PoolTooSmallError,
)
from pseudovox.f0 import F0Contour, F0Mode, LogF0Stats, compute_log_f0_stats, transform_contour
from pseudovox.plda import Gender, PldaModel, SpeakerEmbedding
from pseudovox import selection
from pseudovox.selection import (
    GenderPolicy,
    PoolSpeaker,
    Scorer,
    SelectionConfig,
    SpeakerPool,
    derive_pseudo_speaker,
    fnv1a64,
    filter_by_gender,
    pseudonymize_speaker,
    rank_furthest,
    sample_without_replacement,
    seed_for_speaker,
)

STATS = LogF0Stats(5.0, 0.2, 100)


def make_pool(entries, plda=None):
    return SpeakerPool(
        [PoolSpeaker(sid, gender, vec, STATS) for sid, gender, vec in entries], plda
    )


def small_pool():
    return make_pool(
        [
            ("m1", Gender.MALE, [1.0, 0.0]),
            ("m2", Gender.MALE, [0.0, 1.0]),
            ("m3", Gender.MALE, [1.0, 1.0]),
            ("f1", Gender.FEMALE, [2.0, 0.0]),
            ("f2", Gender.FEMALE, [0.0, 2.0]),
        ]
    )


def test_filter_same_and_opposite():
    pool = small_pool()
    same = filter_by_gender(pool, Gender.MALE, GenderPolicy.SAME)
    assert sorted(s.speaker_id for s in same.speakers) == ["m1", "m2", "m3"]
    opposite = filter_by_gender(pool, Gender.MALE, GenderPolicy.OPPOSITE)
    assert sorted(s.speaker_id for s in opposite.speakers) == ["f1", "f2"]


def test_filter_empty_raises():
    pool = make_pool([("m1", Gender.MALE, [1.0])])
    with pytest.raises(EmptyAfterFilterError):
        filter_by_gender(pool, Gender.MALE, GenderPolicy.OPPOSITE)


def test_rank_returns_all_when_k_far_equals_pool():
    pool = small_pool()
    cfg = SelectionConfig(k_far=5, k_sel=1, scorer=Scorer.COSINE)
    ranked = rank_furthest(pool, np.array([1.0, 0.0]), cfg)
    assert sorted(ranked) == ["f1", "f2", "m1", "m2", "m3"]


def test_rank_with_plda_picks_furthest():
    model = PldaModel(np.zeros(1), np.eye(1), np.ones(1))
    pool = make_pool(
        [("A", Gender.MALE, [0.0]), ("B", Gender.MALE, [3.0])], plda=model
    )
    cfg = SelectionConfig(k_far=1, k_sel=1, length_norm=False)
    assert rank_furthest(pool, np.array([0.0]), cfg) == ["B"]


def test_rank_tie_break_by_speaker_id():
    pool = make_pool(
        [("zz", Gender.MALE, [1.0, 2.0]), ("aa", Gender.MALE, [1.0, 2.0])]
    )
    cfg = SelectionConfig(k_far=1, k_sel=1, scorer=Scorer.COSINE)
    assert rank_furthest(pool, np.array([1.0, 0.0]), cfg) == ["aa"]


def test_rank_pool_too_small():
    pool = small_pool()
    cfg = SelectionConfig(k_far=6, k_sel=1, scorer=Scorer.COSINE)
    with pytest.raises(PoolTooSmallError):
        rank_furthest(pool, np.array([1.0, 0.0]), cfg)


def test_rank_plda_without_model_raises():
    pool = small_pool()
    cfg = SelectionConfig(k_far=2, k_sel=1, scorer=Scorer.PLDA)
    with pytest.raises(InvalidSpecError):
        rank_furthest(pool, np.array([1.0, 0.0]), cfg)


def big_pool(per_gender=30, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    entries = []
    for gender, tag in ((Gender.MALE, "m"), (Gender.FEMALE, "f")):
        for i in range(per_gender):
            entries.append((f"{tag}{i:03d}", gender, rng.normal(size=dim)))
    return make_pool(entries)


def source(seed=1, dim=8, gender=Gender.MALE):
    rng = np.random.default_rng(seed)
    return SpeakerEmbedding("src", gender, rng.normal(size=dim))


def test_derive_with_k_sel_equal_k_far_is_seed_independent():
    pool = big_pool()
    src = source()
    cfg1 = SelectionConfig(k_far=10, k_sel=10, scorer=Scorer.COSINE, global_seed=1)
    cfg2 = SelectionConfig(k_far=10, k_sel=10, scorer=Scorer.COSINE, global_seed=999)
    p1 = derive_pseudo_speaker(pool, src, cfg1)
    p2 = derive_pseudo_speaker(pool, src, cfg2)
    assert p1.member_ids == p2.member_ids
    assert np.array_equal(p1.xvector, p2.xvector)
    assert set(p1.member_ids) == set(rank_furthest(
        filter_by_gender(pool, src.gender, cfg1.gender_policy), src.vector, cfg1
    ))


def test_derive_is_deterministic():
    pool = big_pool()
    cfg = SelectionConfig(k_far=12, k_sel=5, scorer=Scorer.COSINE, global_seed=42)
    p1 = derive_pseudo_speaker(pool, source(), cfg)
    p2 = derive_pseudo_speaker(pool, source(), cfg)
    assert p1.member_ids == p2.member_ids
    assert p1.seed_used == p2.seed_used
    assert np.array_equal(p1.xvector, p2.xvector)
    assert p1.f0_stats == p2.f0_stats


def test_derive_mean_of_two_members():
    pool = make_pool(
        [("a", Gender.MALE, [1.0, 0.0]), ("b", Gender.MALE, [0.0, 1.0])]
    )
    cfg = SelectionConfig(k_far=2, k_sel=2, scorer=Scorer.COSINE)
    pseudo = derive_pseudo_speaker(pool, source(dim=2), cfg)
    assert pseudo.xvector == pytest.approx([0.5, 0.5])
    assert pseudo.f0_stats.mean == STATS.mean
    assert pseudo.f0_stats.voiced_frame_count == 2 * STATS.voiced_frame_count


def test_members_subset_of_furthest_and_policy_respected():
    pool = big_pool(per_gender=40)
    for policy in GenderPolicy:
        cfg = SelectionConfig(
            k_far=20, k_sel=8, gender_policy=policy, scorer=Scorer.COSINE, global_seed=3
        )
        src = source(seed=7)
        ranked = rank_furthest(
            filter_by_gender(pool, src.gender, policy), src.vector, cfg
        )
        pseudo = derive_pseudo_speaker(pool, src, cfg)
        assert len(pseudo.member_ids) == 8
        assert len(set(pseudo.member_ids)) == 8
        assert set(pseudo.member_ids) <= set(ranked)
        by_id = {s.speaker_id: s.gender for s in pool.speakers}
        wanted = src.gender if policy is GenderPolicy.SAME else src.gender.opposite
        assert all(by_id[m] is wanted for m in pseudo.member_ids)


def test_changing_global_seed_changes_members():
    pool = big_pool(per_gender=60)
    results = set()
    for seed in range(12):
        cfg = SelectionConfig(
            k_far=40, k_sel=10, scorer=Scorer.COSINE, global_seed=seed
        )
        results.add(tuple(derive_pseudo_speaker(pool, source(), cfg).member_ids))
    assert len(results) > 1


def test_grand_mean_when_selecting_entire_filtered_pool():
    pool = big_pool(per_gender=15)
    cfg = SelectionConfig(k_far=15, k_sel=15, scorer=Scorer.COSINE)
    src = source(gender=Gender.FEMALE)
    pseudo = derive_pseudo_speaker(pool, src, cfg)
    females = [s.mean_embedding for s in pool.speakers if s.gender is Gender.FEMALE]
    assert pseudo.xvector == pytest.approx(np.mean(females, axis=0), rel=1e-12)


def test_pseudonymize_speaker_derives_from_the_mean_embedding():
    pool = big_pool()
    cfg = SelectionConfig(k_far=12, k_sel=5, scorer=Scorer.COSINE, global_seed=42)
    rng = np.random.default_rng(5)
    vectors = [rng.normal(size=8) for _ in range(3)]
    contours = [F0Contour("u0", [0.0, 110.0, 130.0])]
    direct = derive_pseudo_speaker(
        pool, SpeakerEmbedding("src", Gender.MALE, np.mean(vectors, axis=0)), cfg
    )
    for mode in F0Mode:
        pseudo, _ = pseudonymize_speaker(pool, "src", Gender.MALE, vectors, contours, cfg, mode)
        assert pseudo.source_speaker_id == direct.source_speaker_id
        assert pseudo.member_ids == direct.member_ids
        assert pseudo.seed_used == direct.seed_used
        assert np.array_equal(pseudo.xvector, direct.xvector)
        assert pseudo.f0_stats == direct.f0_stats


def test_pseudonymize_speaker_keeps_original_contours():
    cfg = SelectionConfig(k_far=12, k_sel=5, scorer=Scorer.COSINE)
    contours = [F0Contour("u0", [0.0, 110.0, 130.0]), F0Contour("u1", [0.0, 0.0])]
    _, out = pseudonymize_speaker(
        big_pool(), "src", Gender.MALE, [source().vector], contours, cfg, F0Mode.ORIGINAL
    )
    assert len(out) == len(contours)
    assert all(got is given for got, given in zip(out, contours))


def test_pseudonymize_speaker_renormalizes_voiced_contours_only():
    cfg = SelectionConfig(k_far=12, k_sel=5, scorer=Scorer.COSINE)
    voiced = F0Contour("u0", [0.0, 110.0, 130.0])
    unvoiced = F0Contour("u1", [0.0, 0.0])
    pseudo, out = pseudonymize_speaker(
        big_pool(), "src", Gender.MALE, [source().vector], [voiced, unvoiced], cfg, F0Mode.MODIFIED
    )
    assert out[0] == transform_contour(voiced, compute_log_f0_stats(voiced), pseudo.f0_stats)
    assert out[1] is unvoiced
    assert np.array_equal(unvoiced.values, [0.0, 0.0])


def test_splitmix64_and_fnv1a64_known_answers():
    rng = oracles.SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    rng = oracles.SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(2)] == [6457827717110365317, 3203168211198807973]
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


U64 = st.integers(0, 2**64 - 1)
# bounds of the k_far size, which almost never reject, and bounds just above
# 2**63, where about half the draws fall in the rejected tail
BOUNDS = st.one_of(st.integers(1, 300), st.integers(2**63 - 2**10, 2**63 + 2**10), st.integers(1, 2**64 - 1))


def draws_made(states, seeds):
    """How many outputs each lane's generator made since its seed: each adds
    the odd increment to the state, so it is a product by the increment's
    inverse modulo 2**64."""
    inverse = pow(selection._GOLDEN, -1, 2**64)
    return [(state - seed) * inverse % 2**64 for state, seed in zip(states.tolist(), seeds)]


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(U64, min_size=1, max_size=24), bounds=st.lists(BOUNDS, min_size=1, max_size=6))
def test_batched_bounded_draw_equals_splitmix64_below_lane_by_lane(seeds, bounds):
    states = np.array(seeds, dtype=np.uint64)
    generators = [oracles.SplitMix64(seed) for seed in seeds]
    for n in bounds:
        assert selection._below(states, n).tolist() == [rng.below(n) for rng in generators]
        assert states.tolist() == [rng._state for rng in generators]
    steps = draws_made(states, seeds)
    event("a lane drew again" if max(steps) > len(bounds) else "no lane drew again")


def test_batched_bounded_draw_redraws_only_the_lanes_that_reject():
    seeds = list(range(64))
    n = 2**63 + 1  # the tail is 2**63 - 1 values: about half the draws reject
    states = np.array(seeds, dtype=np.uint64)
    generators = [oracles.SplitMix64(seed) for seed in seeds]
    assert selection._below(states, n).tolist() == [rng.below(n) for rng in generators]
    steps = draws_made(states, seeds)
    assert min(steps) == 1 and max(steps) > 1


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(U64, max_size=12), data=st.data())
def test_batched_draw_equals_sample_without_replacement(seeds, data):
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, n))
    drawn = selection._draw(seeds, n, k)
    assert drawn.shape == (len(seeds), k)
    assert drawn.tolist() == [oracles.sample_without_replacement(list(range(n)), k, seed) for seed in seeds]


def draw_outcome(draw, items, k, seed):
    try:
        return draw(items, k, seed)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(items=st.lists(st.text(max_size=3), max_size=60), data=st.data(),
       seed=st.one_of(U64, st.integers(-2**70, 2**70)))
def test_sample_without_replacement_equals_the_scalar_draw(items, data, seed):
    """The public draw, one lane of the batched draw, gives the scalar
    generator's list or raises its error, for any k from -3 to n + 1 and for
    seeds outside [0, 2**64), which both reduce modulo 2**64."""
    k = data.draw(st.integers(-3, len(items) + 1))
    assert draw_outcome(sample_without_replacement, items, k, seed) == draw_outcome(
        oracles.sample_without_replacement, items, k, seed)


def test_sample_without_replacement_known_answers():
    assert sample_without_replacement([f"p{i}" for i in range(12)], 5, 2024) == ["p1", "p9", "p3", "p10", "p6"]
    assert sample_without_replacement(list(range(200)), 8, 2**64 - 1) == [136, 16, 105, 149, 138, 135, 69, 147]
    assert sample_without_replacement(list("abcdefgh"), 3, -5) == ["c", "a", "f"]


def test_seed_for_speaker_is_pure_and_collision_free():
    assert seed_for_speaker(1, "spk-A") == seed_for_speaker(1, "spk-A")
    assert seed_for_speaker(1, "spk-A") != seed_for_speaker(2, "spk-A")
    ids = [f"spk-{i}" for i in range(1000)]
    outs = {seed_for_speaker(1, sid) for sid in ids}
    assert len(outs) == 1000
    across = {(seed_for_speaker(g, sid)) for g in (1, 2) for sid in ids}
    assert len(across) == 2000
    assert all(0 <= s < (1 << 64) for s in outs)


def test_sampling_is_unbiased_subset():
    items = [f"x{i}" for i in range(30)]
    drawn = sample_without_replacement(items, 10, seed=99)
    assert len(drawn) == 10
    assert len(set(drawn)) == 10
    assert set(drawn) <= set(items)
    assert drawn == sample_without_replacement(items, 10, seed=99)
    assert drawn != sample_without_replacement(items, 10, seed=100)


def test_selection_config_validation():
    with pytest.raises(InvalidSpecError):
        SelectionConfig(k_far=5, k_sel=6)
    with pytest.raises(InvalidSpecError):
        SelectionConfig(k_far=0, k_sel=0)
    with pytest.raises(InvalidSpecError):
        SelectionConfig(global_seed=-1)
