import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

import oracles
from pseudovox import formats, simulate
from pseudovox.cli import main
from pseudovox.errors import InvalidSpecError
from pseudovox.metrics import TrialScoreSet, evaluate
from pseudovox.plda import Gender, plda_score, project
from pseudovox.selection import GenderPolicy, SelectionConfig
from pseudovox.simulate import (
    UNVOICED_STRIDE,
    AttackerModel,
    AttackModel,
    CohortSpec,
    F0Mode,
    ScenarioConfig,
    generate_cohort,
    run_baseline,
    run_scenario,
)

SMALL = CohortSpec(n_speakers_per_gender=8, utts_per_speaker=3, embed_dim=8, seed=7)
SEL = SelectionConfig(k_far=6, k_sel=3, length_norm=False)


def sorted_rows(result):
    """The grid as the (enroll, utt, score) and (enroll, utt, target) records
    of ``scores.txt`` and ``trials.txt``, each sorted on (enroll, utt)."""
    pairs = [(e, u) for e in result.enroll_ids for u in result.utt_ids]
    assert result.score_matrix.shape == result.label_matrix.shape == (
        len(result.enroll_ids), len(result.utt_ids)
    )
    return (
        sorted((e, u, v) for (e, u), v in zip(pairs, result.score_matrix.ravel().tolist())),
        sorted((e, u, t) for (e, u), t in zip(pairs, result.label_matrix.ravel().tolist())),
    )


def test_cohort_is_deterministic():
    a = generate_cohort(SMALL)
    b = generate_cohort(SMALL)
    for ua, ub in zip(a.users, b.users):
        assert ua.speaker_id == ub.speaker_id
        assert np.array_equal(ua.identity, ub.identity)
        for xa, xb in zip(ua.utterances, ub.utterances):
            assert np.array_equal(xa.embedding, xb.embedding)
            assert xa.contour == xb.contour
    for pa, pb in zip(a.pool.speakers, b.pool.speakers):
        assert pa == pb
    assert a.plda == b.plda


def test_cohort_structure():
    cohort = generate_cohort(SMALL)
    assert len(cohort.users) == 16
    assert len(cohort.pool.speakers) == 16
    assert all(len(u.utterances) == 3 for u in cohort.users)
    for user in cohort.users:
        for utt in user.utterances:
            unvoiced = np.flatnonzero(utt.contour.values == 0.0)
            assert np.array_equal(
                unvoiced, np.arange(0, SMALL.frames_per_utt, UNVOICED_STRIDE)
            )
    assert np.all(cohort.plda.psi == SMALL.between_var / SMALL.within_var)
    genders = {u.gender for u in cohort.users}
    assert genders == {Gender.MALE, Gender.FEMALE}
    male_f0 = np.mean([u.log_f0_mean for u in cohort.users if u.gender is Gender.MALE])
    female_f0 = np.mean([u.log_f0_mean for u in cohort.users if u.gender is Gender.FEMALE])
    assert female_f0 > male_f0


def test_cohort_spec_validation():
    with pytest.raises(InvalidSpecError):
        CohortSpec(between_var=0.0)
    with pytest.raises(InvalidSpecError):
        CohortSpec(f0_mean_male=5.3, f0_mean_female=4.8)
    with pytest.raises(InvalidSpecError):
        CohortSpec(frames_per_utt=1)


@pytest.mark.parametrize("utts", [0, 1])
def test_cohort_needs_a_trial_utterance_per_speaker(utts):
    with pytest.raises(InvalidSpecError, match=r"^utts_per_speaker must be >= 2: one enrollment"):
        CohortSpec(utts_per_speaker=utts)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"between_var": math.inf}, "between_var"),
        ({"within_var": math.nan}, "within_var"),
        ({"f0_between_std": math.inf}, "f0_between_std"),
        ({"f0_within_std": -math.inf}, "f0_within_std"),
        ({"f0_mean_male": -math.inf, "f0_mean_female": 5.3}, "f0_mean_male"),
        ({"f0_mean_male": 4.8, "f0_mean_female": math.inf}, "f0_mean_female"),
    ],
)
def test_cohort_spec_rejects_non_finite_values(kwargs, name):
    with pytest.raises(InvalidSpecError, match=f"^{name} must be finite$"):
        CohortSpec(**kwargs)


def test_vanishing_between_variance_gives_chance_eer():
    cohort = generate_cohort(CohortSpec(
        n_speakers_per_gender=12, utts_per_speaker=4, embed_dim=8,
        between_var=1e-9, seed=3,
    ))
    report = run_baseline(cohort).report
    n_trials = report.n_target_trials + report.n_nontarget_trials
    assert n_trials >= 200
    assert abs(report.eer - 0.5) <= 0.05


def test_small_within_variance_gives_near_zero_eer():
    cohort = generate_cohort(CohortSpec(
        n_speakers_per_gender=12, utts_per_speaker=4, embed_dim=8,
        within_var=1e-4, seed=4,
    ))
    report = run_baseline(cohort).report
    assert report.n_target_trials + report.n_nontarget_trials >= 200
    assert report.eer < 0.02


def test_baseline_matches_manual_plda_scoring():
    cohort = generate_cohort(SMALL)
    result = run_baseline(cohort)
    target, nontarget = [], []
    for enroll_user in cohort.users:
        e = project(cohort.plda, enroll_user.enrollment.embedding, length_norm=False)
        for user in cohort.users:
            for utt in user.trial_utterances:
                t = project(cohort.plda, utt.embedding, length_norm=False)
                llr = plda_score(cohort.plda, e, t)
                (target if user.speaker_id == enroll_user.speaker_id else nontarget).append(llr)
    manual = evaluate(TrialScoreSet(np.array(target), np.array(nontarget)))
    # batch and per-pair scoring may differ in the last ulp of the summation
    assert result.report.eer_pct == pytest.approx(manual.eer_pct, abs=1e-9)
    assert result.report.cllr_bits == pytest.approx(manual.cllr_bits, abs=1e-12)
    assert result.report.min_cllr_bits == pytest.approx(manual.min_cllr_bits, abs=1e-12)
    assert result.report.n_target_trials == manual.n_target_trials
    assert result.report.n_nontarget_trials == manual.n_nontarget_trials


def test_scenario_is_deterministic():
    cohort = generate_cohort(SMALL)
    cfg = ScenarioConfig(
        attack=AttackModel.ANONYMIZED_TO_ANONYMIZED,
        f0_mode=F0Mode.MODIFIED,
        enroll_seed=11,
        trial_seed=12,
        attacker=AttackerModel.EMBEDDING_PLUS_F0,
    )
    r1 = run_scenario(cohort, cfg, SEL)
    r2 = run_scenario(cohort, cfg, SEL)
    r3 = run_scenario(generate_cohort(SMALL), cfg, SEL)  # a fresh pool cache
    assert r1.enroll_ids == r2.enroll_ids == r3.enroll_ids
    assert r1.utt_ids == r2.utt_ids == r3.utt_ids
    assert np.array_equal(r1.score_matrix, r2.score_matrix)
    assert np.array_equal(r1.score_matrix, r3.score_matrix)
    assert np.array_equal(r1.label_matrix, r2.label_matrix)
    assert np.array_equal(r1.label_matrix, r3.label_matrix)
    assert r1.report == r2.report == r3.report
    assert r1.f0_weight_used == r3.f0_weight_used


def test_aa_requires_distinct_seeds():
    cohort = generate_cohort(SMALL)
    cfg = ScenarioConfig(
        attack=AttackModel.ANONYMIZED_TO_ANONYMIZED, enroll_seed=5, trial_seed=5
    )
    with pytest.raises(InvalidSpecError):
        run_scenario(cohort, cfg, SEL)
    # diagnostic bypass collapses both sides onto one pseudo-speaker per user;
    # linkability gets near-perfect (the < 5% bound at full cohort scale is
    # checked by the acceptance suite)
    equal = run_scenario(cohort, cfg, SEL, allow_equal_seeds=True)
    distinct = run_scenario(
        cohort,
        ScenarioConfig(
            attack=AttackModel.ANONYMIZED_TO_ANONYMIZED, enroll_seed=5, trial_seed=6
        ),
        SEL,
    )
    assert equal.report.eer < 0.15
    assert equal.report.eer < distinct.report.eer


def test_oa_attack_hides_speakers():
    cohort = generate_cohort(SMALL)
    baseline = run_baseline(cohort).report.eer
    cfg = ScenarioConfig(attack=AttackModel.ORIGINAL_TO_ANONYMIZED, trial_seed=21)
    attacked = run_scenario(cohort, cfg, SEL).report.eer
    assert attacked > baseline


def test_f0_modification_reduces_f0_leakage():
    cohort = generate_cohort(CohortSpec(seed=41))
    sel = SelectionConfig(k_far=12, k_sel=6, length_norm=False)
    reports = {}
    for mode in (F0Mode.ORIGINAL, F0Mode.MODIFIED):
        cfg = ScenarioConfig(
            attack=AttackModel.ANONYMIZED_TO_ANONYMIZED,
            f0_mode=mode,
            enroll_seed=101,
            trial_seed=102,
            attacker=AttackerModel.EMBEDDING_PLUS_F0,
        )
        reports[mode] = run_scenario(cohort, cfg, sel).report
    assert reports[F0Mode.MODIFIED].eer > reports[F0Mode.ORIGINAL].eer
    assert reports[F0Mode.MODIFIED].min_cllr_bits > reports[F0Mode.ORIGINAL].min_cllr_bits


def test_f0_weight_override_is_used():
    cohort = generate_cohort(SMALL)
    cfg = ScenarioConfig(
        attack=AttackModel.ORIGINAL_TO_ANONYMIZED,
        attacker=AttackerModel.EMBEDDING_PLUS_F0,
        f0_weight=2.5,
        trial_seed=3,
    )
    result = run_scenario(cohort, cfg, SEL)
    assert result.f0_weight_used == 2.5
    auto = run_scenario(
        cohort,
        ScenarioConfig(
            attack=AttackModel.ORIGINAL_TO_ANONYMIZED,
            attacker=AttackerModel.EMBEDDING_PLUS_F0,
            trial_seed=3,
        ),
        SEL,
    )
    assert auto.f0_weight_used is not None and auto.f0_weight_used > 0.0
    only = run_scenario(
        cohort,
        ScenarioConfig(attack=AttackModel.ORIGINAL_TO_ANONYMIZED, trial_seed=3),
        SEL,
    )
    assert only.f0_weight_used is None


def test_gender_policy_flows_from_selection_config():
    cohort = generate_cohort(SMALL)
    cfg = ScenarioConfig(attack=AttackModel.ORIGINAL_TO_ANONYMIZED, trial_seed=9)
    same = run_scenario(cohort, cfg, replace(SEL, gender_policy=GenderPolicy.SAME))
    opposite = run_scenario(cohort, cfg, replace(SEL, gender_policy=GenderPolicy.OPPOSITE))
    assert sorted_rows(same)[0] != sorted_rows(opposite)[0]


@settings(max_examples=40, deadline=None)
@given(
    n_per_gender=st.integers(2, 5),
    utts=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    attack=st.sampled_from(AttackModel),
    f0_mode=st.sampled_from(F0Mode),
    attacker=st.sampled_from(AttackerModel),
    f0_weight=st.sampled_from([None, 0.5]),
)
def test_scenario_rows_equal_the_sorted_oracle(
    n_per_gender, utts, seed, attack, f0_mode, attacker, f0_weight
):
    """The grid, expanded to rows and sorted as the writers order them, is
    the per-trial rows that one sort on (enroll, utt) keys gave, split into
    the two files' records. The pairs are unique, so ``sorted`` never
    compares the values."""
    cohort = generate_cohort(CohortSpec(
        n_speakers_per_gender=n_per_gender, utts_per_speaker=utts, embed_dim=4,
        frames_per_utt=20, seed=seed,
    ))
    cfg = ScenarioConfig(attack=attack, f0_mode=f0_mode, attacker=attacker, f0_weight=f0_weight)
    calls = []
    real = simulate._score_trials
    with patch.object(simulate, "_score_trials", lambda *args: calls.append(args) or real(*args)):
        result = run_scenario(cohort, cfg, SelectionConfig(k_far=2, k_sel=1, length_norm=False))
    score_set, score_rows, trial_rows, weight = oracles.sorted_trial_rows(*calls[0])
    grid_scores, grid_trials = sorted_rows(result)
    assert repr(grid_scores) == repr(score_rows)
    assert repr(grid_trials) == repr(trial_rows)
    assert result.scores == score_set
    assert repr(result.f0_weight_used) == repr(weight)


def test_simulate_trial_side_is_what_anonymize_ships(tmp_path):
    """``anonymize``, run with ``simulate``'s settings and trial seed on the
    files ``simulate`` wrote, draws the members and writes the contours that
    ``simulate``'s trial side used: the attack runs the shipped pipeline."""
    sim, anon = tmp_path / "sim", tmp_path / "anon"
    # a pool much larger than k_far, so that the ranking decides the members
    selection = ["--k-far", "4", "--k-sel", "2", "--scorer", "plda"]
    calls = []
    real = simulate.pseudonymize_speakers

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    runner = CliRunner()
    with patch.object(simulate, "pseudonymize_speakers", recorded):
        result = runner.invoke(main, [
            "simulate", "--out-dir", str(sim), "--attack", "a-a", "--enroll-seed", "11",
            "--trial-seed", "12", "--f0-mode", "modified", "--gender-policy", "opposite",
            "--n-speakers-per-gender", "10", "--utts-per-speaker", "3", "--embed-dim", "8",
            "--frames-per-utt", "40", *selection,
        ])
    assert result.exit_code == 0, result.output
    # one batch per side, one result per speaker
    assert len(calls) == 2 and [len(out) for _, out in calls] == [20, 20]
    trial_side = {
        speaker[0]: result
        for args, out in calls if args[2].global_seed == 12
        for speaker, result in zip(args[1], out, strict=True)
    }
    assert len(trial_side) == 20

    result = runner.invoke(main, [
        "--seed", "12", "anonymize", "--pool", str(sim / "pool.txt"),
        "--embeddings", str(sim / "user_embeddings.txt"),
        "--contours", str(sim / "user_contours.txt"), "--plda", str(sim / "plda.txt"),
        "--out-dir", str(anon), "--no-length-norm", "--f0", "modified", "--gender", "opposite",
        *selection,
    ])
    assert result.exit_code == 0, result.output
    mapping = formats.parse_mapping((anon / "mapping.txt").read_text())
    assert {sid: (seed, members) for sid, seed, members in mapping} == {
        sid: (pseudo.seed_used, tuple(pseudo.member_ids)) for sid, (pseudo, _) in trial_side.items()
    }
    for emb in formats.parse_embeddings((anon / "pseudo_xvectors.txt").read_text()):
        assert np.array_equal(emb.vector, trial_side[emb.speaker_id][0].xvector)
    shipped = {
        line.split(" ", 1)[0]: line
        for line in (anon / "contours_anon.txt").read_text().splitlines()
    }
    simulated = formats.serialize_contours(
        [c for _, contours in trial_side.values() for c in contours]
    ).splitlines()
    assert len(simulated) == 20 * 2
    assert simulated == [shipped[line.split(" ", 1)[0]] for line in simulated]
