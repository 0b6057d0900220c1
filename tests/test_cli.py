import errno
import faulthandler
import hashlib
import itertools
import math
import os
import select
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import click
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
import pseudovox
from pseudovox import cli, formats
from pseudovox.cli import main
from pseudovox.errors import InvalidValueError, PseudovoxError
from pseudovox.f0 import F0Contour, F0Mode, LogF0Stats, compute_log_f0_stats
from pseudovox.metrics import TrialScoreSet, det_points, evaluate
from pseudovox.plda import Gender, PldaModel, SpeakerEmbedding, plda_score, project
from pseudovox.selection import PoolSpeaker, Scorer, SelectionConfig, SpeakerPool
from pseudovox.simulate import AttackerModel, AttackModel, CohortSpec, ScenarioConfig, generate_cohort, run_scenario


@pytest.fixture
def runner():
    return CliRunner()


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- stats -------------------------------------------------------------------


def test_stats_empty_input(tmp_path, runner):
    contours = write(tmp_path / "c.txt", "")
    out = tmp_path / "stats.txt"
    result = runner.invoke(main, ["stats", contours, str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text() == ""


def test_stats_skips_unvoiced_with_warning(tmp_path, runner):
    contours = write(tmp_path / "c.txt", "u1 100.0 0.0 400.0\nu2 0.0 0.0\n")
    out = tmp_path / "stats.txt"
    result = runner.invoke(main, ["stats", contours, str(out)])
    assert result.exit_code == 0
    assert "u2" in result.stderr
    records = formats.parse_stats(out.read_text())
    assert [r[0] for r in records] == ["u1"]
    expected = compute_log_f0_stats(F0Contour("u1", [100.0, 0.0, 400.0]))
    assert records[0][1] == expected


def test_outputs_get_the_default_file_mode(tmp_path, runner):
    contours = write(tmp_path / "c.txt", "u1 100.0 0.0 400.0\n")
    out = tmp_path / "stats.txt"
    umask = os.umask(0o022)
    os.umask(umask)
    result = runner.invoke(main, ["stats", contours, str(out)])
    assert result.exit_code == 0, result.output
    for path in (out, tmp_path / "stats.txt.manifest"):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_stats_parse_error_exits_nonzero(tmp_path, runner):
    contours = write(tmp_path / "c.txt", "u1 abc\n")
    out = tmp_path / "stats.txt"
    result = runner.invoke(main, ["stats", contours, str(out)])
    assert result.exit_code != 0
    assert not out.exists()


# --- anonymize -----------------------------------------------------------------


def build_anonymize_inputs(tmp_path, n_per_gender=12, dim=4, n_speakers=3, utts=4):
    rng = np.random.default_rng(77)
    pool = []
    for gender, tag in ((Gender.MALE, "m"), (Gender.FEMALE, "f")):
        for i in range(n_per_gender):
            pool.append(
                PoolSpeaker(
                    f"pool{tag}{i:02d}",
                    gender,
                    rng.normal(size=dim),
                    LogF0Stats(rng.uniform(4.5, 5.5), rng.uniform(0.05, 0.4), 50),
                )
            )
    embeddings, contours = [], []
    for s in range(n_speakers):
        sid = f"src{s}"
        gender = Gender.MALE if s % 2 == 0 else Gender.FEMALE
        for u in range(utts):
            utt = f"{sid}-u{u}"
            embeddings.append(
                SpeakerEmbedding(sid, gender, rng.normal(size=dim), utt)
            )
            values = rng.uniform(80.0, 300.0, 20)
            values[::5] = 0.0
            contours.append(F0Contour(utt, values))
    model = PldaModel(np.zeros(dim), np.eye(dim), np.full(dim, 4.0))
    paths = {
        "pool": write(tmp_path / "pool.txt", formats.serialize_pool(pool)),
        "embeddings": write(
            tmp_path / "embeddings.txt", formats.serialize_embeddings(embeddings)
        ),
        "contours": write(
            tmp_path / "contours.txt", formats.serialize_contours(contours)
        ),
        "plda": write(tmp_path / "plda.txt", formats.serialize_plda(model)),
    }
    return paths


def anonymize_args(paths, out_dir, extra=()):
    return [
        "anonymize",
        "--pool", paths["pool"],
        "--embeddings", paths["embeddings"],
        "--contours", paths["contours"],
        "--plda", paths["plda"],
        "--out-dir", str(out_dir),
        "--k-far", "8",
        "--k-sel", "4",
        *extra,
    ]


def test_anonymize_rerun_is_byte_identical(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    args = ["--seed", "5"]
    r1 = runner.invoke(main, args + anonymize_args(paths, out1, ["--f0", "modified"]))
    r2 = runner.invoke(main, args + anonymize_args(paths, out2, ["--f0", "modified"]))
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0
    assert read_dir(out1) == read_dir(out2)
    mapping = formats.parse_mapping((out1 / "mapping.txt").read_text())
    assert [m[0] for m in mapping] == ["src0", "src1", "src2"]
    assert all(len(m[2]) == 4 for m in mapping)


def test_anonymize_f0_original_copies_contours(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, anonymize_args(paths, out, ["--f0", "original"]))
    assert result.exit_code == 0, result.output
    original = formats.serialize_contours(
        formats.parse_contours((tmp_path / "contours.txt").read_text())
    )
    assert (out / "contours_anon.txt").read_text() == original


def test_anonymize_modified_f0_matches_pseudo_stats(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, anonymize_args(paths, out, ["--f0", "modified"]))
    assert result.exit_code == 0
    stats = dict(formats.parse_stats((out / "pseudo_f0_stats.txt").read_text()))
    contours = formats.parse_contours((out / "contours_anon.txt").read_text())
    for contour in contours:
        speaker = contour.utterance_id.split("-")[0]
        got = compute_log_f0_stats(contour)
        assert got.mean == pytest.approx(stats[speaker].mean, abs=1e-9)
        assert got.std == pytest.approx(stats[speaker].std, abs=1e-9)


def test_anonymize_gender_policy_respected(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main, anonymize_args(paths, out, ["--gender", "opposite"])
    )
    assert result.exit_code == 0
    pool = {p.speaker_id: p.gender for p in formats.parse_pool((tmp_path / "pool.txt").read_text())}
    embeddings = formats.parse_embeddings((tmp_path / "embeddings.txt").read_text())
    gender_of = {e.speaker_id: e.gender for e in embeddings}
    for source, _, members in formats.parse_mapping((out / "mapping.txt").read_text()):
        for member in members:
            assert pool[member] is not gender_of[source]


def test_anonymize_pool_too_small_names_speaker(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path, n_per_gender=3)
    out = tmp_path / "out"
    result = runner.invoke(main, anonymize_args(paths, out))
    assert result.exit_code != 0
    assert "src" in result.stderr
    assert not (out / "mapping.txt").exists()


def test_anonymize_rejects_an_utterance_under_two_speakers(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    lines = Path(paths["embeddings"]).read_text().splitlines(keepends=True)
    write(tmp_path / "embeddings.txt", "".join(lines) + "src9 src0-u0 M 1.0 0.5 0.0 0.0\n")
    before = sorted(tmp_path.iterdir())
    result = runner.invoke(main, anonymize_args(paths, tmp_path / "out"))
    assert result.exit_code == 1
    assert result.stderr == (
        f"error: {paths['embeddings']}: utterance 'src0-u0' is listed under"
        " speakers 'src0' and 'src9'\n"
    )
    assert sorted(tmp_path.iterdir()) == before


def test_anonymize_default_selection_sizes(tmp_path, runner):
    assert SelectionConfig().k_far == 200
    assert SelectionConfig().k_sel == 100
    paths = build_anonymize_inputs(tmp_path, n_per_gender=220, n_speakers=1, utts=1)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        [
            "anonymize",
            "--pool", paths["pool"],
            "--embeddings", paths["embeddings"],
            "--contours", paths["contours"],
            "--plda", paths["plda"],
            "--out-dir", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    mapping = formats.parse_mapping((out / "mapping.txt").read_text())
    assert len(mapping[0][2]) == 100


def test_anonymize_config_file_with_flag_override(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    cfg = write(
        tmp_path / "cfg.txt",
        "k_far 8\nk_sel 2\ngender_policy same\nf0_mode original\nglobal_seed 9\n",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    r1 = runner.invoke(main, ["--config", cfg] + anonymize_args(paths, out1)[:-4])
    assert r1.exit_code == 0, r1.output
    mapping = formats.parse_mapping((out1 / "mapping.txt").read_text())
    assert all(len(m[2]) == 2 for m in mapping)
    manifest = formats.parse_keyvalues((out1 / "manifest.txt").read_text())
    assert manifest["input_sha256_config"] == sha256_file(tmp_path / "cfg.txt")
    # flag overrides the config file value
    r2 = runner.invoke(
        main, ["--config", cfg] + anonymize_args(paths, out2)[:-4] + ["--k-sel", "3"]
    )
    assert r2.exit_code == 0
    mapping2 = formats.parse_mapping((out2 / "mapping.txt").read_text())
    assert all(len(m[2]) == 3 for m in mapping2)


def test_anonymize_failed_write_keeps_earlier_outputs(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    out = tmp_path / "anon1"
    first = runner.invoke(main, anonymize_args(paths, out))
    assert first.exit_code == 0, first.output
    earlier = read_dir(out)
    (out / "contours_anon.txt").unlink()
    (out / "contours_anon.txt").mkdir()
    result = runner.invoke(main, ["--seed", "8"] + anonymize_args(paths, out, ["--f0", "modified"]))
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write"), result.stderr
    assert "contours_anon.txt" in lines[0]
    for name in ("mapping.txt", "pseudo_xvectors.txt", "pseudo_f0_stats.txt", "manifest.txt"):
        assert (out / name).read_bytes() == earlier[name]
    assert sorted(p.name for p in out.iterdir()) == sorted(earlier)  # no temp file left


def test_anonymize_failed_builder_leaves_the_tree_as_it_was(tmp_path, runner, monkeypatch):
    """An output is built inside the write: its failure after earlier outputs
    are staged replaces nothing and leaves no temp file or new directory."""
    paths = build_anonymize_inputs(tmp_path)
    out = tmp_path / "anon1"
    first = runner.invoke(main, anonymize_args(paths, out))
    assert first.exit_code == 0, first.output
    before = tree(tmp_path)

    def refuse(records):
        raise InvalidValueError("contours refused")

    monkeypatch.setattr(formats, "serialize_contours", refuse)
    for target in (out, tmp_path / "fresh" / "deeper"):
        result = runner.invoke(main, ["--seed", "8"] + anonymize_args(paths, target, ["--f0", "modified"]))
        assert result.exit_code == 1
        assert result.stderr == "error: contours refused\n"
        assert tree(tmp_path) == before


def test_anonymize_out_dir_is_a_file(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    result = runner.invoke(main, anonymize_args(paths, out))
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("scorer", ["plda", "cosine"])
def test_anonymize_embedding_dimension_error_names_the_file(tmp_path, runner, scorer):
    paths = build_anonymize_inputs(tmp_path, dim=4)
    (tmp_path / "d3").mkdir()
    embeddings = build_anonymize_inputs(tmp_path / "d3", dim=3)["embeddings"]
    out = tmp_path / "anon"
    result = runner.invoke(
        main, anonymize_args({**paths, "embeddings": embeddings}, out, ["--scorer", scorer])
    )
    assert result.exit_code == 1
    assert result.stderr == f"error: {embeddings}: embedding dimension 3 != pool dimension 4\n"
    assert not out.exists()


def test_anonymize_copies_unvoiced_contours_with_a_warning(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    contours = formats.parse_contours(Path(paths["contours"]).read_text())
    unvoiced = {"src0-u2", "src1-u0"}
    for contour in contours:
        if contour.utterance_id in unvoiced:
            contour.values[:] = 0.0
    write(tmp_path / "contours.txt", formats.serialize_contours(contours))
    out = tmp_path / "anon"
    result = runner.invoke(main, anonymize_args(paths, out, ["--f0", "modified"]))
    assert result.exit_code == 0, result.output
    assert result.stderr == (
        "warning: src0-u2 has no voiced frames, copied unchanged\n"
        "warning: src1-u0 has no voiced frames, copied unchanged\n"
    )
    anon = {c.utterance_id: c for c in formats.parse_contours((out / "contours_anon.txt").read_text())}
    for contour in contours:
        assert (anon[contour.utterance_id] == contour) is (contour.utterance_id in unvoiced)


def test_anonymize_degenerate_contour_names_its_utterance(tmp_path, runner):
    paths = build_anonymize_inputs(tmp_path)
    write(tmp_path / "embeddings.txt", "src0 u1 M 1.0 0.5 0.0 0.0\n")
    write(tmp_path / "contours.txt", "u1 0.0 120.0 0.0\n")  # one voiced frame: std 0
    out = tmp_path / "anon"
    result = runner.invoke(main, anonymize_args(paths, out, ["--f0", "modified"]))
    assert result.exit_code == 1
    assert result.stderr == (
        "error: utterance 'u1': source log-F0 std is zero;"
        " cannot scale to a nonzero target std\n"
    )
    assert not out.exists()


def _pool_edit(edit):
    def apply(paths, tmp_path):
        pool = [edit(p) for p in formats.parse_pool(Path(paths["pool"]).read_text())]
        write(tmp_path / "pool.txt", formats.serialize_pool(pool))
    return apply


def _source_edit(value):
    def apply(paths, tmp_path):
        embeddings = formats.parse_embeddings(Path(paths["embeddings"]).read_text())
        for emb in embeddings:
            if emb.speaker_id == "src0":
                emb.vector[:] = value
        write(tmp_path / "embeddings.txt", formats.serialize_embeddings(embeddings))
    return apply


def _plda_edit(old, new):
    def apply(paths, tmp_path):
        write(tmp_path / "plda.txt", Path(paths["plda"]).read_text().replace(old, new, 1))
    return apply


PLDA_SCORE_NOT_FINITE = "speaker 'src0': its PLDA score against pool speaker 'poolm00' is not finite"
POOL_NORM_OVERFLOWS = "speaker 'src0': the x-vector norm of pool speaker 'poolm00' overflows float64"


@pytest.mark.filterwarnings("error")  # a RuntimeWarning fails the run
@pytest.mark.parametrize("edit, extra, message", [
    (_pool_edit(lambda p: PoolSpeaker(p.speaker_id, p.gender, np.sign(p.mean_embedding) * 1e200, p.f0_stats)),
     ["--scorer", "cosine"], POOL_NORM_OVERFLOWS),
    (_pool_edit(lambda p: PoolSpeaker(p.speaker_id, p.gender, np.full(4, 1e308), p.f0_stats)), [], POOL_NORM_OVERFLOWS),
    (_pool_edit(lambda p: PoolSpeaker(p.speaker_id, p.gender, p.mean_embedding, LogF0Stats(1e308, 0.2, 50))), [],
     "speaker 'src0': the mean of its pool members' log-F0 statistics is not finite"),
    (_source_edit(0.0), ["--scorer", "cosine"], "speaker 'src0': cosine similarity of an all-zero vector is undefined"),
    (_source_edit(1e308), [], "speaker 'src0': the mean of its utterance x-vectors is not finite"),
    (_pool_edit(lambda p: PoolSpeaker(p.speaker_id, p.gender, p.mean_embedding, LogF0Stats(1e307, 0.2, 50))),
     ["--f0", "modified"], "speaker 'src0': utterance 'src0-u0': its transformed F0 is not finite"),
    (_plda_edit("mean 0.0", "mean 1e308"), [], PLDA_SCORE_NOT_FINITE),
    (_plda_edit("transform 1.0", "transform 1e308"), [], PLDA_SCORE_NOT_FINITE),
], ids=["cosine-pool-1e200", "pool-1e308", "pool-log-f0-1e308", "cosine-zero-source", "source-1e308",
        "pool-log-f0-1e307", "plda-mean-1e308", "plda-transform-1e308"])
def test_anonymize_error_names_the_source_speaker_and_the_pool(tmp_path, runner, edit, extra, message):
    """Finite inputs whose norms or means overflow, and an all-zero source
    under cosine, end in one error line that names the source speaker and,
    when the pool is at fault, the pool speaker or the pool members."""
    paths = build_anonymize_inputs(tmp_path)
    edit(paths, tmp_path)
    out = tmp_path / "anon"
    result = runner.invoke(main, anonymize_args(paths, out, extra))
    assert result.exit_code == 1
    assert result.stderr == f"error: {message}\n"
    assert not out.exists()


def _later_speaker_edit(case):
    """Inputs of four speakers (src0 to src3), each with an unvoiced
    utterance, whose third fails in ``case``."""
    def apply(paths, tmp_path):
        embeddings = formats.parse_embeddings(Path(paths["embeddings"]).read_text())
        for emb in embeddings:
            if emb.speaker_id == "src2" and case != "pool too small":
                emb.vector[:] = {"mean overflows": 1e308, "zero source": 0.0}[case]
            if case == "pool too small":  # src2 is the only female source, and the female pool is small
                emb.gender = Gender.FEMALE if emb.speaker_id == "src2" else Gender.MALE
        write(tmp_path / "embeddings.txt", formats.serialize_embeddings(embeddings))
        pool = formats.parse_pool(Path(paths["pool"]).read_text())
        if case == "pool too small":
            pool = [p for p in pool if p.gender is Gender.MALE or p.speaker_id < "poolf03"]
        write(tmp_path / "pool.txt", formats.serialize_pool(pool))
        contours = formats.parse_contours(Path(paths["contours"]).read_text())
        for contour in contours:
            if contour.utterance_id in ("src0-u1", "src1-u0", "src1-u3", "src2-u1", "src3-u2"):
                contour.values[:] = 0.0
        write(tmp_path / "contours.txt", formats.serialize_contours(contours))
    return apply


@pytest.mark.parametrize("case, extra", [
    ("mean overflows", []), ("pool too small", []), ("zero source", ["--scorer", "cosine"]),
])
def test_anonymize_failing_at_a_later_speaker_writes_the_per_speaker_loops_stderr(tmp_path, runner, case, extra):
    """When the third of four speakers fails, ``anonymize`` writes what the
    per-speaker loop wrote: the warnings of the unvoiced utterances of the
    speakers before it (not its own, nor the fourth's), then one error line
    that names it, with the text
    the loop raised; it exits 1 and leaves an earlier run's outputs as they
    were."""
    paths = build_anonymize_inputs(tmp_path, n_speakers=4)
    out = tmp_path / "anon"
    args = anonymize_args(paths, out, ["--f0", "modified", *extra])
    assert runner.invoke(main, args).exit_code == 0
    before = read_dir(out)
    _later_speaker_edit(case)(paths, tmp_path)
    # the loop, one speaker at a time, on the edited files
    pool = SpeakerPool(formats.parse_pool(Path(paths["pool"]).read_text()),
                       formats.parse_plda(Path(paths["plda"]).read_text()))
    cfg = SelectionConfig(k_far=8, k_sel=4, scorer=Scorer(extra[-1]) if extra else Scorer.PLDA)
    contours = {c.utterance_id: c for c in formats.parse_contours(Path(paths["contours"]).read_text())}
    by_speaker = {}
    for emb in formats.parse_embeddings(Path(paths["embeddings"]).read_text()):
        by_speaker.setdefault(emb.speaker_id, []).append(emb)
    expected = ""
    for speaker_id, embs in sorted(by_speaker.items()):
        utterances = [contours[e.utterance_id] for e in embs]
        try:
            oracles.loop_pseudonymize_speaker(pool, speaker_id, embs[0].gender, [e.vector for e in embs],
                                              utterances, cfg, F0Mode.MODIFIED)
        except PseudovoxError as exc:
            expected += f"error: {exc}\n"
            break
        expected += "".join(f"warning: {c.utterance_id} has no voiced frames, copied unchanged\n"
                            for c in utterances if not c.voiced_mask.any())
    assert expected.startswith("warning: src0-u1") and expected.count("warning") == 3
    ending = {"mean overflows": "x-vectors is not finite", "pool too small": "pool size 3", "zero source": "undefined"}
    assert expected.endswith(ending[case] + "\n")
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == expected
    assert read_dir(out) == before


# --- score ---------------------------------------------------------------------


def build_score_inputs(tmp_path, dim=3):
    rng = np.random.default_rng(3)
    model = PldaModel(rng.normal(size=dim) * 0.1, np.eye(dim), np.full(dim, 2.0))
    enroll = [
        SpeakerEmbedding("e1", Gender.MALE, rng.normal(size=dim), "e1-u1"),
        SpeakerEmbedding("e1", Gender.MALE, rng.normal(size=dim), "e1-u2"),
        SpeakerEmbedding("e2", Gender.FEMALE, rng.normal(size=dim), "e2-u1"),
    ]
    trials = [
        SpeakerEmbedding("t1", Gender.MALE, rng.normal(size=dim), "t1-u1"),
        SpeakerEmbedding("t2", Gender.FEMALE, rng.normal(size=dim), "t2-u1"),
    ]
    key = [("e1", "t1-u1", True), ("e1", "t2-u1", False), ("e2", "t2-u1", True)]
    return {
        "plda": write(tmp_path / "plda.txt", formats.serialize_plda(model)),
        "enroll": write(tmp_path / "enroll.txt", formats.serialize_embeddings(enroll)),
        "trials_emb": write(
            tmp_path / "trials_emb.txt", formats.serialize_embeddings(trials)
        ),
        "key": write(tmp_path / "key.txt", formats.serialize_trials(key)),
        "model": model,
        "enroll_records": enroll,
        "trial_records": trials,
        "key_records": key,
    }


def test_score_empty_trial_key(tmp_path, runner):
    inputs = build_score_inputs(tmp_path)
    empty_key = write(tmp_path / "empty.txt", "")
    out = tmp_path / "scores.txt"
    result = runner.invoke(
        main,
        ["score", inputs["plda"], inputs["enroll"], inputs["trials_emb"], empty_key, str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text() == ""


def test_score_matches_library(tmp_path, runner):
    inputs = build_score_inputs(tmp_path)
    out = tmp_path / "scores.txt"
    result = runner.invoke(
        main,
        ["score", inputs["plda"], inputs["enroll"], inputs["trials_emb"], inputs["key"], str(out)],
    )
    assert result.exit_code == 0, result.output
    scores = dict(
        ((e, t), s) for e, t, s in formats.parse_scores(out.read_text())
    )
    model = inputs["model"]
    enroll_latents = {}
    for emb in inputs["enroll_records"]:
        enroll_latents.setdefault(emb.speaker_id, []).append(project(model, emb))
    trial_latents = {
        emb.utterance_id: project(model, emb) for emb in inputs["trial_records"]
    }
    for enroll_id, test_id, _ in inputs["key_records"]:
        expected = plda_score(
            model, np.mean(enroll_latents[enroll_id], axis=0), trial_latents[test_id]
        )
        assert scores[(enroll_id, test_id)] == expected  # byte-exact float


def test_score_missing_id_fails(tmp_path, runner):
    inputs = build_score_inputs(tmp_path)
    bad_key = write(tmp_path / "bad.txt", "ghost t1-u1 target\n")
    out = tmp_path / "scores.txt"
    result = runner.invoke(
        main,
        ["score", inputs["plda"], inputs["enroll"], inputs["trials_emb"], bad_key, str(out)],
    )
    assert result.exit_code != 0
    assert "ghost" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("first, second", [("a", "b"), ("b", "a")])
def test_score_rejects_an_utterance_under_two_speakers(tmp_path, runner, first, second):
    inputs = build_score_inputs(tmp_path, dim=2)
    trials = write(
        tmp_path / "trials_emb.txt",
        f"{first} u1 M 1.0 0.5\n{second} u1 M -1.0 0.2\n",
    )
    key = write(tmp_path / "key.txt", "e1 u1 target\n")
    out = tmp_path / "scores.txt"
    before = sorted(tmp_path.iterdir())
    result = runner.invoke(main, ["score", inputs["plda"], inputs["enroll"], trials, key, str(out)])
    assert result.exit_code == 1
    assert result.stderr == (
        f"error: {trials}: utterance 'u1' is listed under speakers {first!r} and {second!r}\n"
    )
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("which", ["enroll", "trials_emb"])
def test_score_embedding_dimension_error_names_the_file(tmp_path, runner, which):
    inputs = build_score_inputs(tmp_path, dim=4)
    (tmp_path / "d3").mkdir()
    inputs[which] = build_score_inputs(tmp_path / "d3", dim=3)[which]
    out = tmp_path / "scores.txt"
    result = runner.invoke(
        main,
        ["score", inputs["plda"], inputs["enroll"], inputs["trials_emb"], inputs["key"], str(out)],
    )
    assert result.exit_code == 1
    assert result.stderr == f"error: {inputs[which]}: embedding dimension 3 != model dimension 4\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a RuntimeWarning fails the run
@pytest.mark.parametrize("extra, message", [
    ([], "{trials}: utterance 't1-u1': the norm of a vector overflows float64"),
    (["--no-length-norm"], "score of trial ('e1', 't1-u1') is not finite"),
], ids=["length-norm", "no-length-norm"])
def test_score_refuses_vectors_whose_products_overflow(tmp_path, runner, extra, message):
    inputs = build_score_inputs(tmp_path)
    trials = [SpeakerEmbedding("t1", Gender.MALE, [1e200, -1e200, 1e200], "t1-u1"),
              SpeakerEmbedding("t2", Gender.FEMALE, [1e200, 1e200, 1e200], "t2-u1")]
    write(tmp_path / "trials_emb.txt", formats.serialize_embeddings(trials))
    out = tmp_path / "scores.txt"
    result = runner.invoke(
        main, ["score", inputs["plda"], inputs["enroll"], inputs["trials_emb"], inputs["key"], str(out), *extra]
    )
    assert result.exit_code == 1
    assert result.stderr == f"error: {message.format(trials=inputs['trials_emb'])}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("which, utterance, value, reason", [
    ("enroll", "e1-u2", 0.0, "cannot length-normalize an all-zero vector"),
    ("enroll", "e2-u1", 1e-200, "the norm of a vector underflows float64"),
    ("trials_emb", "t2-u1", 0.0, "cannot length-normalize an all-zero vector"),
    ("trials_emb", "t2-u1", 1e-200, "the norm of a vector underflows float64"),
], ids=["zero-enrollment", "underflowing-enrollment", "zero-trial", "underflowing-trial"])
def test_score_projection_error_names_the_file_and_the_utterance(tmp_path, runner, which, utterance, value,
                                                                 reason):
    inputs = build_score_inputs(tmp_path)
    records = inputs["enroll_records" if which == "enroll" else "trial_records"]
    for emb in records:
        if emb.utterance_id == utterance:
            emb.vector[:] = value
    write(Path(inputs[which]), formats.serialize_embeddings(records))
    out = tmp_path / "scores.txt"
    result = runner.invoke(
        main, ["score", inputs["plda"], inputs["enroll"], inputs["trials_emb"], inputs["key"], str(out)]
    )
    assert result.exit_code == 1
    assert result.stderr == f"error: {inputs[which]}: utterance {utterance!r}: {reason}\n"
    assert not out.exists()


SCORE_PAIRS = [(f"e{i}", f"u{j}") for i in range(3) for j in range(4)]
# trials with ids missing from the embeddings: an enroll id, a test id, both on one trial, both on two
SCORE_GHOSTS = [[("ghost", "u0")], [("e0", "ghost")], [("ghost", "nobody")], [("ghost", "u0"), ("e0", "ghost")]]


@pytest.fixture(scope="module")
def score_files(tmp_path_factory):
    """Model and embeddings for keys over ``SCORE_PAIRS``; ``big`` is an
    utterance of the second trial file only, whose scores overflow without
    length normalization."""
    root = tmp_path_factory.mktemp("score-property")
    rng = np.random.default_rng(9)
    dim = 3
    model = PldaModel(rng.normal(size=dim) * 0.1, np.eye(dim), np.full(dim, 2.0))
    enroll = [SpeakerEmbedding(f"e{i // 2}", Gender.MALE, rng.normal(size=dim), f"e{i // 2}-{i}") for i in range(5)]
    trials = [SpeakerEmbedding(f"s{j}", Gender.FEMALE, rng.normal(size=dim), f"u{j}") for j in range(4)]
    big = SpeakerEmbedding("s9", Gender.FEMALE, np.array([1e200, -1e200, 1e200]), "big")
    return {
        "plda": write(root / "plda.txt", formats.serialize_plda(model)),
        "enroll": write(root / "enroll.txt", formats.serialize_embeddings(enroll)),
        "trials": write(root / "trials.txt", formats.serialize_embeddings(trials)),
        "trials_big": write(root / "trials_big.txt", formats.serialize_embeddings(trials + [big])),
    }


@settings(max_examples=200, deadline=None)
@given(overflow=st.booleans(), data=st.data())
def test_score_writes_the_tuple_path_bytes_or_fails_with_its_error(score_files, overflow, data):
    """Keys sorted, shuffled or empty, read by the column fast path or the
    per-line reader, with or without the ids of one of ``SCORE_GHOSTS``, and
    trials whose score is not finite: ``score`` writes the score file and
    manifest bytes of ``oracles.tuple_score``, or fails with its one error
    line, exit code 1 and no file left behind."""
    pairs = SCORE_PAIRS + [(f"e{i}", "big") for i in range(3)] if overflow else SCORE_PAIRS
    kind = data.draw(st.sampled_from(["sorted", "shuffled", "empty"]))
    rows = [] if kind == "empty" else [
        (e, t, data.draw(st.booleans())) for e, t in data.draw(st.lists(st.sampled_from(pairs), unique=True))]
    for ghost in data.draw(st.one_of(st.just([]), st.sampled_from(SCORE_GHOSTS))):
        rows.insert(data.draw(st.integers(0, len(rows))), (*ghost, False))
    if kind == "sorted":
        rows.sort()
    elif kind == "shuffled":
        rows = data.draw(st.permutations(rows))
    header = data.draw(st.sampled_from(["", "# a comment leaves the column fast path\n"]))
    text = header + "".join(f"{e} {t} {'target' if label else 'nontarget'}\n" for e, t, label in rows)
    overflow = data.draw(st.booleans())
    length_norm = not overflow and data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        args = [score_files["plda"], score_files["enroll"], score_files["trials_big" if overflow else "trials"],
                write(root / "key.txt", text)]
        out = root / "scores.txt"
        try:
            expected = tuple(text.encode() for text in oracles.tuple_score(*args, length_norm=length_norm))
        except InvalidValueError as exc:
            expected = f"error: {exc}\n"
        result = CliRunner().invoke(main, ["score", *args, str(out), "--length-norm" if length_norm else "--no-length-norm"])
        event(f"{kind}: exit {result.exit_code}")
        if isinstance(expected, str):
            assert (result.exit_code, result.stdout, result.stderr) == (1, "", expected)
            assert [p.name for p in root.iterdir()] == ["key.txt"]
        else:
            assert result.exit_code == 0, result.output
            assert (out.read_bytes(), Path(f"{out}.manifest").read_bytes()) == expected


def many_trials(tmp_path, n_enroll, n_test):
    """Paths of a model, one enrollment utterance per speaker and ``n_test``
    test utterances of dimension 2, and of the all-pairs key."""
    rng = np.random.default_rng(4)
    model = PldaModel(np.zeros(2), np.eye(2), np.full(2, 2.0))
    enroll = [SpeakerEmbedding(f"e{i}", Gender.MALE, rng.normal(size=2), f"e{i}-u") for i in range(n_enroll)]
    trials = [SpeakerEmbedding(f"s{j}", Gender.FEMALE, rng.normal(size=2), f"u{j}") for j in range(n_test)]
    key = [(f"e{i}", f"u{j}", i == j) for i in range(n_enroll) for j in range(n_test)]
    return [write(tmp_path / "plda.txt", formats.serialize_plda(model)),
            write(tmp_path / "enroll.txt", formats.serialize_embeddings(enroll)),
            write(tmp_path / "trials.txt", formats.serialize_embeddings(trials)),
            write(tmp_path / "key.txt", formats.serialize_trials(key))]


def test_score_streams_a_long_key_in_chunks_without_row_tuples(tmp_path, runner, monkeypatch):
    """A key longer than one chunk is written in more than one chunk, none
    over ``formats._CHUNK_LINES`` lines, with the bytes of the tuple path;
    for a sorted key and a shuffled one, with the tuple reader and writer
    out of reach."""
    paths = many_trials(tmp_path, 70, 60)
    sorted_key = Path(paths[3]).read_text()
    lines = sorted_key.splitlines(keepends=True)
    assert len(lines) > formats._CHUNK_LINES
    expected, _ = oracles.tuple_score(*paths)
    received: list[list[str]] = []  # each job's chunks
    real = cli._build_into

    def recording(build, fd):
        kept = []
        received.append(kept)

        def recorded():
            for chunk in build():
                kept.append(chunk)
                yield chunk

        return real(recorded, fd)

    monkeypatch.setattr(cli, "_build_into", recording)
    for name in ("parse_trials", "serialize_scores"):
        monkeypatch.setattr(formats, name, mock.Mock(side_effect=AssertionError(name)))
    shuffled_key = "".join(np.random.default_rng(5).permutation(lines).tolist())
    for name, key in (("sorted", sorted_key), ("shuffled", shuffled_key)):
        out = tmp_path / f"scores-{name}.txt"
        result = runner.invoke(main, ["score", *paths[:3], write(tmp_path / f"{name}.txt", key), str(out)])
        assert result.exit_code == 0, result.output
        chunks = received[-1]
        assert len(chunks) > 1
        assert max(chunk.count("\n") for chunk in chunks) <= formats._CHUNK_LINES
        assert "".join(chunks) == out.read_text() == expected


def test_score_traces_at_most_two_thirds_of_the_tuple_path(tmp_path, runner):
    """On a 40,000-trial key with 2-dimensional embeddings, the traced
    memory peak of ``score`` is at most two thirds of the tuple path's."""
    paths = many_trials(tmp_path, 200, 200)
    args = ["score", *paths, str(tmp_path / "scores.txt")]
    results = [runner.invoke(main, args)]  # the imports and caches of a first run are not traced

    def traced_peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    command_peak = traced_peak(lambda: results.append(runner.invoke(main, args)))
    tuple_peak = traced_peak(lambda: oracles.tuple_score(*paths))
    assert [result.exit_code for result in results] == [0, 0]
    assert command_peak <= 2 / 3 * tuple_peak, (command_peak, tuple_peak)


# --- eval ----------------------------------------------------------------------


def test_eval_report_and_det(tmp_path, runner):
    scores = [("e1", "u1", 5.0), ("e1", "u2", -4.0), ("e2", "u1", -3.0), ("e2", "u2", 6.0)]
    key = [("e1", "u1", True), ("e1", "u2", False), ("e2", "u1", False), ("e2", "u2", True)]
    score_file = write(tmp_path / "scores.txt", formats.serialize_scores(scores))
    key_file = write(tmp_path / "key.txt", formats.serialize_trials(key))
    det_file = tmp_path / "det.txt"
    out_file = tmp_path / "report.txt"
    result = runner.invoke(
        main,
        ["--det-out", str(det_file), "eval", score_file, key_file, "--out", str(out_file)],
    )
    assert result.exit_code == 0, result.output
    report = formats.parse_report(result.output)
    expected = evaluate(TrialScoreSet(np.array([5.0, 6.0]), np.array([-4.0, -3.0])))
    assert report == expected
    assert report.eer_pct == 0.0
    assert formats.parse_report(out_file.read_text()) == expected
    det = formats.parse_det(det_file.read_text())
    assert det[0] == (0.0, 1.0) and det[-1] == (1.0, 0.0)


def test_eval_all_zero_scores_is_one_bit(tmp_path, runner):
    scores = [("e1", "u1", 0.0), ("e1", "u2", 0.0)]
    key = [("e1", "u1", True), ("e1", "u2", False)]
    score_file = write(tmp_path / "s.txt", formats.serialize_scores(scores))
    key_file = write(tmp_path / "k.txt", formats.serialize_trials(key))
    result = runner.invoke(main, ["eval", score_file, key_file])
    assert result.exit_code == 0
    assert formats.parse_report(result.output).cllr_bits == 1.0


@pytest.mark.parametrize("shuffled", ["key", "scores", "both"])
def test_eval_of_unsorted_files_writes_the_sorted_run_bytes(tmp_path, runner, shuffled):
    """An unsorted score file or key takes the dict join, and gives the report
    and DET bytes that the sorted files give through the column compare."""
    rng = np.random.default_rng(5)
    rows = [(f"e{i}", f"u{j}", float(rng.normal(2.0 * (i == j))), i == j) for i in range(5) for j in range(6)]
    rows[7] = (*rows[7][:2], rows[3][2], rows[7][3])  # a tie between a target and a nontarget
    score_text = formats.serialize_scores([(e, t, s) for e, t, s, _ in rows])
    key_text = formats.serialize_trials([(e, t, label) for e, t, _, label in rows])

    def shuffled_lines(text):
        return "".join(rng.permutation(text.splitlines(keepends=True)).tolist())

    def run(name, scores, key):
        out = tmp_path / name
        out.mkdir()
        result = runner.invoke(main, ["--det-out", str(out / "det.txt"), "eval", write(out / "s.txt", scores),
                                      write(out / "k.txt", key), "--out", str(out / "report.txt")])
        assert result.exit_code == 0, result.output
        return result.stdout, (out / "report.txt").read_bytes(), (out / "det.txt").read_bytes()

    expected = run("sorted", score_text, key_text)
    if shuffled != "key":
        score_text = shuffled_lines(score_text)
    if shuffled != "scores":
        key_text = shuffled_lines(key_text)
    assert score_text.count("\n") == key_text.count("\n") == 30
    assert run("shuffled", score_text, key_text) == expected


def test_eval_join_mismatch_fails(tmp_path, runner):
    score_file = write(tmp_path / "s.txt", "e1 u1 1.0\n")
    key_file = write(tmp_path / "k.txt", "e1 u1 target\ne1 u2 nontarget\n")
    result = runner.invoke(main, ["eval", score_file, key_file])
    assert result.exit_code != 0
    assert "u2" in result.stderr


@pytest.mark.parametrize("det_name", ["report.txt", "report.txt.manifest", "./report.txt"])
def test_eval_det_out_naming_another_output_fails(tmp_path, runner, det_name):
    score_file = write(tmp_path / "s.txt", "e1 u1 2.0\ne1 u2 -1.0\n")
    key_file = write(tmp_path / "k.txt", "e1 u1 target\ne1 u2 nontarget\n")
    out = tmp_path / "report.txt"
    first = runner.invoke(main, ["eval", score_file, key_file, "--out", str(out)])
    assert first.exit_code == 0, first.output
    before = read_dir(tmp_path)
    det = str(tmp_path / det_name)
    result = runner.invoke(main, ["--det-out", det, "eval", score_file, key_file, "--out", str(out)])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write"), result.stderr
    assert read_dir(tmp_path) == before  # no output replaced, no temp file left


def test_eval_det_out_without_out_writes_only_the_det_file(tmp_path, runner):
    score_file = write(tmp_path / "s.txt", "e1 u1 2.0\ne1 u2 -1.0\ne2 u1 0.5\ne2 u2 1.5\n")
    key_file = write(tmp_path / "k.txt", "e1 u1 target\ne1 u2 nontarget\ne2 u1 nontarget\ne2 u2 target\n")
    before = read_dir(tmp_path)
    result = runner.invoke(main, ["eval", score_file, key_file])
    assert result.exit_code == 0, result.output
    assert read_dir(tmp_path) == before  # neither --out nor --det-out: no file
    result = runner.invoke(main, ["--det-out", str(tmp_path / "d.txt"), "eval", score_file, key_file])
    assert result.exit_code == 0, result.output
    det = formats.serialize_det(det_points(TrialScoreSet(np.array([2.0, 1.5]), np.array([-1.0, 0.5]))))
    assert read_dir(tmp_path) == {**before, "d.txt": det.encode()}  # and no manifest


def test_eval_det_out_streams_the_serialize_det_bytes_with_tied_scores(tmp_path, runner, monkeypatch):
    """``--det-out`` is written a chunk of lines at a time, never as one text:
    with tied scores and more points than one chunk holds, its bytes are those
    of ``serialize_det`` and of the per-token oracle."""
    rng = np.random.default_rng(5)
    enroll, test = [f"e{i:03d}" for i in range(100)], [f"t{j:03d}" for j in range(200)]
    pairs = [(e, t) for e in enroll for t in test]
    scores = np.round(rng.normal(size=len(pairs)), 3)  # about 6,000 distinct values, most of them tied
    labels = rng.random(len(pairs)) < 0.3
    score_file = write(tmp_path / "s.txt", formats.serialize_scores(
        [(e, t, s) for (e, t), s in zip(pairs, scores.tolist())]))
    key_file = write(tmp_path / "k.txt", formats.serialize_trials(
        [(e, t, bool(label)) for (e, t), label in zip(pairs, labels)]))
    points = det_points(TrialScoreSet(scores[labels], scores[~labels]))
    assert len(points) > formats._CHUNK_LINES
    whole = formats.serialize_det(points)
    chunk_lines = []
    real = formats._det_chunks

    def recorded(points):
        for chunk in real(points):
            chunk_lines.append(chunk.count("\n"))
            yield chunk

    monkeypatch.setattr(formats, "_det_chunks", recorded)
    monkeypatch.setattr(formats, "serialize_det", mock.Mock(side_effect=AssertionError("one whole text")))
    det = tmp_path / "det.txt"
    result = runner.invoke(main, ["--det-out", str(det), "eval", score_file, key_file])
    assert result.exit_code == 0, result.output
    assert det.read_text() == whole == oracles.serialize_det(points)
    assert len(chunk_lines) > 1 and max(chunk_lines) == formats._CHUNK_LINES and sum(chunk_lines) == len(points)


@pytest.mark.filterwarnings("error")  # a RuntimeWarning fails the run
def test_eval_refuses_a_cllr_that_overflows(tmp_path, runner):
    score_file = write(tmp_path / "s.txt", "e1 u1 -1e308\ne1 u2 0.0\ne2 u1 0.0\ne2 u2 -1e308\n")
    key_file = write(tmp_path / "k.txt", "e1 u1 target\ne1 u2 nontarget\ne2 u1 nontarget\ne2 u2 target\n")
    before = read_dir(tmp_path)
    result = runner.invoke(main, ["eval", score_file, key_file, "--out", str(tmp_path / "r.txt")])
    assert result.exit_code == 1
    assert result.stderr == "error: Cllr overflows float64\n"
    assert result.stdout == ""
    assert read_dir(tmp_path) == before


def _columns(rows, dtype):
    """Rows ``(enroll, test, value)`` as the column readers return them."""
    return [r[0] for r in rows], [r[1] for r in rows], np.array([r[2] for r in rows], dtype)


def _join_outcome(join, scores, key_rows):
    try:
        score_set = join(scores, key_rows)
    except InvalidValueError as exc:
        return str(exc)
    return repr(score_set.target_scores.tolist()), repr(score_set.nontarget_scores.tolist())


@settings(max_examples=400, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from("abc"), st.floats(-5, 5), st.booleans()),
        unique_by=lambda r: r[:2], max_size=9,
    ),
    data=st.data(),
)
def test_eval_join_equals_the_dict_join(rows, data):
    """For unsorted keys, scores in key or any other order, an extra score, a
    missing score and an (enroll, test) pair swapped, the column join gives
    the dict join's scores in key order, or fails with its message."""
    key_rows = [(e, t, label) for e, t, _, label in rows]
    scores = [(e, t, v) for e, t, v, _ in rows]
    if data.draw(st.booleans()):
        scores = data.draw(st.permutations(scores))
    edit = data.draw(st.sampled_from(["none", "extra", "missing", "swap"]))
    if edit == "extra":
        scores.insert(data.draw(st.integers(0, len(scores))), ("d", "a", 0.5))
    elif scores and edit != "none":
        i = data.draw(st.integers(0, len(scores) - 1))
        e, t, v = scores.pop(i)
        if edit == "swap" and (t, e) not in {r[:2] for r in scores}:  # pairs stay unique
            scores.insert(i, (t, e, v))
    column_join = lambda s, k: cli._key_scores(_columns(s, np.float64), _columns(k, bool))
    assert _join_outcome(column_join, scores, key_rows) == _join_outcome(
        oracles.dict_join, scores, key_rows
    )


# --- simulate -------------------------------------------------------------------


SIM_ARGS = [
    "--n-speakers-per-gender", "6",
    "--utts-per-speaker", "3",
    "--embed-dim", "8",
    "--frames-per-utt", "40",
    "--k-far", "5",
    "--k-sel", "3",
    "--attack", "a-a",
    "--enroll-seed", "11",
    "--trial-seed", "12",
    "--attacker", "embedding_plus_f0",
    "--f0-mode", "modified",
]


def test_simulate_reproducible_and_complete(tmp_path, runner):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    r1 = runner.invoke(main, ["--seed", "3", "simulate", "--out-dir", str(out1)] + SIM_ARGS)
    r2 = runner.invoke(main, ["--seed", "3", "simulate", "--out-dir", str(out2)] + SIM_ARGS)
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0
    assert read_dir(out1) == read_dir(out2)
    names = set(read_dir(out1))
    assert names == {
        "pool.txt", "user_embeddings.txt", "user_contours.txt", "plda.txt",
        "scores.txt", "trials.txt", "report.txt", "manifest.txt",
    }
    manifest = formats.parse_keyvalues((out1 / "manifest.txt").read_text())
    assert manifest["cohort_seed"] == "3"
    assert manifest["enroll_seed"] == "11"
    assert manifest["trial_seed"] == "12"
    assert manifest["attack"] == "a-a"
    scores = formats.parse_scores((out1 / "scores.txt").read_text())
    trials = formats.parse_trials((out1 / "trials.txt").read_text())
    assert len(scores) == len(trials) == 12 * 12 * 2
    report = formats.parse_report((out1 / "report.txt").read_text())
    tar = [s for (e, u, s), (_, _, t) in zip(scores, trials) if t]
    non = [s for (e, u, s), (_, _, t) in zip(scores, trials) if not t]
    direct = evaluate(TrialScoreSet(np.array(tar), np.array(non)))
    assert report == direct


def test_simulate_writes_scores_and_trials_from_the_grid(tmp_path, runner, monkeypatch):
    """No per-trial rows: the row writers are never called."""
    calls = []
    for name in ("serialize_scores", "serialize_trials"):
        real = getattr(formats, name)
        monkeypatch.setattr(formats, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    result = runner.invoke(main, ["--seed", "3", "simulate", "--out-dir", str(tmp_path / "out")] + SIM_ARGS)
    assert result.exit_code == 0, result.output
    assert calls == []


# the serializers that build each command's outputs, in output order, with the outputs' names
OUTPUT_WRITERS = {
    "anonymize": [("serialize_mapping", "mapping.txt"), ("serialize_embeddings", "pseudo_xvectors.txt"),
                  ("serialize_stats", "pseudo_f0_stats.txt"), ("serialize_contours", "contours_anon.txt")],
    "simulate": [("serialize_pool", "pool.txt"), ("_score_grid_rows", "scores.txt"),
                 ("serialize_embeddings", "user_embeddings.txt"), ("serialize_contours", "user_contours.txt"),
                 ("serialize_plda", "plda.txt"), ("_trial_grid_rows", "trials.txt"),
                 ("serialize_report", "report.txt")],
}


def test_simulate_streams_each_grid_one_enrollment_row_per_chunk(tmp_path, runner, monkeypatch):
    """The output jobs take the score and trial grids one enrollment row at
    a time, and each manifest hash is the hash of its file. One thread: the
    jobs run here, in output order."""
    received: list[list[bytes]] = []  # each job's chunks
    real = cli._build_into

    def recording(build, fd):
        kept = []
        received.append(kept)

        def recorded():
            text = build()
            for chunk in [text] if isinstance(text, str) else text:
                kept.append(chunk.encode("utf-8"))
                yield chunk

        return real(recorded, fd)

    monkeypatch.setattr(cli, "_build_into", recording)
    out = tmp_path / "out"
    result = runner.invoke(main, ["--seed", "3", "--threads", "1", "simulate", "--out-dir", str(out)] + SIM_ARGS)
    assert result.exit_code == 0, result.output
    names = [name for _, name in OUTPUT_WRITERS["simulate"]]
    assert len(received) == len(names)
    for name in ("scores.txt", "trials.txt"):
        chunks = received[names.index(name)]
        assert b"".join(chunks) == (out / name).read_bytes()
        assert len(chunks) == 12  # one per enrollment speaker
        for chunk in chunks:
            assert len({line.split()[0] for line in chunk.splitlines()}) == 1
    manifest = formats.parse_keyvalues((out / "manifest.txt").read_text())
    hashes = {key: value for key, value in manifest.items() if key.startswith("output_sha256_")}
    assert len(hashes) == 7
    for key, value in hashes.items():
        assert value == sha256_file(out / f"{key.removeprefix('output_sha256_')}.txt")


def test_simulate_failing_in_mid_stream_leaves_the_tree_as_it_was(tmp_path, runner, monkeypatch):
    """A grid that fails after its first row has reached the temp file
    replaces nothing and leaves no temp file or new directory."""
    out = tmp_path / "sim"
    first = runner.invoke(main, ["simulate", "--out-dir", str(out)] + SIM_ARGS)
    assert first.exit_code == 0, first.output
    before = tree(tmp_path)
    real = formats._score_grid_rows
    staged = []

    def first_row_then_refuse(*args):
        rows = real(*args)
        yield next(rows)
        staged.extend(target.glob(".scores.txt.*.tmp"))
        raise InvalidValueError("scores refused")

    monkeypatch.setattr(formats, "_score_grid_rows", first_row_then_refuse)
    for target in (out, tmp_path / "fresh" / "deeper"):
        staged.clear()
        result = runner.invoke(main, ["--seed", "8", "simulate", "--out-dir", str(target)] + SIM_ARGS)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: scores refused\n"
        assert len(staged) == 1  # the stream had begun
        assert tree(tmp_path) == before


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_simulate_whose_scenario_fails_forks_nothing_and_leaves_the_tree_as_it_was(tmp_path, runner, monkeypatch,
                                                                                    threads):
    """The scenario runs before any output is staged or built, so a scenario
    that raises ends the run with one ``error:`` line and exit 1 at any
    ``--threads``, with no child forked before it, and leaves the tree, the
    open descriptors and the children as they were: an earlier run's
    ``--out-dir`` holds no temp file and a fresh one is never made."""
    out = tmp_path / "sim"
    assert runner.invoke(main, ["simulate", "--out-dir", str(out)] + SIM_ARGS).exit_code == 0
    before = tree(tmp_path)
    count = counted_forks(monkeypatch)
    forked_before_the_scenario = []
    fresh = tmp_path / "fresh" / "deeper"

    def run_scenario(*args):
        forked_before_the_scenario.append(count.forks)
        assert tree(tmp_path) == before and not fresh.parent.exists()
        refuse_the_scenario()

    monkeypatch.setattr(cli, "run_scenario", run_scenario)
    fds = open_fds()
    for target in (out, fresh):
        count.forks = 0
        result = runner.invoke(main, ["--seed", "8", "--threads", str(threads), "simulate", "--out-dir",
                                      str(target)] + SIM_ARGS)
        assert_no_child_left()
        assert open_fds() == fds
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: scenario refused\n"
        assert tree(tmp_path) == before
    assert forked_before_the_scenario == [0, 0]
    assert count.forks == 0


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("failure", ["part-raises"])  # a score grid that raises after its first row
def test_simulate_failing_after_the_cohort_jobs_start_leaves_the_tree_as_it_was(tmp_path, runner, monkeypatch,
                                                                                  threads, failure):
    """``pool.txt``, a cohort output, comes before the score grid, so its job
    has started when a score grid raises after its first row. That ends the
    run with one ``error:`` line and exit 1, and leaves the tree, the open
    descriptors and the children as they were: no temp file or new
    directory."""
    out = tmp_path / "sim"
    assert runner.invoke(main, ["simulate", "--out-dir", str(out)] + SIM_ARGS).exit_code == 0
    before = tree(tmp_path)
    monkeypatch.setattr(formats, "_score_grid_rows", refused_after_the_first_row(formats._score_grid_rows))
    fds = open_fds()
    for target in (out, tmp_path / "fresh" / "deeper"):
        result = runner.invoke(main, ["--seed", "8", "--threads", str(threads), "simulate", "--out-dir",
                                      str(target)] + SIM_ARGS)
        assert_no_child_left()
        assert open_fds() == fds
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: grid refused\n"
        assert tree(tmp_path) == before


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_scenario_error_is_reported_before_a_path_error(tmp_path, runner, threads):
    """``simulate`` runs its scenario before it checks its paths, as every
    command computes before it writes: a run with an unwritable output and a
    scenario that fails reports the scenario's error, and one with a good
    scenario reports the path. Neither changes the tree."""
    (tmp_path / "sim").write_text("a file, not a directory\n")
    before = tree(tmp_path)
    result = runner.invoke(main, ["--threads", threads, "simulate", "--out-dir", str(tmp_path / "sim")]
                           + SIM_ARGS + ["--f0-weight", "-1e308"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: Cllr overflows float64\n"  # the scenario's error
    assert tree(tmp_path) == before
    result = runner.invoke(main, ["--threads", threads, "simulate", "--out-dir", str(tmp_path / "sim")] + SIM_ARGS)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot write {tmp_path / 'sim' / 'pool.txt'}: ")
    assert result.stderr.count("\n") == 1
    assert tree(tmp_path) == before


# ``simulate`` in a process of its own, whose scenario reports on an inherited
# pipe that it has begun and then waits to be ended
SCENARIO_HOLDS = """
import os, sys, time
from pseudovox import cli

def run_scenario(*args):
    os.write(int(sys.argv[1]), b"s")
    time.sleep(600)

cli.run_scenario = run_scenario
cli.main(sys.argv[2:], prog_name="pseudovox")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_sigterm_during_the_scenario_of_simulate_leaves_nothing_behind(tmp_path, runner, threads):
    """``simulate`` stages no file, makes no directory and forks no child
    before its scenario ends, so a SIGTERM during the scenario leaves an
    earlier run's ``--out-dir`` as it was, makes no fresh one, and leaves no
    process of the run's session."""
    out = tmp_path / "sim"
    assert runner.invoke(main, ["simulate", "--out-dir", str(out)] + SIM_ARGS).exit_code == 0
    before = tree(tmp_path)
    src = str(Path(pseudovox.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for target in (out, tmp_path / "fresh" / "deeper"):
        read, write = os.pipe()
        try:
            process = subprocess.Popen(
                [sys.executable, "-c", SCENARIO_HOLDS, str(write), "--threads", threads, "simulate", "--out-dir",
                 str(target)] + SIM_ARGS,
                env=env, pass_fds=(write,), start_new_session=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
        finally:
            os.close(write)
        try:
            assert select.select([read], [], [], 120)[0] and os.read(read, 1) == b"s"  # the scenario has begun
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == -signal.SIGTERM
            assert tree(tmp_path) == before
            with pytest.raises(ProcessLookupError):
                os.killpg(process.pid, 0)
        finally:
            os.close(read)
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()


@pytest.mark.parametrize("command", sorted(OUTPUT_WRITERS))
@pytest.mark.parametrize("failure", ["first-raises", "last-raises", "every-raises", "worker-dies", "worker-killed"])
def test_a_failed_output_job_ends_the_run_in_any_process(tmp_path, runner, monkeypatch, command, failure):
    """An output that fails in this process or in a worker ends the run with
    one ``error:`` line for that output, the tree unchanged, and no temp file
    or child process left. A raising serializer gives the same error under
    one and two processes, and one process builds no output after it; when
    every serializer raises, both report the first output, although two
    processes build the outputs after it as well; a worker that exits or is killed without a report fails the output it
    took with its exit status, and with no worker the run succeeds."""
    if command == "anonymize":
        paths = build_anonymize_inputs(tmp_path)
        args = lambda out: ["--seed", "8"] + anonymize_args(paths, out, ["--f0", "modified"])
    else:
        args = lambda out: ["--seed", "8", "simulate", "--out-dir", str(out)] + SIM_ARGS
    out = tmp_path / "out"
    assert runner.invoke(main, args(out)[2:]).exit_code == 0  # an earlier run's outputs
    before = tree(tmp_path)
    test_pid = os.getpid()

    writers = OUTPUT_WRITERS[command]
    refused = {"first-raises": writers[0][1], "last-raises": writers[-1][1], "every-raises": writers[0][1]}.get(failure)
    built = []  # the outputs built in this process

    def failing(real, name):
        def serialize(*rows):
            if name == refused or failure == "every-raises":
                raise InvalidValueError(f"{out / name} refused")
            if failure in ("worker-dies", "worker-killed"):
                if os.getpid() != test_pid:
                    if failure == "worker-killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    os._exit(3)
                try:  # hold this job until the worker has died on one of its own
                    os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
                except ChildProcessError:  # no worker
                    pass
            built.append(name)
            return real(*rows)
        return serialize

    for writer, name in writers:
        monkeypatch.setattr(formats, writer, failing(getattr(formats, writer), name))
    stderr = {}
    for threads in ("1", "2"):
        built.clear()
        result = runner.invoke(main, ["--threads", threads, *args(out)])
        assert_no_child_left()
        if threads == "1" and refused:
            names = [name for _, name in writers]
            assert built == names[:names.index(refused)]
        if failure in ("worker-dies", "worker-killed") and threads == "1":  # no worker: the run succeeds
            assert result.exit_code == 0, result.output
            before = tree(tmp_path)
            continue
        assert result.exit_code == 1
        assert result.stdout == ""
        assert tree(tmp_path) == before  # nothing replaced, no temp file
        stderr[threads] = result.stderr
    if failure in ("worker-dies", "worker-killed"):
        status = 3 if failure == "worker-dies" else -signal.SIGKILL
        assert stderr["2"] in {f"error: cannot write {out / name}: the process writing it ended with exit status "
                               f"{status}\n" for _, name in writers}
    else:
        assert stderr["1"] == stderr["2"] == f"error: {out / refused} refused\n"


@pytest.mark.parametrize("threads", ["2", "3"])
def test_a_child_error_larger_than_a_pipe_holds_ends_the_run(tmp_path, runner, monkeypatch, threads):
    """A child's report is read before the child is reaped, so a 300 kB
    error, more than a pipe holds, still ends the run with that one
    ``error:`` line and no child left."""
    message = "x" * 300_000

    def refuse(*rows):
        raise InvalidValueError(message)

    monkeypatch.setattr(formats, "serialize_plda", refuse)
    faulthandler.dump_traceback_later(120, exit=True)  # a deadlock ends the test run instead of hanging it
    try:
        result = runner.invoke(main, ["--threads", threads, "simulate", "--out-dir", str(tmp_path / "sim")] + SIM_ARGS)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert_no_child_left()
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing", ["every-fork", "every-other-fork"])
def test_a_job_whose_fork_fails_is_built_in_this_process(tmp_path, runner, monkeypatch, failing):
    """A job whose fork fails (``EAGAIN``) is built in the command's own
    process. Whether every fork fails or every other one, ``simulate`` and
    ``anonymize`` at ``--threads`` 2 and 3 exit 0 with the trees of
    ``--threads 1``, and leave no child and no open descriptor; a runner
    that waits on no child hangs, and the timeout ends the test run."""
    paths = build_anonymize_inputs(tmp_path)
    commands = {"simulate": lambda out: ["--seed", "8", "simulate", "--out-dir", str(out)] + SIM_ARGS,
                "anonymize": lambda out: ["--seed", "8"] + anonymize_args(paths, out, ["--f0", "modified"])}
    expected = {}
    for name, args in commands.items():
        result = runner.invoke(main, ["--threads", "1", *args(tmp_path / f"{name}-1")])
        assert result.exit_code == 0, result.output
        expected[name] = read_dir(tmp_path / f"{name}-1")
    real_fork, calls, forked = cli.os.fork, itertools.count(), []

    def fork():
        if failing == "every-fork" or next(calls) % 2 == 0:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(cli.os, "fork", fork)
    fds = open_fds()
    faulthandler.dump_traceback_later(120, exit=True)  # a hang ends the test run instead of stalling it
    try:
        for name, args in commands.items():
            for threads in ("2", "3"):
                out = tmp_path / f"{name}-{threads}"
                result = runner.invoke(main, ["--threads", threads, *args(out)])
                assert_no_child_left()
                assert open_fds() == fds
                assert result.exit_code == 0, result.output
                assert read_dir(out) == expected[name]
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert (len(forked) > 0) == (failing == "every-other-fork")


def test_a_job_whose_report_pipe_fails_is_built_in_this_process(tmp_path, runner, monkeypatch):
    """A report pipe that cannot be made (``EMFILE`` on the second
    ``os.pipe``) is a fork that fails: ``--threads 2 simulate`` builds that
    job in its own process, exits 0 with the tree of ``--threads 1``, and
    leaves no child and no open descriptor."""
    args = ["--seed", "8", "simulate"] + SIM_ARGS
    result = runner.invoke(main, ["--threads", "1", *args, "--out-dir", str(tmp_path / "one")])
    assert result.exit_code == 0, result.output
    real_pipe, calls = cli.os.pipe, itertools.count()

    def pipe():
        if next(calls) == 1:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return real_pipe()

    monkeypatch.setattr(cli.os, "pipe", pipe)
    fds = open_fds()
    faulthandler.dump_traceback_later(120, exit=True)  # a hang ends the test run instead of stalling it
    try:
        result = runner.invoke(main, ["--threads", "2", *args, "--out-dir", str(tmp_path / "two")])
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert_no_child_left()
    assert open_fds() == fds
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    assert next(calls) > 2  # the pipes after the failed one were made
    assert read_dir(tmp_path / "two") == read_dir(tmp_path / "one")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_output_runner_reports_the_same_first_failure_at_any_thread_count(data):
    """``cli._run`` alone, on synthetic jobs: 1 to 5 outputs, each writing
    known chunks, some raising before or after their first chunk. At 1, 2
    and 3 threads the first outcome that is not a digest is the same
    exception, every output before it holds its bytes and their SHA-256
    digest, and no more than ``threads`` children are alive at once. Above
    one thread each job is forked once and none is built in this process; at
    one, this process builds the jobs in order up to the first failure. No
    child or descriptor is left."""
    n_outputs = data.draw(st.integers(1, 5), label="outputs")
    jobs = []  # output, fate, chunks; in output order
    for output in range(n_outputs):
        fate = data.draw(st.sampled_from(["builds"] * 4 + ["raises-first", "raises-after-a-chunk"]))
        chunks = [f"o{output} c{i} " * size + "\n"
                  for i, size in enumerate(data.draw(st.lists(st.integers(1, 2000), min_size=1, max_size=3)))]
        jobs.append((output, fate, chunks))
    failed = [job for job in jobs if job[1] != "builds"]
    expected_failure = None if not failed else (failed[0][0], f"job {failed[0][0]} refused")
    written = [b"".join(chunk.encode() for chunk in job[2]) for job in jobs]
    fds_before = open_fds()

    def builder(output, fate, chunks, built):
        def build():
            built.append(output)  # in this process only: a child's append is its own
            if fate == "raises-first":
                raise InvalidValueError(f"job {output} refused")
            return rows()

        def rows():
            for chunk in chunks:
                yield chunk
                if fate == "raises-after-a-chunk":
                    raise InvalidValueError(f"job {output} refused")

        return build

    for threads in (1, 2, 3):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            count = counted_forks(patch)
            built = []
            forking = threads > 1 and len(jobs) > 1
            fds = [os.open(Path(tmp) / f"out{output}", os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
                   for output in range(n_outputs)]
            run_jobs = [(builder(*job, built), fd) for job, fd in zip(jobs, fds)]
            try:
                outcomes = cli._run(run_jobs, threads)
                first = next((i for i, outcome in enumerate(outcomes) if not isinstance(outcome, str)), None)
                if first is None:
                    assert expected_failure is None
                else:
                    assert isinstance(outcomes[first], InvalidValueError)
                    assert (first, str(outcomes[first])) == expected_failure
                for output in range(n_outputs if first is None else first):
                    assert outcomes[output] == hashlib.sha256(written[output]).hexdigest()
                    assert os.pread(fds[output], len(written[output]) + 1, 0) == written[output]
                assert count.most <= threads
                assert count.forks == (n_outputs if forking else 0)
                assert built == ([] if forking else list(range(n_outputs if first is None else first + 1)))
            finally:
                for fd in fds:
                    os.close(fd)
            assert_no_child_left()
    assert open_fds() == fds_before


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--seed", "٣"),  # the global flag
    ("simulate", "--k-far", "٥"),
    ("simulate", "--k-sel", "1_0"),
    ("simulate", "--frames-per-utt", "4_0"),
    ("simulate", "--f0-weight", "1_5"),
    ("simulate", "--k-far", "abc"),
    ("anonymize", "--k-far", "٥"),
    ("simulate", "--seed", " 7"),
    ("simulate", "--k-far", " 3"),
    ("simulate", "--f0-weight", " 2.5 "),
    ("anonymize", "--k-sel", "3\t"),
])
def test_numeric_flags_take_ascii_digits_without_underscores(tmp_path, runner, command, flag, value):
    """A numeric flag is read as a config value is; int() and float() alone
    would read the digits, the '_' and the whitespace above."""
    out = tmp_path / "out"
    given = [flag, value]
    head = given if flag == "--seed" else []
    tail = [] if flag == "--seed" else given
    if command == "simulate":
        args = [*head, "simulate", "--out-dir", str(out), *SIM_ARGS, *tail]
    else:
        args = [*head, *anonymize_args(build_anonymize_inputs(tmp_path), out, tail)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"Invalid value for '{flag}': {value!r} is not a valid " in result.stderr
    assert not out.exists()


def test_numeric_flags_convert_as_int_and_float_do(tmp_path, runner):
    plain, spelled = tmp_path / "plain", tmp_path / "spelled"
    base = ["simulate", *SIM_ARGS, "--attacker", "embedding_plus_f0"]
    r1 = runner.invoke(main, ["--seed", "3", *base, "--out-dir", str(plain), "--k-far", "5", "--f0-weight", "0.5"])
    r2 = runner.invoke(main, ["--seed", "+03", *base, "--out-dir", str(spelled), "--k-far", "05",
                              "--f0-weight", "5E-1"])
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0, r2.output
    assert read_dir(plain) == read_dir(spelled)
    manifest = formats.parse_keyvalues((plain / "manifest.txt").read_text())
    assert (manifest["cohort_seed"], manifest["k_far"], manifest["f0_weight_used"]) == ("3", "5", "0.5")


@pytest.mark.parametrize("scorer", ["plda", "cosine"])
def test_simulate_det_out_is_the_library_det(tmp_path, runner, scorer):
    det = tmp_path / "det.txt"
    result = runner.invoke(
        main,
        ["--seed", "3", "--det-out", str(det), "simulate", "--out-dir", str(tmp_path / "out"),
         "--scorer", scorer] + SIM_ARGS,
    )
    assert result.exit_code == 0, result.output
    cohort = generate_cohort(
        CohortSpec(n_speakers_per_gender=6, utts_per_speaker=3, embed_dim=8, frames_per_utt=40, seed=3)
    )
    scenario = ScenarioConfig(
        attack=AttackModel.ANONYMIZED_TO_ANONYMIZED, f0_mode=F0Mode.MODIFIED, enroll_seed=11,
        trial_seed=12, attacker=AttackerModel.EMBEDDING_PLUS_F0,
    )
    sel = SelectionConfig(k_far=5, k_sel=3, scorer=Scorer(scorer), length_norm=False)
    expected = formats.serialize_det(det_points(run_scenario(cohort, scenario, sel).scores))
    assert det.read_text() == expected


def test_simulate_one_utterance_per_speaker_is_refused(tmp_path, runner):
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "--out-dir", str(out), "--utts-per-speaker", "1"])
    assert result.exit_code == 1
    assert result.stderr == (
        "error: utts_per_speaker must be >= 2: one enrollment and at least one trial utterance\n"
    )
    assert not out.exists()


def test_simulate_config_file_and_flag_override(tmp_path, runner):
    cfg = write(
        tmp_path / "sim.txt",
        "n_speakers_per_gender 6\nutts_per_speaker 3\nembed_dim 8\nframes_per_utt 40\n"
        "k_far 5\nk_sel 3\nattack a-a\nenroll_seed 11\ntrial_seed 12\nseed 3\n"
        "attacker embedding_plus_f0\nf0_mode modified\n",
    )
    out1 = tmp_path / "from-config"
    out2 = tmp_path / "from-flags"
    r1 = runner.invoke(main, ["--config", cfg, "simulate", "--out-dir", str(out1)])
    r2 = runner.invoke(main, ["--seed", "3", "simulate", "--out-dir", str(out2)] + SIM_ARGS)
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0
    files1, files2 = read_dir(out1), read_dir(out2)
    assert files1.pop("manifest.txt") != files2.pop("manifest.txt")  # config checksum
    assert files1 == files2
    out3 = tmp_path / "override"
    r3 = runner.invoke(
        main, ["--config", cfg, "simulate", "--out-dir", str(out3), "--trial-seed", "99"]
    )
    assert r3.exit_code == 0
    manifest = formats.parse_keyvalues((out3 / "manifest.txt").read_text())
    assert manifest["trial_seed"] == "99"


def test_simulate_equal_seeds_rejected(tmp_path, runner):
    out = tmp_path / "out"
    args = [i for i in SIM_ARGS]
    args[args.index("--trial-seed") + 1] = "11"  # == enroll seed
    result = runner.invoke(main, ["simulate", "--out-dir", str(out)] + args)
    assert result.exit_code != 0
    assert "seed" in result.stderr
    assert not out.exists() or not any(out.iterdir())


def test_simulate_unknown_config_key_rejected(tmp_path, runner):
    cfg = write(tmp_path / "sim.txt", "bogus 3\n")
    result = runner.invoke(main, ["--config", cfg, "simulate", "--out-dir", str(tmp_path / "o")])
    assert result.exit_code != 0
    assert "bogus" in result.stderr


@pytest.mark.parametrize("det_name", ["scores.txt", "manifest.txt", "../sim/report.txt"])
def test_simulate_det_out_naming_another_output_fails(tmp_path, runner, det_name):
    out = tmp_path / "sim"
    first = runner.invoke(main, ["simulate", "--out-dir", str(out)] + SIM_ARGS)
    assert first.exit_code == 0, first.output
    before = read_dir(out)
    result = runner.invoke(
        main, ["--seed", "4", "--det-out", str(out / det_name), "simulate", "--out-dir", str(out)] + SIM_ARGS
    )
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write"), result.stderr
    assert read_dir(out) == before  # no output replaced, no temp file left


def test_simulate_det_out_collision_leaves_no_new_directory(tmp_path, runner):
    out = tmp_path / "fresh" / "sim"
    result = runner.invoke(
        main, ["--det-out", str(out / "scores.txt"), "simulate", "--out-dir", str(out)] + SIM_ARGS
    )
    assert result.exit_code == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, name", [("--between-var", "between_var"), ("--f0-mean-male", "f0_mean_male")]
)
def test_simulate_rejects_a_non_finite_cohort_value(tmp_path, runner, flag, name):
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--out-dir", str(out), flag, "-inf"])
    assert result.exit_code == 1
    assert result.stderr == f"error: {name} must be finite\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a RuntimeWarning fails the run
@pytest.mark.parametrize("extra, message", [
    (["--f0-weight", "-1e308"], "error: Cllr overflows float64"),
    (["--f0-within-std", "1e308"], "has non-finite values"),
    (["--f0-mean-female", "1e308"], "has non-finite values"),
    (["--f0-weight", "1e308", "--f0-mean-female", "9"], "error: f0_weight 1e+308 makes a fused score overflow"),
])
def test_simulate_float_setting_that_overflows_is_refused(tmp_path, runner, extra, message):
    result = runner.invoke(main, ["simulate", "--out-dir", str(tmp_path / "sim")] + SIM_ARGS + extra)
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], result.stderr
    assert "RuntimeWarning" not in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra, message", [
    (["--between-var", "1e306"], "speaker 'user-f003': its PLDA score against pool speaker 'pool-f002' is not finite"),
    (["--k-far", "20"], "speaker 'user-m000': k_far=20 exceeds filtered pool size 6"),
])
def test_simulate_names_the_speaker_whose_selection_fails(tmp_path, runner, extra, message):
    """A selection error about one user speaker names it, as in ``anonymize``."""
    result = runner.invoke(main, ["simulate", "--out-dir", str(tmp_path / "sim")] + SIM_ARGS + extra)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_write_removes_the_directories_it_made(tmp_path, runner):
    det_dir = tmp_path / "detdir"
    det_dir.mkdir()
    out = tmp_path / "fresh" / "deeper"
    result = runner.invoke(
        main, ["--det-out", str(det_dir), "simulate", "--out-dir", str(out)] + SIM_ARGS
    )
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write"), result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["detdir"]


def test_failed_write_keeps_directories_that_hold_other_files(tmp_path, runner):
    det_dir = tmp_path / "detdir"
    det_dir.mkdir()
    out = tmp_path / "fresh" / "deeper"
    out.parent.mkdir()
    (out.parent / "keep.txt").write_text("x\n")
    result = runner.invoke(
        main, ["--det-out", str(det_dir), "simulate", "--out-dir", str(out)] + SIM_ARGS
    )
    assert result.exit_code == 1
    assert sorted(p.name for p in out.parent.iterdir()) == ["keep.txt"]


def tree(path):
    """Every file and directory under ``path``: a file's bytes, a directory's None."""
    return {p: p.read_bytes() if p.is_file() else None for p in path.rglob("*")}


def input_as_output_case(command, tmp_path):
    """(args, the input that is also an output) of one run."""
    if command == "stats":
        contours = write(tmp_path / "c.txt", "u1 100.0 0.0 400.0\n")
        return ["stats", contours, contours], contours
    if command == "anonymize":
        paths = build_anonymize_inputs(tmp_path)
        anon = tmp_path / "anon"
        anon.mkdir()
        paths["contours"] = str(Path(paths["contours"]).rename(anon / "contours_anon.txt"))
        return anonymize_args(paths, anon), paths["contours"]
    if command == "score":
        inputs = build_score_inputs(tmp_path)
        args = ["score", inputs["plda"], inputs["enroll"], inputs["trials_emb"], inputs["key"], inputs["key"]]
        return args, inputs["key"]
    if command.startswith("eval"):
        scores = write(tmp_path / "s.txt", "e1 u1 2.0\ne1 u2 -1.0\n")
        key = write(tmp_path / "k.txt", "e1 u1 target\ne1 u2 nontarget\n")
        if command == "eval-out":
            return ["eval", scores, key, "--out", key], key
        return ["--det-out", scores, "eval", scores, key], scores
    cfg = write(tmp_path / "cfg.txt", "n_speakers_per_gender 6\nutts_per_speaker 3\nembed_dim 8\n"
                "frames_per_utt 40\nk_far 5\nk_sel 3\n")
    return ["--config", cfg, "--det-out", cfg, "simulate", "--out-dir", str(tmp_path / "sim")], cfg


@pytest.mark.parametrize("command", ["stats", "anonymize", "score", "eval-out", "eval-det-out", "simulate"])
def test_an_output_may_not_replace_an_input(command, tmp_path, runner):
    args, victim = input_as_output_case(command, tmp_path)
    before = tree(tmp_path)
    data = Path(victim).read_bytes()
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: cannot write {victim}: it is an input of this command\n"
    assert Path(victim).read_bytes() == data
    assert tree(tmp_path) == before  # no temp file, no new directory, nothing replaced


@pytest.mark.parametrize("command, path", [
    ("stats", "."), ("stats", "/"), ("stats", ""), ("score", "."), ("eval-out", "."), ("eval-det-out", "."),
    ("eval-det-out", ""),
])
def test_an_output_path_that_names_no_file_is_refused(command, path, tmp_path, runner, monkeypatch):
    """``.``, ``/`` and ``""`` name a directory, so neither a temp file nor a
    manifest can be named beside them: one error line, nothing written."""
    monkeypatch.chdir(tmp_path)
    if command == "stats":
        args = ["stats", write(tmp_path / "c.txt", "u1 100.0 0.0 400.0\n"), path]
    elif command == "score":
        inputs = build_score_inputs(tmp_path)
        args = ["score", inputs["plda"], inputs["enroll"], inputs["trials_emb"], inputs["key"], path]
    else:
        scores = write(tmp_path / "s.txt", "e1 u1 2.0\ne1 u2 -1.0\n")
        key = write(tmp_path / "k.txt", "e1 u1 target\ne1 u2 nontarget\n")
        args = ["eval", scores, key, "--out", path] if command == "eval-out" else ["--det-out", path, "eval", scores, key]
    before = tree(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    shown = str(Path(path))
    assert result.stderr == f"error: cannot write {shown}: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{shown}'\n"
    assert tree(tmp_path) == before


# --- global flags ----------------------------------------------------------------------

COMMAND_ARGS = {
    "stats": ["stats", "c.txt", "stats.txt"],
    "anonymize": ["anonymize", "--pool", "p.txt", "--embeddings", "e.txt", "--contours", "c.txt",
                  "--out-dir", "anon"],
    "score": ["score", "plda.txt", "enroll.txt", "trials_emb.txt", "key.txt", "scores.txt"],
    "eval": ["eval", "scores.txt", "key.txt", "--out", "report.txt"],
}


@pytest.mark.parametrize("flag, command", [
    ("--det-out", "stats"), ("--det-out", "anonymize"), ("--det-out", "score"),
    ("--config", "stats"), ("--config", "score"), ("--config", "eval"),
])
def test_global_flag_a_command_ignores_is_refused(flag, command, tmp_path, runner, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "flag.txt", "length_norm false\n")
    result = runner.invoke(main, ["--seed", "3", "--threads", "2", flag, "flag.txt", *COMMAND_ARGS[command]])
    assert result.exit_code == 1
    # the inputs do not exist: the refusal comes before any of them is read
    assert result.stderr == f"error: {flag} has no effect on {command}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["flag.txt"]
    assert (tmp_path / "flag.txt").read_text() == "length_norm false\n"


def test_seed_and_threads_are_accepted_where_they_have_no_effect(tmp_path, runner):
    contours = write(tmp_path / "c.txt", "u1 100.0 0.0 400.0\n")
    plain, flagged = tmp_path / "plain.txt", tmp_path / "flagged.txt"
    assert runner.invoke(main, ["stats", contours, str(plain)]).exit_code == 0
    result = runner.invoke(main, ["--seed", "3", "--threads", "2", "stats", contours, str(flagged)])
    assert result.exit_code == 0, result.output
    assert flagged.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("value, message", [
    ("٢", "'٢' is not a valid integer."), ("1_0", "'1_0' is not a valid integer."),
    (" 3", "' 3' is not a valid integer."), ("3\t", "'3\\t' is not a valid integer."),
    ("0", "0 is not in the range x>=1."),
])
def test_threads_takes_ascii_digits_of_at_least_one(tmp_path, runner, value, message):
    contours = write(tmp_path / "c.txt", "u1 100.0 0.0 400.0\n")
    result = runner.invoke(main, ["--threads", value, "stats", contours, str(tmp_path / "s.txt")])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"Invalid value for '--threads': {message}" in result.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]


# --- input errors name their file (every command) ------------------------------------


def bad_input_case(command, tmp_path):
    """(args, path of the one bad input, expected message after the path)."""
    bad = tmp_path / "bad.txt"
    if command == "stats":
        bad.write_text("u1 abc\n")
        return ["stats", str(bad), str(tmp_path / "s.txt")], bad, "line 1: "
    if command == "anonymize":
        paths = build_anonymize_inputs(tmp_path)
        bad.write_text("u1 abc\n")
        paths["embeddings"] = str(bad)
        return anonymize_args(paths, tmp_path / "anon"), bad, (
            "line 1: embedding line needs id, utt, gender, values"
        )
    if command == "score":
        inputs = build_score_inputs(tmp_path)
        bad.write_text("e1 t1-u1\n")
        args = ["score", inputs["plda"], inputs["enroll"], inputs["trials_emb"], str(bad),
                str(tmp_path / "scores.txt")]
        return args, bad, "line 1: trial line needs enroll, test, label"
    if command == "eval":
        bad.write_bytes(b"e1 u1 1.0\n\xff\n")
        key = write(tmp_path / "k.txt", "e1 u1 target\n")
        return ["eval", str(bad), key], bad, "input is not valid UTF-8: "
    if command == "anonymize-digits":  # int() would read 10
        bad.write_text("k_sel 1_0\n")
        args = ["--config", str(bad)] + anonymize_args(build_anonymize_inputs(tmp_path), tmp_path / "anon")
        return args, bad, "bad value '1_0' for key 'k_sel'"
    contents, message = {
        "simulate": ("k_far\n", "line 1: expected 'key value'"),
        "simulate-key": ("bogus 3\n", "unknown simulate config key 'bogus'"),
        "simulate-value": ("k_far many\n", "bad value 'many' for key 'k_far'"),
        # int() and float() would read 12 and 15
        "simulate-digits": ("k_far ١٢\n", "bad value '١٢' for key 'k_far'"),
        "simulate-underscore": ("f0_weight 1_5\n", "bad value '1_5' for key 'f0_weight'"),
    }[command]
    bad.write_text(contents)
    return ["--config", str(bad), "simulate", "--out-dir", str(tmp_path / "sim")], bad, message


@pytest.mark.parametrize("command", [
    "stats", "anonymize", "anonymize-digits", "score", "eval", "simulate", "simulate-key", "simulate-value",
    "simulate-digits", "simulate-underscore",
])
def test_input_error_names_its_file(command, tmp_path, runner):
    args, bad, message = bad_input_case(command, tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith(f"error: {bad}: {message}"), lines[0]


# --- manifests (every command) ----------------------------------------------------


def manifest_case(command, tmp_path):
    """(args, manifest path, {input name: path}, out dir or None) of one run."""
    if command == "stats":
        contours = write(tmp_path / "c.txt", "u1 100.0 0.0 400.0\nu2 120.0 130.0\n")
        out = tmp_path / "stats.txt"
        return ["stats", contours, str(out)], tmp_path / "stats.txt.manifest", {"contours": contours}, None
    if command == "anonymize":
        paths = build_anonymize_inputs(tmp_path)
        cfg = write(tmp_path / "cfg.txt", "k_far 8\nk_sel 2\nf0_mode modified\n")
        out = tmp_path / "anon"
        args = ["--config", cfg] + anonymize_args(paths, out)[:-4]
        return args, out / "manifest.txt", {**paths, "config": cfg}, out
    if command == "score":
        inputs = build_score_inputs(tmp_path)
        files = {
            "plda": inputs["plda"],
            "enroll": inputs["enroll"],
            "trial_embeddings": inputs["trials_emb"],
            "trial_key": inputs["key"],
        }
        out = tmp_path / "scores.txt"
        return ["score", *files.values(), str(out)], tmp_path / "scores.txt.manifest", files, None
    if command == "eval":
        scores = write(tmp_path / "s.txt", "e1 u1 2.0\ne1 u2 -1.0\ne2 u1 0.5\n")
        key = write(tmp_path / "k.txt", "e1 u1 target\ne1 u2 nontarget\ne2 u1 nontarget\n")
        out = tmp_path / "report.txt"
        args = ["eval", scores, key, "--out", str(out)]
        return args, tmp_path / "report.txt.manifest", {"scores": scores, "trial_key": key}, None
    cfg = write(tmp_path / "sim.txt", "n_speakers_per_gender 6\nutts_per_speaker 3\nembed_dim 8\n"
                "frames_per_utt 40\nk_far 5\nk_sel 3\n")
    out = tmp_path / "sim"
    return ["--config", cfg, "simulate", "--out-dir", str(out)], out / "manifest.txt", {"config": cfg}, out


@pytest.mark.parametrize("command", ["stats", "anonymize", "score", "eval", "simulate"])
def test_manifest_hashes_the_files_it_names(command, tmp_path, runner, monkeypatch):
    args, manifest_path, inputs, out_dir = manifest_case(command, tmp_path)
    decoded = []
    decode_text = formats.decode_text
    monkeypatch.setattr(formats, "decode_text", lambda data: decoded.append(data) or decode_text(data))
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert sorted(decoded) == sorted(Path(p).read_bytes() for p in inputs.values())
    manifest = formats.parse_keyvalues(manifest_path.read_text())
    assert {k for k in manifest if k.startswith("input_sha256_")} == {
        f"input_sha256_{name}" for name in inputs
    }
    for name, path in inputs.items():
        assert manifest[f"input_sha256_{name}"] == sha256_file(Path(path))
    output_keys = {k for k in manifest if k.startswith("output_sha256_")}
    if out_dir is None:
        assert not output_keys
        return
    data_files = sorted(p for p in out_dir.iterdir() if p.name != "manifest.txt")
    assert output_keys == {f"output_sha256_{p.stem}" for p in data_files}
    for path in data_files:
        assert manifest[f"output_sha256_{path.stem}"] == sha256_file(path)


# --- settings (anonymize, simulate) -------------------------------------------------

MANIFEST_BASE = {"format_version", "package_version", "command"}
ANON_SETTINGS = {"global_seed", "k_far", "k_sel", "gender_policy", "scorer", "length_norm", "f0_mode",
                 "n_source_speakers"}
SIM_SETTINGS = {
    "cohort_seed", "enroll_seed", "trial_seed", "attack", "f0_mode", "gender_policy", "attacker",
    "f0_weight_used", "k_far", "k_sel", "scorer", "length_norm", "n_speakers_per_gender",
    "utts_per_speaker", "embed_dim", "between_var", "within_var", "f0_mean_male", "f0_mean_female",
    "f0_between_std", "f0_within_std", "frames_per_utt", "n_trials",
}


def settings_of(manifest):
    return {k: v for k, v in manifest.items() if not k.startswith(("input_sha256_", "output_sha256_"))}


@pytest.mark.parametrize("command", ["anonymize", "simulate"])
def test_manifest_records_exactly_the_resolved_settings(command, tmp_path, runner):
    args, manifest_path, _, _ = manifest_case(command, tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    manifest = formats.parse_keyvalues(manifest_path.read_text())
    assert set(settings_of(manifest)) == MANIFEST_BASE | (ANON_SETTINGS if command == "anonymize" else SIM_SETTINGS)


# every simulate flag, each away from its default; the flag text is the recorded text
SIM_FLAGS = {
    "attack": "a-a", "f0_mode": "modified", "gender_policy": "opposite", "enroll_seed": "5",
    "trial_seed": "9", "attacker": "embedding_plus_f0", "f0_weight": "0.5", "k_far": "7", "k_sel": "4",
    "scorer": "cosine", "n_speakers_per_gender": "8", "utts_per_speaker": "3", "embed_dim": "6",
    "between_var": "1.5", "within_var": "0.125", "f0_mean_male": "4.75", "f0_mean_female": "5.25",
    "f0_between_std": "0.2", "f0_within_std": "0.3", "frames_per_utt": "30",
}


@pytest.mark.parametrize("source", ["flags", "config"])
def test_simulate_manifest_records_each_flag_value(source, tmp_path, runner):
    """The config case also sets the config-only ``seed`` and ``length_norm``."""
    out = tmp_path / "sim"
    if source == "flags":
        flags = [text for key, value in SIM_FLAGS.items() for text in (f"--{key.replace('_', '-')}", value)]
        args, length_norm = ["--seed", "7", "simulate", "--out-dir", str(out), *flags], "false"
    else:
        lines = "".join(f"{key} {value}\n" for key, value in {**SIM_FLAGS, "seed": "7", "length_norm": "true"}.items())
        args, length_norm = ["--config", write(tmp_path / "sim.cfg", lines), "simulate", "--out-dir", str(out)], "true"
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    manifest = settings_of(formats.parse_keyvalues((out / "manifest.txt").read_text()))
    recorded = {"f0_weight" if k == "f0_weight_used" else k: v for k, v in manifest.items()}
    assert recorded == {
        **SIM_FLAGS, "cohort_seed": "7", "length_norm": length_norm,
        "n_trials": str(16 * 32),  # 16 enrolled users x 32 trial utterances
        "format_version": cli.FORMAT_VERSION, "package_version": pseudovox.__version__, "command": "simulate",
    }


@pytest.mark.parametrize("command, keys", [
    ("anonymize", cli._ANON_CONFIG_KEYS), ("simulate", cli._SIM_CONFIG_KEYS),
], ids=["anonymize", "simulate"])
def test_every_setting_option_names_a_config_key(command, keys):
    """Each option that is not a path sets the config key of its parameter's
    name."""
    options = [p for p in main.commands[command].params if isinstance(p, click.Option)]
    names = {p.name for p in options if not isinstance(p.type, click.Path)}
    assert names and names <= set(keys)


SAME_OPPOSITE, ORIGINAL_MODIFIED, PLDA_COSINE = ("same", "opposite"), ("original", "modified"), ("plda", "cosine")
# parameter name: flags, secondary flags, choices or type name, default ("required" if it must be given), help
OPTIONS = {
    "anonymize": {
        "pool_file": (["--pool"], [], "path", "required", None),
        "embeddings_file": (["--embeddings"], [], "path", "required", None),
        "contours_file": (["--contours"], [], "path", "required", None),
        "plda_file": (["--plda"], [], "path", None, None),
        "out_dir": (["--out-dir"], [], "path", "required", None),
        "gender_policy": (["--gender"], [], SAME_OPPOSITE, None, None),
        "f0_mode": (["--f0"], [], ORIGINAL_MODIFIED, None, None),
        "k_far": (["--k-far"], [], "integer", None, "Furthest candidates kept (default 200)."),
        "k_sel": (["--k-sel"], [], "integer", None, "Members drawn from them (default 100)."),
        "scorer": (["--scorer"], [], PLDA_COSINE, None, None),
        "length_norm": (["--length-norm"], ["--no-length-norm"], "boolean", None, None),
    },
    "simulate": {
        "out_dir": (["--out-dir"], [], "path", "required", None),
        "attack": (["--attack"], [], ("o-a", "a-a"), None, None),
        "f0_mode": (["--f0-mode"], [], ORIGINAL_MODIFIED, None, None),
        "gender_policy": (["--gender-policy"], [], SAME_OPPOSITE, None, None),
        "enroll_seed": (["--enroll-seed"], [], "integer", None, None),
        "trial_seed": (["--trial-seed"], [], "integer", None, None),
        "attacker": (["--attacker"], [], ("embedding_only", "embedding_plus_f0"), None, None),
        "f0_weight": (["--f0-weight"], [], "float", None, None),
        "k_far": (["--k-far"], [], "integer", None, None),
        "k_sel": (["--k-sel"], [], "integer", None, None),
        "scorer": (["--scorer"], [], PLDA_COSINE, None, None),
        **{name: ([f"--{name.replace('_', '-')}"], [], "integer", None, None)
           for name in ("n_speakers_per_gender", "utts_per_speaker", "embed_dim", "frames_per_utt")},
        **{name: ([f"--{name.replace('_', '-')}"], [], "float", None, None)
           for name in ("between_var", "within_var", "f0_mean_male", "f0_mean_female", "f0_between_std",
                        "f0_within_std")},
    },
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_options_keep_their_flags_choices_defaults_and_help(command):
    """Each option of ``anonymize`` and ``simulate``, by parameter name."""
    options = {p.name: (p.opts, p.secondary_opts,
                        tuple(p.type.choices) if isinstance(p.type, click.Choice) else p.type.name,
                        "required" if p.required else p.default, p.help)
               for p in main.commands[command].params if isinstance(p, click.Option)}
    assert options == OPTIONS[command]


# the config lines of a small run, and a valid text of each key that has a flag, each valid alone over them
FLAG_BASE = {"anonymize": {"k_far": "8", "k_sel": "4"},
             "simulate": {"n_speakers_per_gender": "4", "utts_per_speaker": "2", "embed_dim": "4",
                          "frames_per_utt": "20", "k_far": "3", "k_sel": "2", "attack": "a-a",
                          "attacker": "embedding_plus_f0"}}
FLAG_TEXTS = {"anonymize": {"k_far": "6", "k_sel": "3", "gender_policy": "opposite", "f0_mode": "modified",
                            "scorer": "cosine", "length_norm": "false"},
              "simulate": {**SIM_FLAGS, "attack": "o-a", "attacker": "embedding_only", "k_far": "4", "k_sel": "1",
                           "n_speakers_per_gender": "5", "embed_dim": "3", "frames_per_utt": "12"}}
SPELLINGS = ["{}", "0{}", "+{}", "1_{}", "{}_0", " {}", "{}\t", " {} "]  # no config line holds the last three


@pytest.fixture(scope="module")
def anonymize_inputs(tmp_path_factory):
    paths = build_anonymize_inputs(tmp_path_factory.mktemp("flags"))
    return [arg for name in ("pool", "embeddings", "contours", "plda") for arg in (f"--{name}", paths[name])]


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(sorted(FLAG_TEXTS)), data=st.data())
def test_a_flag_and_its_config_line_record_the_same_value(anonymize_inputs, command, data):
    """A setting given as a flag and as a config line, in valid or changed
    spellings: non-ASCII digits, '_', case changes, and whitespace that only a
    flag can hold. Both runs record the same manifest, or the flag is a usage
    error (exit 2) and the config line one ``error:`` line (exit 1)."""
    key = data.draw(st.sampled_from(sorted(FLAG_TEXTS[command])), label="key")
    option = next(p for p in main.commands[command].params if p.name == key)
    valid = FLAG_TEXTS[command][key]
    if option.is_flag:  # a --x/--no-x pair holds no text
        text = data.draw(st.sampled_from(["true", "false"]), label="text")
        flag = [option.opts[0] if text == "true" else option.secondary_opts[0]]
    else:
        spelling = data.draw(st.sampled_from(SPELLINGS + ["digits", "upper", "title"]), label="spelling")
        text = {"digits": valid.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
                "upper": valid.upper(), "title": valid.title()}.get(spelling) or spelling.format(valid)
        event(f"{command} {key}: {spelling}")
        flag = [option.opts[0], text]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = anonymize_inputs if command == "anonymize" else []
        base = {k: v for k, v in FLAG_BASE[command].items() if k != key}

        def run(name, lines, extra=()):
            config = write(root / f"{name}.cfg", "".join(f"{k} {v}\n" for k, v in lines.items()))
            out = root / name
            result = CliRunner().invoke(main, ["--config", config, command, *inputs, "--out-dir", str(out), *extra])
            if result.exit_code:
                return result, None
            manifest = formats.parse_keyvalues((out / "manifest.txt").read_text())
            del manifest["input_sha256_config"]
            return result, manifest

        by_flag, flag_manifest = run("flag", base, flag)
        if text != text.strip():  # no config line holds it
            assert by_flag.exit_code == 2 and f"Invalid value for '{flag[0]}'" in by_flag.stderr
            return
        by_line, line_manifest = run("line", {**base, key: text})
        if by_flag.exit_code == 0:
            assert by_line.exit_code == 0, by_line.output
            assert flag_manifest == line_manifest
        else:
            assert by_flag.exit_code == 2 and f"Invalid value for '{flag[0]}'" in by_flag.stderr, by_flag.output
            assert by_line.exit_code == 1
            assert by_line.stdout == "" and len(by_line.stderr.splitlines()) == 1
            assert by_line.stderr.startswith("error: ")


# --- the failure contract (every command) ----------------------------------------


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """{command: {input name: bytes}} of one small valid run each; each input
    is written as ``<name>.txt``."""
    anon = build_anonymize_inputs(tmp_path_factory.mktemp("anonymize"))
    score = build_score_inputs(tmp_path_factory.mktemp("score"))
    files = {
        "stats": {"contours": "u1 100.0 0.0 400.0\nu2 120.0 130.0\n"},
        "anonymize": {name: Path(anon[name]).read_text() for name in ("pool", "embeddings", "contours", "plda")},
        "score": {"plda": Path(score["plda"]).read_text(), "enroll": Path(score["enroll"]).read_text(),
                  "trial_embeddings": Path(score["trials_emb"]).read_text(),
                  "trial_key": Path(score["key"]).read_text()},
        "eval": {"scores": "e1 u1 2.0\ne1 u2 -1.0\ne2 u1 0.5\ne2 u2 1.5\n",
                 "trial_key": "e1 u1 target\ne1 u2 nontarget\ne2 u1 nontarget\ne2 u2 target\n"},
        "simulate": {"config": "n_speakers_per_gender 4\nutts_per_speaker 2\nembed_dim 4\n"
                               "frames_per_utt 20\nk_far 3\nk_sel 2\nattack a-a\n"},
    }
    return {command: {name: text.encode() for name, text in inputs.items()} for command, inputs in files.items()}


# output slots of each command: a file's parser, or None for an --out-dir
CONTRACT_OUTPUTS = {
    "stats": {"stats.txt": formats.parse_stats},
    "anonymize": {"anon": None},
    "score": {"scores.txt": formats.parse_scores},
    "eval": {"report.txt": formats.parse_report, "det.txt": formats.parse_det},
    "simulate": {"sim": None, "det.txt": formats.parse_det},
}
DIR_PARSERS = {
    "mapping.txt": formats.parse_mapping, "pseudo_xvectors.txt": formats.parse_embeddings,
    "pseudo_f0_stats.txt": formats.parse_stats, "contours_anon.txt": formats.parse_contours,
    "pool.txt": formats.parse_pool, "user_embeddings.txt": formats.parse_embeddings,
    "user_contours.txt": formats.parse_contours, "plda.txt": formats.parse_plda,
    "scores.txt": formats.parse_scores, "trials.txt": formats.parse_trials, "report.txt": formats.parse_report,
}
DIR_FILES = {"anon": {"mapping.txt", "pseudo_xvectors.txt", "pseudo_f0_stats.txt", "contours_anon.txt"},
             "sim": {"pool.txt", "user_embeddings.txt", "user_contours.txt", "plda.txt", "scores.txt",
                     "trials.txt", "report.txt"}}


def contract_args(command, inp, out):
    """The command line of ``command`` with input paths ``inp`` and output paths ``out``."""
    if command == "stats":
        return ["stats", inp["contours"], out["stats.txt"]]
    if command == "anonymize":
        return ["anonymize", "--pool", inp["pool"], "--embeddings", inp["embeddings"], "--contours",
                inp["contours"], "--plda", inp["plda"], "--out-dir", out["anon"], "--k-far", "8", "--k-sel", "4",
                "--f0", "modified"]
    if command == "score":
        return ["score", *inp.values(), out["scores.txt"]]
    if command == "eval":
        return ["--det-out", out["det.txt"], "eval", inp["scores"], inp["trial_key"], "--out", out["report.txt"]]
    return ["--config", inp["config"], "--det-out", out["det.txt"], "simulate", "--out-dir", out["sim"]]


NON_ASCII = ["é", "١", "\u00a0", "\u2028", "\ufeff", "𝟙", "ß"]  # letters, digits of other scripts, spaces, a BOM


@st.composite
def content_edits(draw, data: bytes) -> bytes:
    """``data`` with one edit: a byte, a cut, CRLF, non-ASCII text, an extreme
    number, a duplicate line or a line of another dimension."""
    kind = draw(st.sampled_from(["byte", "truncate", "crlf", "non-ascii", "number", "duplicate", "dimension"]))
    at = draw(st.integers(0, max(len(data) - 1, 0)))
    lines = data.splitlines(keepends=True)
    line = draw(st.integers(0, len(lines) - 1))
    if kind == "byte":
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "truncate":
        return data[:at]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "non-ascii":
        return data[:at] + draw(st.sampled_from(NON_ASCII)).encode() + data[at:]
    if kind == "duplicate":
        return b"".join(lines[:line + 1] + lines[line:])
    tokens = lines[line].split()
    if kind == "dimension":
        tokens = tokens[:-1] if draw(st.booleans()) else tokens + [b"0.5"]
    else:
        numeric = [i for i, token in enumerate(tokens) if token.replace(b".", b"").lstrip(b"-").isdigit()]
        if numeric:
            tokens[draw(st.sampled_from(numeric))] = draw(st.sampled_from([b"1e308", b"-1e308", b"1e-320"]))
    lines[line] = b" ".join(tokens) + b"\n"
    return b"".join(lines)


def file_tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def check_manifest(manifest_path, inp, out_dir=None):
    manifest = formats.parse_keyvalues(manifest_path.read_text())
    hashes = {k.removeprefix("input_sha256_"): v for k, v in manifest.items() if k.startswith("input_sha256_")}
    assert hashes == {name: sha256_file(Path(path)) for name, path in inp.items()}
    if out_dir is not None:
        for path in out_dir.iterdir():
            if path.name != "manifest.txt":
                assert manifest[f"output_sha256_{path.stem}"] == sha256_file(path)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """The entries of ``/proc/self/fd``, or None where there is no such directory."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def refuse_the_scenario(*args, **kwargs):
    raise InvalidValueError("scenario refused")


def refused_after_the_first_row(real):
    """``real``, a writer of text chunks, refusing after its first chunk."""
    def rows(*args):
        yield from itertools.islice(real(*args), 1)
        raise InvalidValueError("grid refused")
    return rows


def counted_forks(monkeypatch):
    """Count the forks made through ``cli``'s ``os``, and the most of their
    children forked and not yet reaped at once."""
    real_fork, real_waitpid = cli.os.fork, cli.os.waitpid
    count = SimpleNamespace(forks=0, alive=set(), most=0)

    def fork():
        pid = real_fork()
        if pid:
            count.forks += 1
            count.alive.add(pid)
            count.most = max(count.most, len(count.alive))
        return pid

    def waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        count.alive.discard(reaped[0])
        return reaped

    monkeypatch.setattr(cli.os, "fork", fork)
    monkeypatch.setattr(cli.os, "waitpid", waitpid)
    return count


@pytest.mark.parametrize("command", sorted(CONTRACT_OUTPUTS))
def test_threads_fork_one_child_per_output_and_at_most_threads_at_once(contract_inputs, command, tmp_path,
                                                                       monkeypatch):
    """``--threads 1`` forks nothing. Above it, a command with one output
    (``stats``, ``score``) forks nothing either, and any other forks exactly
    one child per output, with no more than ``--threads`` alive at once,
    even when ``--threads`` exceeds the jobs. The outputs are byte-identical."""
    inp = {name: str(tmp_path / f"{name}.txt") for name in contract_inputs[command]}
    for name, path in inp.items():
        Path(path).write_bytes(contract_inputs[command][name])
    n_outputs = {"stats": 1, "anonymize": 4, "score": 1, "eval": 2, "simulate": 8}[command]  # with --det-out
    trees = {}
    for threads in (1, 2, 3, 64):
        count = counted_forks(monkeypatch)
        out_root = tmp_path / f"threads{threads}"
        out_root.mkdir()
        out = {slot: str(out_root / slot) for slot in CONTRACT_OUTPUTS[command]}
        result = CliRunner().invoke(main, ["--threads", str(threads), *contract_args(command, inp, out)])
        assert result.exit_code == 0, result.output
        assert_no_child_left()
        assert count.forks == (0 if threads == 1 or n_outputs == 1 else n_outputs)
        assert count.most <= threads
        trees[threads] = file_tree(out_root)
    assert trees[2] == trees[3] == trees[64] == trees[1]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(CONTRACT_OUTPUTS)), threads=st.sampled_from(["1", "2", "3"]), data=st.data())
def test_every_run_succeeds_whole_or_fails_with_one_error_line(contract_inputs, command, threads, data):
    """Small valid inputs, changed: edited bytes, swapped files, outputs that
    collide with an input, with each other or with existing files, one-file
    outputs that name no file (``.``, ``""``), ``simulate`` float settings at
    the ends of float64, and a ``simulate`` scenario that raises or a score
    grid that raises once the cohort's outputs have started, written by 1 to 3
    processes. Either the
    run exits 0 and every output parses and its manifest hashes hold, or it
    exits 1 with one ``error:`` line, no traceback, and the tree as it was;
    either way no temp file, child process or open file descriptor is
    left."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)  # "." is the run's own directory
        root = Path(tmp)
        contents = dict(contract_inputs[command])
        inp = {name: str(root / f"{name}.txt") for name in contents}
        out = {slot: str(root / slot) for slot in CONTRACT_OUTPUTS[command]}
        (root / "other.txt").write_bytes(b"bystander\n")
        (root / "empty").mkdir()
        if command == "simulate":  # float settings at the ends of float64
            extremes = data.draw(st.dictionaries(st.sampled_from(["f0_within_std", "f0_mean_female", "f0_weight"]),
                                                 st.sampled_from(["1e308", "-1e308", "1e-320"])))
            if "f0_weight" in extremes:
                extremes["attacker"] = "embedding_plus_f0"
            contents["config"] += "".join(f"{key} {value}\n" for key, value in extremes.items()).encode()
        kinds = ["edit", "earlier", "to-input", "to-existing"]
        if len(inp) > 1:
            kinds.append("swap")
        if len(out) > 1:
            kinds.append("to-output")
        file_slots = sorted(slot for slot, parse in CONTRACT_OUTPUTS[command].items() if parse is not None)
        if file_slots:
            kinds.append("no-name")
        if command == "simulate":  # failures in the scenario, and after the cohort's outputs start building
            kinds += ["scenario-raises", "part-raises"]
        for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2, unique=True)):
            if kind == "edit":
                name = data.draw(st.sampled_from(sorted(contents)))
                contents[name] = data.draw(content_edits(contents[name]))
            elif kind == "swap":
                a, b = data.draw(st.permutations(sorted(inp)))[:2]
                inp[a], inp[b] = inp[b], inp[a]
            elif kind == "no-name":
                out[data.draw(st.sampled_from(file_slots))] = data.draw(st.sampled_from([".", ""]))
            elif kind == "scenario-raises":
                patch.setattr(cli, "run_scenario", refuse_the_scenario)
            elif kind == "part-raises":
                patch.setattr(formats, "_score_grid_rows", refused_after_the_first_row(formats._score_grid_rows))
            else:
                slot = data.draw(st.sampled_from(sorted(out)))
                if kind == "earlier":  # an earlier run's outputs in place
                    if CONTRACT_OUTPUTS[command][slot] is None:
                        (root / slot).mkdir(exist_ok=True)
                        for name in DIR_FILES[slot] | {"manifest.txt"}:
                            (root / slot / name).write_bytes(b"earlier\n")
                    else:
                        for name in (slot, f"{slot}.manifest"):
                            (root / name).write_bytes(b"earlier\n")
                elif kind == "to-input":
                    out[slot] = data.draw(st.sampled_from(sorted(inp.values())))
                elif kind == "to-existing":
                    out[slot] = str(root / data.draw(st.sampled_from(["other.txt", "empty"])))
                else:
                    other = data.draw(st.sampled_from(sorted(set(out) - {slot})))
                    target = out[other]
                    if CONTRACT_OUTPUTS[command][other] is None:
                        target = str(Path(target) / data.draw(st.sampled_from(sorted(DIR_FILES[other]))))
                    out[slot] = target
        for name, path in inp.items():
            Path(path).write_bytes(contents[name])
        before = file_tree(root)
        fds = open_fds()

        result = CliRunner().invoke(main, ["--threads", threads, *contract_args(command, inp, out)])

        event(f"{command}: exit {result.exit_code}")
        assert_no_child_left()
        assert open_fds() == fds  # every pipe and temp file is closed
        assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
        if result.exit_code == 0:
            for slot, parse in CONTRACT_OUTPUTS[command].items():
                path = Path(out[slot])
                if parse is None:
                    assert {p.name for p in path.iterdir()} >= DIR_FILES[slot] | {"manifest.txt"}
                    for name in DIR_FILES[slot]:
                        DIR_PARSERS[name]((path / name).read_text(encoding="utf-8"))
                    check_manifest(path / "manifest.txt", inp, path)
                else:
                    parse(path.read_text(encoding="utf-8"))
                    if slot != "det.txt":
                        check_manifest(Path(f"{path}.manifest"), inp)
        else:
            assert result.exit_code == 1
            assert result.stdout == ""
            *warnings, error = result.stderr.splitlines()
            assert error.startswith("error: ") and all(w.startswith("warning: ") for w in warnings), result.stderr
            assert file_tree(root) == before
        assert not [p for p in root.rglob("*.tmp")]
