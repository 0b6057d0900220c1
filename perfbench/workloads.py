"""Seeded input generators and CLI command lists of the three workloads.

Every input file is written here with NumPy and ``repr(float)``; nothing in
this module imports ``pseudovox``, so a change to the package's formats code
cannot change the inputs the package is measured on.  One seed gives the same
bytes on every run; each file draws from its own ``SeedSequence`` stream.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

DIM = 512
LOG_F0_MEAN = {"M": math.log(120.0), "F": math.log(210.0)}

# anonymize-paper: the paper's 200-furthest / 100-drawn selection
POOL_PER_GENDER = 600
SOURCE_SPEAKERS = 200
UTTS_PER_SOURCE = 5
FRAMES = 400
UNVOICED_FRAC = 0.3
K_FAR = 200
K_SEL = 100

# score-eval: all-pairs key of 400 enrolled speakers x 400 test utterances
EVAL_SPEAKERS = 400
ENROLL_UTTS = 2
# Between-speaker variance in the PLDA latent space.  Small enough that target
# and nontarget scores overlap (EER near 11 %), so PAV and the ROC hull do real
# work instead of facing a perfectly separated set.
EVAL_PSI = 0.08

# simulate-aa: 250 speakers per gender gives 500 x 2000 = 1M trials
SIM_SPEAKERS_PER_GENDER = 250


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _reals(values: np.ndarray) -> str:
    return " ".join(map(repr, values.tolist()))


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _plda(rng: np.random.Generator, psi: np.ndarray) -> tuple[list[str], tuple]:
    """PLDA file lines, plus what ``_to_raw`` needs to draw data from the model.

    The transform is a diagonal scaling times a Householder reflection: dense
    and full rank, with an inverse that needs no BLAS or LAPACK call.  Matrix
    products there could round differently with the BLAS thread count or CPU
    kernel, and the same seed must give the same bytes everywhere.
    """
    mean = rng.normal(0.0, 0.05, DIM)
    scale = rng.uniform(0.8, 1.25, DIM)
    u = rng.normal(0.0, 1.0, DIM)
    u /= np.sqrt(np.sum(u * u))
    transform = scale[:, None] * (np.eye(DIM) - 2.0 * np.outer(u, u))
    lines = [f"dim {DIM}", "mean " + _reals(mean)]
    lines += ["transform " + _reals(row) for row in transform]
    lines.append("psi " + _reals(psi))
    return lines, (mean, scale, u)


def _to_raw(latents: np.ndarray, model: tuple) -> np.ndarray:
    """Embeddings whose latent vectors are ``latents`` (one per row)."""
    mean, scale, u = model
    w = latents / scale
    return mean + w - 2.0 * np.sum(w * u, axis=-1, keepdims=True) * u


def _contour(rng: np.random.Generator, log_mean: float) -> np.ndarray:
    frames = int(rng.integers(FRAMES - 40, FRAMES + 41))
    values = np.exp(rng.normal(log_mean, 0.2, frames))
    unvoiced = rng.random(frames) < UNVOICED_FRAC
    unvoiced[int(rng.integers(frames))] = False  # at least one voiced frame
    values[unvoiced] = 0.0
    return values


def make_anonymize_inputs(seed: int, out: Path) -> dict[str, Path]:
    """Pool, source embeddings, contours and a full PLDA model at paper scale."""
    out.mkdir(parents=True, exist_ok=True)
    psi = np.exp(_rng(seed, 1).normal(0.0, 0.5, DIM))
    plda_lines, model = _plda(_rng(seed, 2), psi)
    paths = {name: out / f"{name}.txt" for name in ("pool", "embeddings", "contours", "plda")}
    _write(paths["plda"], plda_lines)

    rng = _rng(seed, 3)
    pool_lines = []
    for gender in ("M", "F"):
        latents = rng.normal(0.0, np.sqrt(psi), (POOL_PER_GENDER, DIM))
        vectors = _to_raw(latents, model)
        f0_means = rng.normal(LOG_F0_MEAN[gender], 0.15, POOL_PER_GENDER)
        f0_stds = rng.uniform(0.15, 0.3, POOL_PER_GENDER)
        counts = rng.integers(500, 5000, POOL_PER_GENDER)
        for i in range(POOL_PER_GENDER):
            pool_lines.append(
                f"pool-{gender.lower()}{i:04d} {gender} {_reals(vectors[i])} | "
                f"{float(f0_means[i])!r} {float(f0_stds[i])!r} {counts[i]}"
            )
    _write(paths["pool"], pool_lines)

    rng = _rng(seed, 4)
    embedding_lines, contour_lines = [], []
    for s in range(SOURCE_SPEAKERS):
        gender = "MF"[s % 2]
        speaker = f"spk-{gender.lower()}{s:03d}"
        identity = rng.normal(0.0, np.sqrt(psi), DIM)
        noise = rng.normal(0.0, 1.0, (UTTS_PER_SOURCE, DIM))
        vectors = _to_raw(identity + noise, model)
        log_mean = float(rng.normal(LOG_F0_MEAN[gender], 0.15))
        for u in range(UTTS_PER_SOURCE):
            utt = f"{speaker}-u{u}"
            embedding_lines.append(f"{speaker} {utt} {gender} {_reals(vectors[u])}")
            contour_lines.append(f"{utt} {_reals(_contour(rng, log_mean))}")
    _write(paths["embeddings"], embedding_lines)
    _write(paths["contours"], contour_lines)
    return paths


def make_score_inputs(seed: int, out: Path) -> dict[str, Path]:
    """PLDA model, enrollment and test embeddings, and an all-pairs trial key."""
    out.mkdir(parents=True, exist_ok=True)
    psi = np.full(DIM, EVAL_PSI)
    plda_lines, model = _plda(_rng(seed, 11), psi)
    paths = {name: out / f"{name}.txt" for name in ("plda", "enroll", "trial_embeddings", "trial_key")}
    _write(paths["plda"], plda_lines)

    rng = _rng(seed, 12)
    identities = rng.normal(0.0, np.sqrt(psi), (EVAL_SPEAKERS, DIM))
    speakers = [f"enr-{i:04d}" for i in range(EVAL_SPEAKERS)]
    genders = ["MF"[i % 2] for i in range(EVAL_SPEAKERS)]
    enroll_lines, test_vectors = [], []
    for i, speaker in enumerate(speakers):
        noise = rng.normal(0.0, 1.0, (ENROLL_UTTS + 1, DIM))
        vectors = _to_raw(identities[i] + noise, model)
        for u in range(ENROLL_UTTS):
            enroll_lines.append(f"{speaker} {speaker}-e{u} {genders[i]} {_reals(vectors[u])}")
        test_vectors.append(vectors[ENROLL_UTTS])
    owner = rng.permutation(EVAL_SPEAKERS)  # test utterance j is spoken by speaker owner[j]
    _write(paths["enroll"], enroll_lines)
    _write(
        paths["trial_embeddings"],
        [
            f"{speakers[i]} tst-{j:04d} {genders[i]} {_reals(test_vectors[i])}"
            for j, i in enumerate(owner.tolist())
        ],
    )
    _write(
        paths["trial_key"],
        [
            f"{speaker} tst-{j:04d} {'target' if owner[j] == i else 'nontarget'}"
            for i, speaker in enumerate(speakers)
            for j in range(EVAL_SPEAKERS)
        ],
    )
    return paths


def simulate_seeds(seed: int) -> tuple[int, int, int]:
    """Cohort, enrollment and trial seeds of ``simulate-aa``; the last two differ."""
    cohort, enroll, trial = (int(x) for x in _rng(seed, 21).integers(0, 2**63, 3))
    return cohort, enroll, trial if trial != enroll else trial + 1


class Step(NamedTuple):
    """One CLI invocation: its arguments and the files it writes."""

    name: str
    args: list[str]
    outputs: list[str]


def steps(workload: str, seed: int, inputs: Path, out: Path) -> list[Step]:
    """The CLI commands of one workload pass, writing under ``out``."""
    i = {p.stem: str(p) for p in inputs.glob("*.txt")}
    o = str(out)
    if workload == "anonymize-paper":
        names = ["mapping.txt", "pseudo_xvectors.txt", "pseudo_f0_stats.txt", "contours_anon.txt", "manifest.txt"]
        return [
            Step(
                "anonymize",
                [
                    "--seed", str(seed), "--threads", "1", "anonymize",
                    "--pool", i["pool"], "--embeddings", i["embeddings"],
                    "--contours", i["contours"], "--plda", i["plda"], "--out-dir", o,
                    "--gender", "same", "--f0", "modified", "--scorer", "plda",
                    "--length-norm", "--k-far", str(K_FAR), "--k-sel", str(K_SEL),
                ],
                names,
            )
        ]
    if workload == "score-eval":
        return [
            Step(
                "score",
                ["score", i["plda"], i["enroll"], i["trial_embeddings"], i["trial_key"], f"{o}/scores.txt"],
                ["scores.txt", "scores.txt.manifest"],
            ),
            Step(
                "eval",
                ["--det-out", f"{o}/det.txt", "eval", f"{o}/scores.txt", i["trial_key"], "--out", f"{o}/report.txt"],
                ["report.txt", "report.txt.manifest", "det.txt"],
            ),
        ]
    if workload == "simulate-aa":
        cohort, enroll, trial = simulate_seeds(seed)
        names = ["pool.txt", "user_embeddings.txt", "user_contours.txt", "plda.txt",
                 "scores.txt", "trials.txt", "report.txt", "manifest.txt"]
        return [
            Step(
                "simulate",
                [
                    "--seed", str(cohort), "--threads", "2", "simulate", "--out-dir", o,
                    "--attack", "a-a", "--enroll-seed", str(enroll), "--trial-seed", str(trial),
                    "--f0-mode", "modified", "--gender-policy", "opposite",
                    "--attacker", "embedding_plus_f0", "--scorer", "cosine",
                    "--k-far", str(K_FAR), "--k-sel", str(K_SEL),
                    "--n-speakers-per-gender", str(SIM_SPEAKERS_PER_GENDER),
                ],
                names,
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


def make_simulate_inputs(seed: int, out: Path) -> dict[str, Path]:
    """Only the directory: ``simulate`` draws its cohort from the seeds in its arguments."""
    out.mkdir(parents=True, exist_ok=True)
    return {}


GENERATORS = {
    "anonymize-paper": make_anonymize_inputs,
    "score-eval": make_score_inputs,
    "simulate-aa": make_simulate_inputs,
}
WORKLOADS = tuple(GENERATORS)
