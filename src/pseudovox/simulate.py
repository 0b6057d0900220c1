"""Desk-scale generative simulation of the two linkability attack scenarios.

A synthetic cohort mirrors the data layout of the real pipeline: an external
speaker pool (for pseudo-speaker selection), a user population with one
enrollment utterance and several trial utterances per speaker, and the true
generative PLDA model. Speaker identities are isotropic Gaussians; utterance
embeddings add within-speaker noise; log-F0 contours are Gaussian around a
per-speaker mean drawn from gender-dependent statistics.

Two attack scenarios are simulated:

* ``o-a``: the attacker enrolls with original speech and scores it against
  anonymized trial utterances.
* ``a-a``: the attacker anonymizes the enrollment side with the same pipeline
  but a different random seed, so the enrollment pseudo-speaker differs from
  the trial pseudo-speaker only through the random member draw.

The attacker scores embeddings with the true PLDA model and can optionally
fuse a pitch feature (negative absolute difference of voiced log-F0 means),
which exploits exactly the leak that keeping original F0 creates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import InvalidSpecError
from .f0 import F0Contour, F0Mode, LogF0Stats, compute_log_f0_stats
from .metrics import EvalReport, TrialScoreSet, evaluate
from .plda import Gender, PldaModel, plda_score_matrix, project_many
from .selection import (
    GenderPolicy,
    PoolSpeaker,
    SelectionConfig,
    SpeakerPool,
    pseudonymize_speaker,
    seed_for_speaker,
)

__all__ = [
    "AttackModel",
    "F0Mode",
    "AttackerModel",
    "CohortSpec",
    "ScenarioConfig",
    "SimUtterance",
    "SimSpeaker",
    "Cohort",
    "ScenarioResult",
    "generate_cohort",
    "run_baseline",
    "run_scenario",
]

UNVOICED_STRIDE = 10  # every 10th frame is unvoiced: a fixed 10% of frames


class AttackModel(enum.Enum):
    ORIGINAL_TO_ANONYMIZED = "o-a"
    ANONYMIZED_TO_ANONYMIZED = "a-a"


class AttackerModel(enum.Enum):
    EMBEDDING_ONLY = "embedding_only"
    EMBEDDING_PLUS_F0 = "embedding_plus_f0"


@dataclass(frozen=True)
class CohortSpec:
    """Shape and distribution parameters of a synthetic cohort."""

    n_speakers_per_gender: int = 20
    utts_per_speaker: int = 5
    embed_dim: int = 32
    between_var: float = 1.0
    within_var: float = 0.05
    f0_gender_means: Mapping[Gender, float] = field(
        default_factory=lambda: {
            Gender.MALE: float(np.log(120.0)),
            Gender.FEMALE: float(np.log(210.0)),
        }
    )
    f0_between_std: float = 0.15
    f0_within_std: float = 0.25
    frames_per_utt: int = 200
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "f0_gender_means", dict(self.f0_gender_means))
        for name in ("between_var", "within_var", "f0_between_std", "f0_within_std"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"{name} must be finite")
        if self.n_speakers_per_gender < 1:
            raise InvalidSpecError("cohort needs >= 1 speaker per gender")
        if self.utts_per_speaker < 2:
            raise InvalidSpecError(
                "utts_per_speaker must be >= 2: one enrollment and at least one trial utterance"
            )
        if self.embed_dim < 1 or self.frames_per_utt < 2:
            raise InvalidSpecError("embed_dim must be >= 1 and frames_per_utt >= 2")
        if not (self.between_var > 0 and self.within_var > 0):
            raise InvalidSpecError("between_var and within_var must be positive")
        if not (self.f0_between_std > 0 and self.f0_within_std > 0):
            raise InvalidSpecError("F0 spread parameters must be positive")
        if set(self.f0_gender_means) != {Gender.MALE, Gender.FEMALE}:
            raise InvalidSpecError("f0_gender_means must cover both genders")
        for gender, mean in self.f0_gender_means.items():
            if not np.isfinite(mean):
                raise InvalidSpecError(f"f0_mean_{gender.name.lower()} must be finite")
        if not self.f0_gender_means[Gender.FEMALE] > self.f0_gender_means[Gender.MALE]:
            raise InvalidSpecError("female mean log-F0 must exceed the male mean")
        if not 0 <= int(self.seed) < (1 << 64):
            raise InvalidSpecError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class ScenarioConfig:
    """One attack-scenario setup."""

    attack: AttackModel
    f0_mode: F0Mode = F0Mode.ORIGINAL
    gender_policy: GenderPolicy = GenderPolicy.SAME
    enroll_seed: int = 1
    trial_seed: int = 2
    attacker: AttackerModel = AttackerModel.EMBEDDING_ONLY
    f0_weight: float | None = None  # None: balance term variances on the trial set

    def __post_init__(self):
        for name in ("enroll_seed", "trial_seed"):
            if not 0 <= int(getattr(self, name)) < (1 << 64):
                raise InvalidSpecError(f"{name} must fit in 64 unsigned bits")
        if self.f0_weight is not None and not np.isfinite(self.f0_weight):
            raise InvalidSpecError("f0_weight must be finite")


@dataclass(eq=False)
class SimUtterance:
    utterance_id: str
    speaker_id: str
    gender: Gender
    embedding: np.ndarray
    contour: F0Contour


@dataclass(eq=False)
class SimSpeaker:
    speaker_id: str
    gender: Gender
    identity: np.ndarray
    log_f0_mean: float
    utterances: list[SimUtterance]

    @property
    def enrollment(self) -> SimUtterance:
        return self.utterances[0]

    @property
    def trial_utterances(self) -> list[SimUtterance]:
        return self.utterances[1:]


@dataclass(eq=False)
class Cohort:
    spec: CohortSpec
    pool: SpeakerPool
    users: list[SimSpeaker]
    plda: PldaModel


@dataclass(eq=False)
class ScenarioResult:
    report: EvalReport
    enroll_ids: list[str]  # speaker id of each matrix row, cohort order
    utt_ids: list[str]  # trial utterance id of each matrix column, cohort order
    score_matrix: np.ndarray  # (enroll, utt) attacker scores, F0 term fused in
    label_matrix: np.ndarray  # (enroll, utt) bool: the utterance is the enrolled speaker's
    f0_weight_used: float | None

    @property
    def scores(self) -> TrialScoreSet:
        """The target and nontarget scores ``report`` was computed from, split
        from the grid on each access."""
        return TrialScoreSet(self.score_matrix[self.label_matrix], self.score_matrix[~self.label_matrix])


def _contour(rng: np.random.Generator, utt_id: str, spec: CohortSpec, log_mean: float) -> F0Contour:
    log_f0 = rng.normal(log_mean, spec.f0_within_std, spec.frames_per_utt)
    with np.errstate(over="ignore"):  # F0Contour refuses an overflowed value
        values = np.exp(log_f0)
    values[::UNVOICED_STRIDE] = 0.0
    return F0Contour(utt_id, values)


def generate_cohort(spec: CohortSpec) -> Cohort:
    """Sample pool, users and the matching true PLDA model, deterministically.

    Every speaker gets an independent generator seeded from ``spec.seed`` and
    the speaker id, so generation order cannot change the cohort. Pool
    speakers expose their identity vector as the pool mean embedding and
    their true per-speaker F0 statistics.
    """
    pool_speakers = []
    users = []
    for gender, tag in ((Gender.MALE, "m"), (Gender.FEMALE, "f")):
        gender_mean = spec.f0_gender_means[gender]
        for i in range(spec.n_speakers_per_gender):
            sid = f"pool-{tag}{i:03d}"
            rng = np.random.default_rng(seed_for_speaker(spec.seed, sid))
            identity = rng.normal(0.0, np.sqrt(spec.between_var), spec.embed_dim)
            log_mean = rng.normal(gender_mean, spec.f0_between_std)
            voiced_per_utt = spec.frames_per_utt - len(
                range(0, spec.frames_per_utt, UNVOICED_STRIDE)
            )
            pool_speakers.append(
                PoolSpeaker(
                    sid,
                    gender,
                    identity,
                    LogF0Stats(
                        log_mean,
                        spec.f0_within_std,
                        max(1, voiced_per_utt * spec.utts_per_speaker),
                    ),
                )
            )
        for i in range(spec.n_speakers_per_gender):
            sid = f"user-{tag}{i:03d}"
            rng = np.random.default_rng(seed_for_speaker(spec.seed, sid))
            identity = rng.normal(0.0, np.sqrt(spec.between_var), spec.embed_dim)
            log_mean = rng.normal(gender_mean, spec.f0_between_std)
            utterances = []
            for j in range(spec.utts_per_speaker):
                utt_id = f"{sid}-utt{j:02d}"
                embedding = identity + rng.normal(
                    0.0, np.sqrt(spec.within_var), spec.embed_dim
                )
                utterances.append(
                    SimUtterance(
                        utt_id, sid, gender, embedding, _contour(rng, utt_id, spec, log_mean)
                    )
                )
            users.append(SimSpeaker(sid, gender, identity, log_mean, utterances))
    plda = PldaModel(
        mean=np.zeros(spec.embed_dim),
        transform=np.eye(spec.embed_dim) / np.sqrt(spec.within_var),
        psi=np.full(spec.embed_dim, spec.between_var / spec.within_var),
    )
    return Cohort(spec, SpeakerPool(pool_speakers, plda), users, plda)


def _anonymize_side(
    cohort: Cohort,
    cfg: ScenarioConfig,
    sel: SelectionConfig,
    side_seed: int,
    which: str,
) -> list[SimUtterance]:
    spec = cohort.spec
    side_sel = replace(sel, global_seed=side_seed, gender_policy=cfg.gender_policy)
    out = []
    for user in cohort.users:
        utts = [user.enrollment] if which == "enroll" else user.trial_utterances
        pseudo, contours = pseudonymize_speaker(
            cohort.pool, user.speaker_id, user.gender, [u.embedding for u in user.utterances],
            [u.contour for u in utts], side_sel, cfg.f0_mode,
        )
        for utt, contour in zip(utts, contours):
            rng = np.random.default_rng(seed_for_speaker(side_seed, "noise/" + utt.utterance_id))
            embedding = pseudo.xvector + rng.normal(0.0, np.sqrt(spec.within_var), spec.embed_dim)
            out.append(SimUtterance(utt.utterance_id, utt.speaker_id, utt.gender, embedding, contour))
    return out


def _score_trials(
    cohort: Cohort,
    enroll_utts: list[SimUtterance],
    trial_utts: list[SimUtterance],
    attacker: AttackerModel,
    f0_weight: float | None,
) -> ScenarioResult:
    enroll_latents = project_many(
        cohort.plda, np.stack([u.embedding for u in enroll_utts]), length_norm=False
    )
    trial_latents = project_many(
        cohort.plda, np.stack([u.embedding for u in trial_utts]), length_norm=False
    )
    scores = plda_score_matrix(cohort.plda, enroll_latents, trial_latents)
    weight_used: float | None = None
    if attacker is AttackerModel.EMBEDDING_PLUS_F0:
        enroll_f0 = np.array(
            [compute_log_f0_stats(u.contour).mean for u in enroll_utts]
        )
        trial_f0 = np.array([compute_log_f0_stats(u.contour).mean for u in trial_utts])
        f0_term = -np.abs(enroll_f0[:, None] - trial_f0[None, :])
        if f0_weight is None:
            spread = float(f0_term.std())
            weight_used = float(scores.std()) / spread if spread > 1e-12 else 0.0
        else:
            weight_used = float(f0_weight)
        with np.errstate(over="ignore"):  # an overflowed fused score is refused below
            scores = scores + weight_used * f0_term
        if not np.isfinite(scores).all():
            raise InvalidSpecError(f"f0_weight {weight_used!r} makes a fused score overflow float64")
    enroll_ids = [u.speaker_id for u in enroll_utts]
    utt_ids = [u.utterance_id for u in trial_utts]
    labels = np.array(enroll_ids)[:, None] == np.array([u.speaker_id for u in trial_utts])
    report = evaluate(TrialScoreSet(scores[labels], scores[~labels]))
    return ScenarioResult(report, enroll_ids, utt_ids, scores, labels, weight_used)


def run_baseline(
    cohort: Cohort,
    attacker: AttackerModel = AttackerModel.EMBEDDING_ONLY,
    f0_weight: float | None = None,
) -> ScenarioResult:
    """Plain verification on the cohort with no anonymization at all."""
    enroll = [user.enrollment for user in cohort.users]
    trials = [u for user in cohort.users for u in user.trial_utterances]
    return _score_trials(cohort, enroll, trials, attacker, f0_weight)


def run_scenario(
    cohort: Cohort,
    cfg: ScenarioConfig,
    sel: SelectionConfig,
    *,
    allow_equal_seeds: bool = False,
) -> ScenarioResult:
    """Simulate one attack scenario and evaluate the attacker's linkability.

    Trial utterances are anonymized with ``cfg.trial_seed``; under ``a-a`` the
    enrollment side is anonymized with ``cfg.enroll_seed`` (which must differ,
    unless ``allow_equal_seeds`` is set for diagnostic runs). Anonymization
    replaces each utterance embedding with the speaker's pseudo x-vector plus
    fresh within-speaker noise; with ``f0_mode = modified`` the contour is
    renormalized toward the pseudo-speaker's F0 statistics.
    """
    if (
        cfg.attack is AttackModel.ANONYMIZED_TO_ANONYMIZED
        and cfg.enroll_seed == cfg.trial_seed
        and not allow_equal_seeds
    ):
        raise InvalidSpecError("a-a requires enroll_seed != trial_seed")
    trial_utts = _anonymize_side(cohort, cfg, sel, cfg.trial_seed, "trial")
    if cfg.attack is AttackModel.ORIGINAL_TO_ANONYMIZED:
        enroll_utts = [user.enrollment for user in cohort.users]
    else:
        enroll_utts = _anonymize_side(cohort, cfg, sel, cfg.enroll_seed, "enroll")
    return _score_trials(cohort, enroll_utts, trial_utts, cfg.attacker, cfg.f0_weight)
