"""Speech pseudonymization core: pseudo-speaker selection, F0 renormalization,
PLDA scoring and privacy-linkability evaluation (EER, Cllr, min-Cllr), plus a
desk-scale simulator of the original-vs-anonymized attack scenarios."""

__version__ = "0.1.0"

from .errors import PseudovoxError
from .f0 import F0Contour, F0Mode, LogF0Stats, aggregate_target_stats, compute_log_f0_stats, transform_contour
from .metrics import EvalReport, TrialScoreSet, cllr, det_points, eer, evaluate, min_cllr
from .plda import Gender, PldaModel, SpeakerEmbedding, cosine_score, plda_score, project
from .selection import (
    GenderPolicy,
    PoolSpeaker,
    PseudoSpeaker,
    Scorer,
    SelectionConfig,
    SpeakerPool,
    derive_pseudo_speaker,
    filter_by_gender,
    pseudonymize_speaker,
    pseudonymize_speakers,
    rank_furthest,
    seed_for_speaker,
)
from .simulate import (
    AttackerModel,
    AttackModel,
    Cohort,
    CohortSpec,
    ScenarioConfig,
    generate_cohort,
    run_baseline,
    run_scenario,
)

__all__ = [
    "__version__",
    "PseudovoxError",
    "F0Contour",
    "LogF0Stats",
    "compute_log_f0_stats",
    "transform_contour",
    "aggregate_target_stats",
    "Gender",
    "SpeakerEmbedding",
    "PldaModel",
    "project",
    "plda_score",
    "cosine_score",
    "GenderPolicy",
    "Scorer",
    "PoolSpeaker",
    "SpeakerPool",
    "SelectionConfig",
    "PseudoSpeaker",
    "seed_for_speaker",
    "filter_by_gender",
    "rank_furthest",
    "derive_pseudo_speaker",
    "pseudonymize_speaker",
    "pseudonymize_speakers",
    "TrialScoreSet",
    "EvalReport",
    "eer",
    "cllr",
    "min_cllr",
    "det_points",
    "evaluate",
    "AttackModel",
    "F0Mode",
    "AttackerModel",
    "CohortSpec",
    "ScenarioConfig",
    "Cohort",
    "generate_cohort",
    "run_baseline",
    "run_scenario",
]
