"""Two-covariance PLDA scoring in simultaneously diagonalized form.

The model stores a global mean, a whitening/diagonalizing transform and a
per-dimension between-speaker variance vector psi. In the latent space
reached by ``transform @ (vector - mean)`` the within-speaker covariance is
the identity and the between-speaker covariance is diag(psi).

Scoring follows the single-enrollment log-likelihood ratio, per dimension i::

    same:      N(test_i ; a_i * enroll_i, 1 + a_i)   with a_i = psi_i / (psi_i + 1)
    different: N(test_i ; 0,              1 + psi_i)
    llr = sum_i [ log N_same(test_i) - log N_diff(test_i) ]

All log-likelihood ratios are natural logs.

Bit-exactness rule
------------------
Outputs must be byte-identical across releases, so a batched path makes the
same BLAS calls per value as the scalar code it replaced. A per-pair score
is one ``ddot`` per dot product, reached through ``np.vecdot`` (NumPy >=
2.0), never a row of a matrix product: a gemm sums in a different order. On
a 160,000-trial key, :func:`plda_score_matrix` over all pairs differs from
the scalar scores in 123,217 of them (by up to 5.4e-15). So
:func:`plda_score_pairs` loops over rows in BLAS, not over pairs in Python,
and :func:`cosine_scores` is one ``ddot`` per member row, as
:func:`cosine_score` is for its one pair. Selection keeps its per-source
1 x n :func:`plda_score_matrix` row, unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidValueError, ZeroVectorError

__all__ = [
    "Gender",
    "SpeakerEmbedding",
    "PldaModel",
    "length_normalize",
    "project",
    "project_many",
    "plda_score",
    "plda_score_pairs",
    "plda_score_matrix",
    "cosine_score",
    "cosine_scores",
]


class Gender(enum.Enum):
    MALE = "M"
    FEMALE = "F"

    @property
    def opposite(self) -> "Gender":
        return Gender.FEMALE if self is Gender.MALE else Gender.MALE

    @classmethod
    def parse(cls, token: str) -> "Gender":
        try:
            return cls(token)
        except ValueError:
            raise InvalidValueError(f"gender must be M or F, got {token!r}") from None


@dataclass(eq=False)
class SpeakerEmbedding:
    """Fixed-dimension identity vector with speaker id and gender label."""

    speaker_id: str
    gender: Gender
    vector: np.ndarray
    utterance_id: str | None = None

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if not self.speaker_id:
            raise InvalidValueError("speaker_id must be non-empty")
        if self.vector.ndim != 1 or self.vector.size == 0:
            raise InvalidValueError("embedding vector must be 1-D and non-empty")
        if not np.all(np.isfinite(self.vector)):
            raise InvalidValueError(
                f"embedding for {self.speaker_id!r} has non-finite components"
            )

    @property
    def dim(self) -> int:
        return self.vector.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpeakerEmbedding):
            return NotImplemented
        return (
            self.speaker_id == other.speaker_id
            and self.gender == other.gender
            and self.utterance_id == other.utterance_id
            and np.array_equal(self.vector, other.vector)
        )


@dataclass(eq=False)
class PldaModel:
    """Global mean, diagonalizing transform and between-speaker variances."""

    mean: np.ndarray
    transform: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.transform = np.asarray(self.transform, dtype=np.float64)
        self.psi = np.asarray(self.psi, dtype=np.float64)
        d = self.mean.size
        if self.mean.ndim != 1 or d == 0:
            raise InvalidValueError("PLDA mean must be a non-empty vector")
        if self.transform.shape != (d, d):
            raise DimensionMismatchError(
                f"PLDA transform must be {d}x{d}, got {self.transform.shape}"
            )
        if self.psi.shape != (d,):
            raise DimensionMismatchError("PLDA psi must match the mean dimension")
        if not (
            np.all(np.isfinite(self.mean))
            and np.all(np.isfinite(self.transform))
            and np.all(np.isfinite(self.psi))
        ):
            raise InvalidValueError("PLDA parameters must be finite")
        if np.any(self.psi < 0.0):
            raise InvalidValueError("PLDA psi components must be >= 0")

    @property
    def dim(self) -> int:
        return self.mean.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, PldaModel):
            return NotImplemented
        return (
            np.array_equal(self.mean, other.mean)
            and np.array_equal(self.transform, other.transform)
            and np.array_equal(self.psi, other.psi)
        )


def _check_norms(norms, vectors: np.ndarray, zero_message: str) -> None:
    """Refuse a computed norm of 0 or inf: ``norms`` is the norm of
    ``vectors`` (one vector and a float, or the rows of a matrix). A norm
    of 0 is ``zero_message`` only for an all-zero vector: the squares of a
    nonzero one can underflow to 0."""
    zero = norms == 0.0
    if np.any(zero):
        if not np.all(vectors[zero].any(axis=-1)):
            raise ZeroVectorError(zero_message)
        raise InvalidValueError("the norm of a vector underflows float64")
    if np.any(norms == np.inf):
        raise InvalidValueError("the norm of a vector overflows float64")


def _as_vector(e) -> np.ndarray:
    if isinstance(e, SpeakerEmbedding):
        return e.vector
    v = np.asarray(e, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidValueError("expected a 1-D vector")
    return v


def length_normalize(vector: np.ndarray) -> np.ndarray:
    """Scale a vector to Euclidean norm sqrt(d)."""
    v = _as_vector(vector)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    _check_norms(norm, v, "cannot length-normalize an all-zero vector")
    return v * (np.sqrt(v.size) / norm)


def project(model: PldaModel, e, length_norm: bool = True) -> np.ndarray:
    """Map an embedding into the model's latent space.

    Computes ``transform @ (v - mean)`` where v is the (optionally
    length-normalized) embedding vector.
    """
    v = _as_vector(e)
    if v.size != model.dim:
        raise DimensionMismatchError(
            f"embedding dimension {v.size} != model dimension {model.dim}"
        )
    if length_norm:
        v = length_normalize(v)
    return model.transform @ (v - model.mean)


def project_many(model: PldaModel, vectors: np.ndarray, length_norm: bool = True) -> np.ndarray:
    """Row-wise :func:`project` for an (n, d) matrix of embeddings."""
    m = np.asarray(vectors, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"expected an (n, {model.dim}) matrix, got shape {m.shape}"
        )
    if length_norm:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(m, axis=1)
        _check_norms(norms, m, "cannot length-normalize an all-zero vector")
        m = m * (np.sqrt(model.dim) / norms)[:, None]
    return (m - model.mean) @ model.transform.T


def _score_terms(model: PldaModel):
    """Per-dimension weights of the LLR: enroll scale, enroll and test
    quadratic weights, and the constant."""
    psi = model.psi
    a = psi / (psi + 1.0)          # posterior shrinkage of the enrollment
    v_same = 1.0 + a               # predictive variance given the enrollment
    v_diff = 1.0 + psi
    const = 0.5 * float(np.sum(np.log(v_diff / v_same)))
    return a / v_same, -0.5 * a * a / v_same, 0.5 / v_diff - 0.5 / v_same, const


def _latent_matrix(model: PldaModel, latents) -> np.ndarray:
    m = np.asarray(latents, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != model.dim:
        raise DimensionMismatchError("latent matrices must be (n, d) with model d")
    return m


def plda_score_matrix(
    model: PldaModel, enroll_latents: np.ndarray, test_latents: np.ndarray
) -> np.ndarray:
    """Log-likelihood-ratio matrix for every (enroll, test) latent pair.

    Inputs are latent vectors as produced by :func:`project`; the result has
    shape (n_enroll, n_test).
    """
    e = _latent_matrix(model, enroll_latents)
    t = _latent_matrix(model, test_latents)
    scale, enroll_w, test_w, const = _score_terms(model)
    test_part = (t * t) @ test_w
    enroll_part = (e * e) @ enroll_w
    cross = (e * scale) @ t.T
    return cross + enroll_part[:, None] + test_part[None, :] + const


def plda_score_pairs(
    model: PldaModel,
    enroll_latents: np.ndarray,
    test_latents: np.ndarray,
    enroll_index: np.ndarray,
    test_index: np.ndarray,
) -> np.ndarray:
    """LLR of each trial ``(enroll_latents[enroll_index[k]], test_latents[test_index[k]])``.

    Bit-identical to :func:`plda_score` on each pair (see the module
    docstring): the quadratic parts are one ``ddot`` per row, and the cross
    term one ``ddot`` per trial, run over each enrollment row's trials.
    """
    e = _latent_matrix(model, enroll_latents)
    t = _latent_matrix(model, test_latents)
    ei = np.asarray(enroll_index, dtype=np.intp)
    ti = np.asarray(test_index, dtype=np.intp)
    if ei.shape != ti.shape or ei.ndim != 1:
        raise DimensionMismatchError("enroll and test indices must be equal-length vectors")
    scale, enroll_w, test_w, const = _score_terms(model)
    test_part = np.vecdot(t * t, test_w)
    enroll_part = np.vecdot(e * e, enroll_w)
    scaled = e * scale
    cross = np.empty(ei.size)
    order = np.argsort(ei, kind="stable")
    rows, starts = np.unique(ei[order], return_index=True)
    for row, trials in zip(rows, np.split(order, starts[1:])):
        cross[trials] = np.vecdot(t[ti[trials]], scaled[row])
    return cross + enroll_part[ei] + test_part[ti] + const


def plda_score(model: PldaModel, enroll, test) -> float:
    """Natural-log likelihood ratio for a single latent pair."""
    e = _as_vector(enroll)
    t = _as_vector(test)
    if e.size != model.dim or t.size != model.dim:
        raise DimensionMismatchError("latent vectors must match the model dimension")
    return float(plda_score_matrix(model, e[None, :], t[None, :])[0, 0])


def cosine_score(a, b) -> float:
    """Cosine similarity in [-1, 1] between two embeddings or raw vectors."""
    return float(cosine_scores(a, _as_vector(b)[None, :])[0])


def cosine_scores(source, members) -> np.ndarray:
    """Cosine similarity in [-1, 1] of ``source`` with each row of ``members``.

    One ``ddot`` per row, for the row's norm and for its dot product with
    ``source`` (see the module docstring), so each value equals
    :func:`cosine_score` of that row.
    """
    s = _as_vector(source)
    m = np.asarray(members, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError("cosine members must be an (n, d) matrix")
    if s.size != m.shape[1]:
        raise DimensionMismatchError(
            f"cosine of vectors with dimensions {s.size} and {m.shape[1]}"
        )
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(m, m))
        norm = float(np.linalg.norm(s))
    for n, vectors in ((norm, s), (norms, m)):
        _check_norms(n, vectors, "cosine similarity of an all-zero vector is undefined")
    return np.clip(np.vecdot(s, m) / (norm * norms), -1.0, 1.0)
