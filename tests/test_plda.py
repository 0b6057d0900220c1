import math

import numpy as np
import pytest

from pseudovox.errors import DimensionMismatchError, InvalidValueError, ZeroVectorError
from pseudovox.plda import (
    Gender,
    PldaModel,
    SpeakerEmbedding,
    cosine_score,
    length_normalize,
    plda_score,
    plda_score_matrix,
    project,
    project_many,
)

from oracles import integration_llr


def identity_model(dim, psi):
    return PldaModel(np.zeros(dim), np.eye(dim), np.full(dim, float(psi)))


def test_project_identity_preserves_normalized_vector():
    model = identity_model(4, 1.0)
    vec = np.array([2.0, 0.0, 0.0, 0.0])
    out = project(model, vec)
    assert np.linalg.norm(out) == pytest.approx(2.0)  # sqrt(4)
    assert out == pytest.approx([2.0, 0.0, 0.0, 0.0])


def test_project_shape_and_centering():
    rng = np.random.default_rng(0)
    model = identity_model(6, 2.0)
    emb = SpeakerEmbedding("s", Gender.MALE, rng.normal(size=6))
    out = project(model, emb)
    assert out.shape == (6,)
    assert np.all(np.isfinite(out))
    centered = PldaModel(length_normalize(emb.vector), np.eye(6), np.ones(6))
    assert project(centered, emb) == pytest.approx(np.zeros(6), abs=1e-12)


def test_project_dimension_mismatch():
    model = identity_model(3, 1.0)
    with pytest.raises(DimensionMismatchError):
        project(model, np.ones(4))


def test_length_normalize_zero_vector():
    with pytest.raises(ZeroVectorError):
        length_normalize(np.zeros(3))


NORMALIZERS = pytest.mark.parametrize("normalize", [
    length_normalize,
    lambda v: project_many(identity_model(3, 1.0), np.stack([np.ones(3), v])),
    lambda v: cosine_score(v, np.ones(3)),
    lambda v: cosine_score(np.ones(3), v),
], ids=["length_normalize", "project_many", "cosine-source", "cosine-member"])


@pytest.mark.filterwarnings("error")  # the overflow is refused, not warned about
@NORMALIZERS
def test_a_norm_that_overflows_is_refused(normalize):
    """Finite components whose norm overflows would otherwise scale to zeros
    or to a cosine of 0."""
    with pytest.raises(InvalidValueError, match="^the norm of a vector overflows float64$"):
        normalize(np.array([1e200, -1e200, 1.0]))


@pytest.mark.filterwarnings("error")
@NORMALIZERS
def test_a_norm_that_underflows_is_not_called_all_zero(normalize):
    """Nonzero components whose squares underflow give a norm of 0, but the
    vector is not all zero."""
    with pytest.raises(InvalidValueError, match="^the norm of a vector underflows float64$"):
        normalize(np.array([1e-200, -1e-200, 0.0]))


@NORMALIZERS
def test_an_all_zero_vector_is_called_all_zero(normalize):
    with pytest.raises(ZeroVectorError):
        normalize(np.zeros(3))


def test_an_all_zero_row_is_named_before_an_underflowing_one():
    rows = np.array([[1e-200, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ZeroVectorError, match="^cannot length-normalize an all-zero vector$"):
        project_many(identity_model(3, 1.0), rows)


def test_score_zero_psi_is_exactly_zero():
    model = identity_model(5, 0.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u, v = rng.normal(size=5), rng.normal(size=5)
        assert plda_score(model, u, v) == 0.0


def test_score_closed_form_d1():
    model = identity_model(1, 1.0)
    got = plda_score(model, [0.0], [0.0])
    assert got == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
    assert got == pytest.approx(integration_llr([1.0], [0.0], [0.0]), abs=1e-6)


def test_score_prefers_matching_sign():
    model = identity_model(1, 1.0)
    same = plda_score(model, [2.0], [2.0])
    flipped = plda_score(model, [2.0], [-2.0])
    assert same > flipped
    assert integration_llr([1.0], [2.0], [2.0]) > integration_llr([1.0], [2.0], [-2.0])


def test_score_matches_integration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        psi = rng.uniform(0.05, 4.0, d)
        model = PldaModel(np.zeros(d), np.eye(d), psi)
        u = rng.normal(0.0, 1.5, d)
        v = rng.normal(0.0, 1.5, d)
        assert plda_score(model, u, v) == pytest.approx(
            integration_llr(psi, u, v), abs=1e-4
        )


def test_score_symmetric_in_enroll_test():
    rng = np.random.default_rng(9)
    for _ in range(25):
        d = int(rng.integers(1, 8))
        psi = rng.uniform(0.0, 5.0, d)
        model = PldaModel(np.zeros(d), np.eye(d), psi)
        u, v = rng.normal(size=d), rng.normal(size=d)
        assert plda_score(model, u, v) == pytest.approx(
            plda_score(model, v, u), abs=1e-9
        )


def test_score_monotone_in_proximity_d1():
    # the LLR in test position is concave with its peak at enroll*(1+psi)/psi
    # (the different-speaker density decays faster than the same-speaker one)
    psi, enroll = 3.0, 2.0
    model = identity_model(1, psi)
    peak = enroll * (1.0 + psi) / psi
    offsets = [0.0, 0.2, 0.5, 1.0, 2.0]
    upper = [plda_score(model, [enroll], [peak + o]) for o in offsets]
    lower = [plda_score(model, [enroll], [peak - o]) for o in offsets]
    assert all(a > b for a, b in zip(upper, upper[1:]))
    assert all(a > b for a, b in zip(lower, lower[1:]))
    grid = np.linspace(peak - 4.0, peak + 4.0, 4001)
    values = [integration_llr([psi], [enroll], [t]) for t in grid[::200]]
    assert max(values) <= plda_score(model, [enroll], [peak]) + 1e-6


def test_score_matrix_matches_scalar():
    rng = np.random.default_rng(13)
    d = 6
    psi = rng.uniform(0.0, 3.0, d)
    model = PldaModel(np.zeros(d), np.eye(d), psi)
    enroll = rng.normal(size=(3, d))
    test = rng.normal(size=(4, d))
    matrix = plda_score_matrix(model, enroll, test)
    for i in range(3):
        for j in range(4):
            assert matrix[i, j] == pytest.approx(
                plda_score(model, enroll[i], test[j]), abs=1e-12
            )


def test_project_many_matches_project():
    rng = np.random.default_rng(21)
    d = 5
    model = PldaModel(rng.normal(size=d), rng.normal(size=(d, d)), rng.uniform(0, 2, d))
    vectors = rng.normal(size=(7, d))
    batched = project_many(model, vectors)
    for row, vec in zip(batched, vectors):
        assert row == pytest.approx(project(model, vec), abs=1e-12)


def test_cosine_basic_values():
    a = np.array([1.0, 2.0, 3.0])
    assert cosine_score(a, a) == pytest.approx(1.0)
    assert cosine_score([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert cosine_score(a, -a) == pytest.approx(-1.0)


def test_cosine_scale_invariance_and_errors():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=8), rng.normal(size=8)
    base = cosine_score(a, b)
    assert cosine_score(3.7 * a, b) == pytest.approx(base, rel=1e-12)
    assert cosine_score(a, 0.004 * b) == pytest.approx(base, rel=1e-12)
    with pytest.raises(ZeroVectorError):
        cosine_score(np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatchError):
        cosine_score(np.ones(3), np.ones(4))


def test_model_validation():
    with pytest.raises(InvalidValueError):
        PldaModel(np.zeros(2), np.eye(2), np.array([1.0, -0.5]))
    with pytest.raises(DimensionMismatchError):
        PldaModel(np.zeros(2), np.eye(3), np.ones(2))
