import math

import numpy as np
import pytest

from pseudovox.errors import (
    DegenerateSourceStatsError,
    EmptySpeakerSetError,
    InvalidValueError,
    NoVoicedFramesError,
)
from pseudovox.f0 import (
    F0Contour,
    LogF0Stats,
    aggregate_target_stats,
    compute_log_f0_stats,
    transform_contour,
)

from oracles import transform_frames, two_pass_log_stats


def test_stats_hand_example():
    stats = compute_log_f0_stats(F0Contour("u", [100.0, 0.0, 400.0]))
    assert stats.mean == pytest.approx(math.log(200.0), abs=1e-12)
    assert stats.std == pytest.approx(math.log(2.0), abs=1e-12)
    assert stats.voiced_frame_count == 2
    mean, std, count = two_pass_log_stats([100.0, 0.0, 400.0])
    assert stats.mean == pytest.approx(mean, abs=1e-12)
    assert stats.std == pytest.approx(std, abs=1e-12)
    assert stats.voiced_frame_count == count


def test_stats_constant_contour():
    stats = compute_log_f0_stats(F0Contour("u", [150.0, 150.0, 150.0]))
    assert stats.mean == pytest.approx(math.log(150.0))
    assert stats.std == 0.0
    assert stats.voiced_frame_count == 3


def test_stats_no_voiced_frames():
    with pytest.raises(NoVoicedFramesError):
        compute_log_f0_stats(F0Contour("u", [0.0, 0.0]))


def test_stats_random_against_two_pass_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        values = rng.uniform(60.0, 400.0, rng.integers(2, 40))
        values[rng.random(values.size) < 0.2] = 0.0
        if not (values > 0).any():
            values[0] = 100.0
        stats = compute_log_f0_stats(F0Contour("u", values))
        mean, std, count = two_pass_log_stats(values.tolist())
        assert stats.mean == pytest.approx(mean, abs=1e-10)
        assert stats.std == pytest.approx(std, abs=1e-10)
        assert stats.voiced_frame_count == count


def test_transform_closed_form_example():
    contour = F0Contour("u", [100.0, 0.0, 400.0])
    source = compute_log_f0_stats(contour)
    target = LogF0Stats(math.log(300.0), math.log(2.0) / 2.0, 5)
    out = transform_contour(contour, source, target)
    expected = [300.0 / math.sqrt(2.0), 0.0, 300.0 * math.sqrt(2.0)]
    assert out.values == pytest.approx(expected, rel=1e-9)
    oracle = transform_frames(
        [100.0, 0.0, 400.0], source.mean, source.std, target.mean, target.std
    )
    assert out.values == pytest.approx(oracle, rel=1e-12)


def test_transform_identity_when_source_equals_target():
    contour = F0Contour("u", [100.0, 0.0, 400.0, 123.4])
    stats = compute_log_f0_stats(contour)
    out = transform_contour(contour, stats, stats)
    assert out.values == pytest.approx(contour.values, rel=1e-12)


def test_transform_unit_ratio_zero_shift():
    contour = F0Contour("u", [100.0, 0.0, 400.0])
    source = compute_log_f0_stats(contour)
    target = LogF0Stats(source.mean, source.std, 9)
    out = transform_contour(contour, source, target)
    assert out.values == pytest.approx(contour.values, rel=1e-12)


def test_transform_stat_matching_and_unvoiced_preservation():
    rng = np.random.default_rng(11)
    for _ in range(100):
        values = rng.uniform(60.0, 400.0, rng.integers(3, 60))
        values[rng.random(values.size) < 0.3] = 0.0
        values[0] = 80.0
        values[1] = 300.0  # two distinct voiced values keep std > 0
        contour = F0Contour("u", values)
        source = compute_log_f0_stats(contour)
        target = LogF0Stats(rng.uniform(4.0, 6.0), rng.uniform(0.01, 0.8), 3)
        out = transform_contour(contour, source, target)
        new_stats = compute_log_f0_stats(out)
        assert new_stats.mean == pytest.approx(target.mean, abs=1e-9)
        assert new_stats.std == pytest.approx(target.std, abs=1e-9)
        assert np.array_equal(out.values == 0.0, values == 0.0)
        assert np.all(out.values[out.values != 0.0] > 0.0)


def test_transform_preserves_rank_order():
    rng = np.random.default_rng(3)
    values = rng.uniform(60.0, 400.0, 30)
    contour = F0Contour("u", values)
    source = compute_log_f0_stats(contour)
    target = LogF0Stats(5.5, 0.4, 2)
    out = transform_contour(contour, source, target)
    assert np.array_equal(np.argsort(values), np.argsort(out.values))


def test_transform_composition():
    rng = np.random.default_rng(17)
    values = rng.uniform(80.0, 350.0, 40)
    values[::7] = 0.0
    contour = F0Contour("u", values)
    a = compute_log_f0_stats(contour)
    b = LogF0Stats(5.0, 0.3, 4)
    c = LogF0Stats(5.6, 0.12, 4)
    via_b = transform_contour(transform_contour(contour, a, b), b, c)
    direct = transform_contour(contour, a, c)
    mask = contour.voiced_mask
    assert via_b.values[mask] == pytest.approx(direct.values[mask], rel=1e-9)


def test_transform_degenerate_source_stats():
    contour = F0Contour("u", [150.0, 150.0])
    flat = compute_log_f0_stats(contour)
    with pytest.raises(DegenerateSourceStatsError):
        transform_contour(contour, flat, LogF0Stats(5.0, 0.5, 2))
    # both spreads zero: pure relocation
    out = transform_contour(contour, flat, LogF0Stats(math.log(200.0), 0.0, 2))
    assert out.values == pytest.approx([200.0, 200.0], rel=1e-12)


@pytest.mark.filterwarnings("error")  # the overflow is refused, not warned about
@pytest.mark.parametrize("target", [LogF0Stats(1e307, 0.2, 2), LogF0Stats(5.0, 1e308, 2)],
                         ids=["mean", "spread"])
def test_transform_refuses_frames_that_are_not_finite(target):
    contour = F0Contour("u", [100.0, 0.0, 400.0])
    with pytest.raises(InvalidValueError, match="^utterance 'u': its transformed F0 is not finite$"):
        transform_contour(contour, LogF0Stats(5.0, 1e-300, 2), target)


def test_aggregate_examples():
    a = LogF0Stats(5.0, 0.2, 10)
    b = LogF0Stats(6.0, 0.4, 30)
    agg = aggregate_target_stats([a, b])
    assert agg.mean == pytest.approx(5.5)
    assert agg.std == pytest.approx(0.3)
    assert agg.voiced_frame_count == 40
    assert aggregate_target_stats([a]) == LogF0Stats(5.0, 0.2, 10)
    hundred = aggregate_target_stats([a] * 100)
    assert hundred.mean == pytest.approx(a.mean)
    assert hundred.std == pytest.approx(a.std)
    assert hundred.voiced_frame_count == 1000


def test_aggregate_empty_raises():
    with pytest.raises(EmptySpeakerSetError):
        aggregate_target_stats([])


def test_contour_validation():
    with pytest.raises(InvalidValueError):
        F0Contour("u", [1.0, -2.0])
    with pytest.raises(InvalidValueError):
        F0Contour("u", [1.0, float("nan")])
    with pytest.raises(InvalidValueError):
        F0Contour("", [1.0])
    with pytest.raises(InvalidValueError):
        LogF0Stats(float("inf"), 0.1, 1)
    with pytest.raises(InvalidValueError):
        LogF0Stats(5.0, -0.1, 1)
