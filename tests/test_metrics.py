import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudovox import metrics
from pseudovox.errors import EmptyPopulationError, InvalidValueError
from pseudovox.metrics import (
    EvalReport,
    TrialScoreSet,
    cllr,
    det_points,
    eer,
    evaluate,
    min_cllr,
)

import oracles
from oracles import brute_force_eer, cllr_direct


def scores(tar, non):
    return TrialScoreSet(np.asarray(tar, float), np.asarray(non, float))


def test_eer_separated():
    assert eer(scores([2.0, 3.0], [0.0, 1.0])) == 0.0


def test_eer_fully_overlapping():
    s = scores([0.0, 1.0], [0.0, 1.0])
    assert eer(s) == pytest.approx(0.5, abs=1e-12)
    assert eer(s) == pytest.approx(brute_force_eer([0.0, 1.0], [0.0, 1.0]), abs=1e-12)


def test_eer_single_target_between_nontargets():
    # hull of the achievable points crosses the diagonal at 1/3 here
    s = scores([1.0], [0.0, 2.0])
    oracle = brute_force_eer([1.0], [0.0, 2.0])
    assert oracle == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert eer(s) == pytest.approx(oracle, abs=1e-9)


def test_eer_matches_oracle_on_random_small_sets():
    rng = np.random.default_rng(23)
    grid = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
    for _ in range(300):
        tar = rng.choice(grid, rng.integers(1, 7))
        non = rng.choice(grid, rng.integers(1, 7))
        assert eer(scores(tar, non)) == pytest.approx(
            brute_force_eer(tar, non), abs=1e-9
        )


def test_eer_bounds_and_label_swap():
    rng = np.random.default_rng(29)
    for _ in range(100):
        tar = rng.normal(size=rng.integers(1, 20))
        non = rng.normal(size=rng.integers(1, 20))
        value = eer(scores(tar, non))
        assert 0.0 <= value <= 0.5
        swapped = eer(scores(-non, -tar))
        assert value == pytest.approx(swapped, abs=1e-9)


def test_cllr_all_zero_scores_is_one_bit():
    assert cllr(scores([0.0, 0.0], [0.0])) == 1.0


def test_cllr_saturated_scores_vanish():
    assert cllr(scores([40.0], [-40.0])) <= 1e-10


def test_cllr_direct_formula_example():
    # 0.5 * [log2(1 + e^2) + log2(1 + e^1)] in bits
    expected = 0.5 * (math.log2(1.0 + math.e**2) + math.log2(1.0 + math.e))
    got = cllr(scores([-2.0], [1.0]))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(cllr_direct([-2.0], [1.0]), abs=1e-12)


@pytest.mark.filterwarnings("error")  # a RuntimeWarning fails the test
def test_cllr_whose_sum_overflows_is_refused():
    """Each term is finite but their sum is not: refused, with no warning."""
    overflowing = scores([-1e308, -1e308], [0.0, 0.0])
    for metric in (cllr, evaluate):
        with pytest.raises(InvalidValueError, match="Cllr overflows float64"):
            metric(overflowing)
    largest = cllr(scores([-1e308], [0.0]))  # one such term still fits
    assert largest == 0.5 * (1e308 + math.log(2.0)) / math.log(2.0)


def test_cllr_not_invariant_under_scaling():
    s = scores([0.5, 1.5], [-1.0, 0.2])
    doubled = scores([1.0, 3.0], [-2.0, 0.4])
    assert abs(cllr(s) - cllr(doubled)) > 1e-6


def test_min_cllr_perfectly_separated():
    assert min_cllr(scores([5.0, 6.0], [1.0, 2.0])) < 1e-9


def test_min_cllr_label_independent_scores():
    # brute force over monotone step calibrations a <= b on this 4-point set
    grid = np.linspace(-10.0, 10.0, 401)
    best = math.inf
    for i, a in enumerate(grid):
        for b in grid[i:]:
            value = cllr_direct([a, b], [a, b])
            best = min(best, value)
    got = min_cllr(scores([1.0, 3.0], [1.0, 3.0]))
    assert got == pytest.approx(1.0, abs=1e-9)
    assert got <= best + 1e-9


def test_min_cllr_never_exceeds_cllr_or_one_bit():
    rng = np.random.default_rng(31)
    for _ in range(300):
        tar = rng.normal(1.0, 2.0, rng.integers(1, 30))
        non = rng.normal(-1.0, 2.0, rng.integers(1, 30))
        s = scores(tar, non)
        mc = min_cllr(s)
        assert mc <= cllr(s) + 1e-9
        assert 0.0 <= mc <= 1.0 + 1e-9


def _monotone_transforms(rng):
    a = float(rng.uniform(0.2, 3.0))
    b = float(rng.normal())
    return [
        lambda x: a * x + b,
        lambda x: x + x**3 / 50.0,
        np.arctan,
        lambda x: np.sinh(x / 4.0),
    ]


def test_rank_metrics_invariant_under_monotone_transforms():
    rng = np.random.default_rng(37)
    tar = rng.normal(0.8, 1.0, 25)
    non = rng.normal(-0.8, 1.0, 40)
    s = scores(tar, non)
    base_eer = eer(s)
    base_min_cllr = min_cllr(s)
    base_det = det_points(s)
    for fn in _monotone_transforms(rng):
        t = scores(fn(tar), fn(non))
        assert eer(t) == pytest.approx(base_eer, abs=1e-9)
        assert min_cllr(t) == pytest.approx(base_min_cllr, abs=1e-9)
        assert det_points(t) == base_det


def test_det_points_examples():
    pts = det_points(scores([1.0], [0.0]))
    assert (0.0, 0.0) in pts
    assert pts[0] == (0.0, 1.0)
    assert pts[-1] == (1.0, 0.0)

    pts = det_points(scores([0.0, 1.0], [0.0, 1.0]))
    assert pts == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    mirrored = [(y, x) for x, y in reversed(pts)]
    assert pts == mirrored  # symmetric about the diagonal

    fas = [p for p, _ in pts]
    assert fas == sorted(fas)
    assert len(set(pts)) == len(pts)


def test_empty_populations_raise():
    for bad in (scores([], [1.0]), scores([1.0], []), scores([], [])):
        for fn in (eer, cllr, min_cllr, det_points, evaluate):
            with pytest.raises(EmptyPopulationError):
                fn(bad)


def test_nonfinite_scores_rejected():
    with pytest.raises(InvalidValueError):
        scores([float("nan")], [0.0])
    with pytest.raises(InvalidValueError):
        scores([1.0], [float("inf")])


def test_evaluate_report_fields():
    report = evaluate(scores([2.0, 3.0], [-1.0, 0.0, 1.0]))
    assert report.eer_pct == 0.0
    assert report.n_target_trials == 2
    assert report.n_nontarget_trials == 3
    assert report.min_cllr_bits <= report.cllr_bits + 1e-9
    assert report.eer == report.eer_pct / 100.0


def test_evaluate_fits_pav_once(monkeypatch):
    calls = []
    real = metrics._pav_blocks
    monkeypatch.setattr(metrics, "_pav_blocks", lambda *a: calls.append(1) or real(*a))
    rng = np.random.default_rng(3)
    evaluate(scores(rng.normal(1.0, 1.0, 300).round(1), rng.normal(0.0, 1.0, 900).round(1)))
    assert len(calls) == 1


# few distinct values, so ties and PAV merges are common
SCORES = st.lists(st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0, 40.0]) | st.floats(-50, 50), min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(SCORES, SCORES)
def test_evaluate_equals_the_separate_metrics(tar, non):
    s = scores(tar, non)
    assert evaluate(s) == EvalReport(100.0 * eer(s), cllr(s), min_cllr(s), len(tar), len(non))


# --- the one sweep equals the loops it replaced (tests/oracles.py) ------------

TIED = st.sampled_from([-3.0, -1.0, 0.0, 0.25, 1.0, 2.0])
EXTREME = st.sampled_from([5e-324, 1e-300, 1e-30, 1e30, 1e300]).flatmap(
    lambda x: st.sampled_from([x, -x])
)
ANY = TIED | EXTREME | st.floats(-50, 50)


def sides(values, max_size=40):
    return st.tuples(
        st.lists(values, min_size=1, max_size=max_size),
        st.lists(values, min_size=1, max_size=max_size),
    )


@st.composite
def all_tied(draw):
    value = draw(ANY)
    return [value] * draw(st.integers(1, 20)), [value] * draw(st.integers(1, 20))


@st.composite
def separated(draw):
    """Every target above every nontarget, or every target below."""
    distinct = sorted(set(draw(st.lists(ANY, min_size=2, max_size=40))))
    if len(distinct) < 2:
        distinct = [0.0, 1.0]
    cut = draw(st.integers(1, len(distinct) - 1))
    low, high = distinct[:cut], distinct[cut:]
    low = draw(st.lists(st.sampled_from(low), min_size=1, max_size=20))
    high = draw(st.lists(st.sampled_from(high), min_size=1, max_size=20))
    return (high, low) if draw(st.booleans()) else (low, high)


TRIAL_SETS = st.one_of(
    sides(TIED),  # heavy ties: PAV merges and tied groups everywhere
    all_tied(),
    sides(ANY, max_size=1),  # one target, one nontarget
    separated(),
    sides(EXTREME),  # tiny and huge magnitudes
    sides(ANY),
)


def exact(points):
    return repr([(float(x), float(y)) for x, y in points])


@settings(max_examples=500, deadline=None)
@given(TRIAL_SETS)
def test_metrics_equal_the_loop_oracles(trial_set):
    tar, non = (np.asarray(side, float) for side in trial_set)
    s = scores(tar, non)
    assert repr(evaluate(s)) == repr(oracles.loop_evaluate(tar, non))
    assert repr(eer(s)) == repr(oracles.loop_eer(tar, non))
    assert repr(min_cllr(s)) == repr(oracles.loop_min_cllr(tar, non))
    assert exact(det_points(s)) == exact(oracles.loop_det_points(tar, non))


def test_metrics_equal_the_loop_oracles_on_a_large_overlapping_set():
    rng = np.random.default_rng(5)
    tar = rng.normal(1.0, 1.0, 20_000).round(2)
    non = rng.normal(-1.0, 1.0, 60_000).round(2)
    s = scores(tar, non)
    assert repr(evaluate(s)) == repr(oracles.loop_evaluate(tar, non))
    assert exact(det_points(s)) == exact(oracles.loop_det_points(tar, non))
