"""Self-tests of the benchmark's own code (not of the package).

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import numpy as np
import pytest

import run  # first: pins the BLAS threads before NumPy loads
import checks
import spans
import workloads as wl

sys.path.insert(0, str(run.SRC))

from pseudovox import concurrency, f0, metrics, plda, selection  # noqa: E402

S = spans.Span


def test_self_time_on_a_tree_with_overlapping_worker_children():
    tree = [
        S(1, 0, "cli", "anonymize", 0.0, 10.0, 1),
        S(2, 1, "formats", "parse_pool", 1.0, 3.0, 100),
        S(3, 1, "concurrency", "parallel_map", 4.0, 9.0, 2),
        S(4, 3, "cli", "item", 4.0, 8.0, 1),  # worker thread A
        S(5, 3, "cli", "item", 5.0, 9.0, 1),  # worker thread B, overlapping A
        S(6, 4, "selection", "derive_pseudo_speaker", 4.5, 7.5, 1),
        S(7, 6, "selection", "rank_furthest", 5.0, 7.0, 1),
        S(8, 7, "plda", "project_many", 5.0, 6.0, 600),
    ]
    assert spans.self_times(tree) == pytest.approx(
        # the map span is covered by the union [4, 9] of its items, not their sum 8
        {1: 3.0, 2: 2.0, 3: 0.0, 4: 1.0, 5: 4.0, 6: 1.0, 7: 1.0, 8: 1.0}
    )
    tracer = spans.Tracer()
    tracer.spans = tree
    tracer.map_threads = {3: 2}
    got = {k: v for k, (v, _) in spans.layer_metrics(tracer).items()}
    assert got["cli.command_s"] == 10.0
    assert got["cli.self_s"] == pytest.approx(3.0 + 1.0 + 4.0)
    assert got["selection.self_s"] == pytest.approx(2.0)
    assert got["selection.derive_s"] == 3.0 and got["selection.rank_s"] == 2.0
    assert got["plda.project_rows"] == 600 and got["plda.project_s"] == 1.0
    assert got["concurrency.map_s"] == 5.0 and got["concurrency.items"] == 2
    assert got["concurrency.busy_frac"] == pytest.approx(8.0 / (5.0 * 2))
    assert got["formats.parse_mb"] == pytest.approx(100e-6)


def test_a_call_nested_in_its_own_group_counts_once():
    model = plda.PldaModel(np.zeros(3), np.eye(3), np.ones(3))
    tracer = spans.Tracer()
    tracer.install()
    try:
        plda.plda_score(model, np.ones(3), np.ones(3))  # calls plda_score_matrix
        plda.project(model, np.ones(3))  # calls length_normalize
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["plda_score", "project"]
    got = {k: v for k, (v, _) in spans.layer_metrics(tracer).items()}
    assert (got["plda.score_calls"], got["plda.score_pairs"], got["plda.project_rows"]) == (1, 1, 1)


def test_worker_thread_spans_hang_under_the_map_span():
    tracer = spans.Tracer()
    contours = [f0.F0Contour(f"u{i}", [100.0 + i, 0.0, 120.0]) for i in range(8)]
    tracer.install()
    try:
        concurrency.parallel_map(f0.compute_log_f0_stats, contours, 2)
    finally:
        tracer.uninstall()
    by_id = {s.sid: s for s in tracer.spans}
    (mapped,) = [s for s in tracer.spans if s.name == "parallel_map"]
    stats = [s for s in tracer.spans if s.name == "compute_log_f0_stats"]
    assert len(stats) == 8 and tracer.map_threads[mapped.sid] == 2
    for s in stats:
        item = by_id[s.parent]
        assert item.name == "item" and item.parent == mapped.sid


def _bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "pseudovox" or name.startswith("pseudovox.")
        for attr, value in vars(module).items()
    }


def test_wrappers_restore_every_binding(tmp_path):
    import pseudovox.cli

    before = _bindings()
    contours = tmp_path / "contours.txt"
    contours.write_text("u1 100.0 0.0 120.0\nu2 210.0 220.0 0.0\n")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pseudovox.cli.compute_log_f0_stats is not before[("pseudovox.cli", "compute_log_f0_stats")]
        step = run.run_in_process(["stats", str(contours), str(tmp_path / "stats.txt")], "stats", tracer)
    finally:
        tracer.uninstall()
    assert step.returncode == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {f"{s.layer}.{s.name}" for s in tracer.spans}
    assert {"cli.stats", "formats.parse_contours", "f0.compute_log_f0_stats", "formats.sha256_hex"} <= names


@pytest.mark.parametrize("make", [wl.make_anonymize_inputs, wl.make_score_inputs])
def test_generator_is_deterministic(tmp_path, make):
    def files(seed, name):
        return {p.name: p.read_bytes() for p in make(seed, tmp_path / name).values()}

    first = files(3, "a")
    assert files(3, "b") == first
    other = files(4, "c")
    assert all(other[name] != data for name, data in first.items())


def test_simulate_seeds_are_deterministic_and_distinct():
    assert wl.simulate_seeds(3) == wl.simulate_seeds(3) != wl.simulate_seeds(4)
    _, enroll, trial = wl.simulate_seeds(3)
    assert enroll != trial


def test_every_seed_a_run_can_use_has_recorded_hashes():
    for seed in range(checks.RECORDED_SEEDS):
        for workload in wl.WORKLOADS:
            assert checks.expected_hashes(workload, seed), (workload, seed)


def test_score_eval_eer_lies_well_inside_0_50(tmp_path):
    inputs = tmp_path / "inputs"
    wl.make_score_inputs(checks.DEFAULT_SEED, inputs)
    speakers, tests, llr = checks.score_eval_llrs(inputs)
    key = [line.split() for line in (inputs / "trial_key.txt").read_text().splitlines()]
    target = np.zeros(llr.shape, dtype=bool)
    index_t = {u: j for j, u in enumerate(tests)}
    for e, t, label in key:
        target[speakers.index(e), index_t[t]] = label == "target"
    eer = metrics.eer(metrics.TrialScoreSet(llr[target], llr[~target]))
    # overlapping populations: PAV and the ROC hull have work to do
    assert 0.02 < eer < 0.4


def test_oracles_agree_with_the_package():
    ids = [f"pool-f{i:04d}" for i in range(300)]
    for speaker in ("spk-m000", "spk-f199", "x"):
        seed = checks.seed_for_speaker(7, speaker)
        assert seed == selection.seed_for_speaker(7, speaker)
        assert checks.draw(ids, 100, seed) == selection.sample_without_replacement(ids, 100, seed)


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "score-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
