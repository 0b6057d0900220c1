"""Output checks of the workloads, written without ``pseudovox``.

Every pass is checked by hash: each output file's SHA-256 must equal the
first pass of the run, and for the default seed the value recorded in
``expected_sha256.json``; every ``*_sha256_*`` manifest entry must equal the
hash of the file it names.  The first pass of a run is also checked against
an independent recomputation (selection, F0 targets, PLDA scores, metric
bounds), so a seed without recorded hashes is still checked for meaning.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

EXPECTED = Path(__file__).with_name("expected_sha256.json")
DEFAULT_SEED = 0
# Output hashes are recorded for seeds 0 .. RECORDED_SEEDS - 1, and ``run.py``
# takes ``--seed`` modulo this, so every run is checked against recorded bytes.
RECORDED_SEEDS = 16
TOL = 1e-9  # the package's own oracle tolerance for F0 statistics


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def expected_hashes(workload: str, seed: int) -> dict[str, str] | None:
    """The recorded SHA-256 of each output of ``workload`` for ``seed``, if any."""
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    return recorded.get(str(seed), {}).get(workload)


def _keyvalues(path: Path) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in path.read_text().splitlines())


def check_manifests(out: Path, inputs: Path, manifests: list[str], hashes: dict[str, str]) -> list[str]:
    """Every hash a manifest records must match the file it names."""
    problems = []
    for manifest in manifests:
        for key, value in _keyvalues(out / manifest).items():
            for prefix in ("output_sha256_", "input_sha256_"):
                if not key.startswith(prefix):
                    continue
                name = key.removeprefix(prefix) + ".txt"
                actual = hashes.get(name) or (
                    sha256_file(inputs / name) if (inputs / name).exists() else None
                )
                if actual != value:
                    problems.append(f"{manifest}: {key} does not match {name}")
    return problems


# --- independent recomputation ----------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64(x: int) -> int:
    return _finalize((x + _GOLDEN) & _MASK64)


def seed_for_speaker(global_seed: int, speaker_id: str) -> int:
    h = 0xCBF29CE484222325
    for b in speaker_id.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return _mix64(_mix64(global_seed & _MASK64) ^ h)


def draw(items: list[str], k: int, seed: int) -> list[str]:
    """Partial Fisher-Yates driven by SplitMix64 with rejection-free bounds."""
    pool = list(items)
    state = seed & _MASK64
    for i in range(k):
        n = len(pool) - i
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            state = (state + _GOLDEN) & _MASK64
            v = _finalize(state)
            if v < limit:
                break
        j = i + v % n
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def _reals(tokens: list[str]) -> np.ndarray:
    return np.array(tokens, dtype=np.float64)


def read_plda(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = [line.split() for line in path.read_text().splitlines()]
    dim = int(rows[0][1])
    mean = _reals(rows[1][1:])
    transform = np.array([r[1:] for r in rows[2 : 2 + dim]], dtype=np.float64)
    return mean, transform, _reals(rows[2 + dim][1:])


def project(plda, vectors: np.ndarray) -> np.ndarray:
    """Length-normalize to norm sqrt(d), centre, and map to the latent space."""
    mean, transform, _ = plda
    norms = np.linalg.norm(vectors, axis=1)
    v = vectors * (np.sqrt(vectors.shape[1]) / norms)[:, None]
    return (v - mean) @ transform.T


def llr(plda, enroll: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Single-enrollment two-covariance PLDA log-likelihood ratios."""
    psi = plda[2]
    a = psi / (psi + 1.0)
    v_same, v_diff = 1.0 + a, 1.0 + psi
    const = 0.5 * float(np.sum(np.log(v_diff / v_same)))
    test_part = (test * test) @ (0.5 / v_diff - 0.5 / v_same)
    enroll_part = (enroll * enroll) @ (-0.5 * a * a / v_same)
    return (enroll * (a / v_same)) @ test.T + enroll_part[:, None] + test_part[None, :] + const


def _log_stats(values: np.ndarray) -> tuple[float, float]:
    logs = np.log(values[values > 0.0])
    return float(logs.mean()), float(logs.std())


def _rows(path: Path) -> list[list[str]]:
    return [line.split() for line in path.read_text().splitlines()]


def check_anonymize(seed: int, inputs: Path, out: Path) -> list[str]:
    plda = read_plda(inputs / "plda.txt")
    pool = _rows(inputs / "pool.txt")
    pool_ids = [r[0] for r in pool]
    pool_gender = {r[0]: r[1] for r in pool}
    pool_vec = {r[0]: _reals(r[2:-4]) for r in pool}
    pool_f0 = {r[0]: (float(r[-3]), float(r[-2]), int(r[-1])) for r in pool}
    sources: dict[str, list[np.ndarray]] = {}
    gender, utts = {}, {}
    for r in _rows(inputs / "embeddings.txt"):
        sources.setdefault(r[0], []).append(_reals(r[3:]))
        gender[r[0]] = r[2]
        utts.setdefault(r[0], []).append(r[1])
    contours = {r[0]: _reals(r[1:]) for r in _rows(inputs / "contours.txt")}

    problems = []
    mapping = {r[0]: (int(r[1]), r[2:]) for r in _rows(out / "mapping.txt")}
    xvectors = {r[0]: _reals(r[3:]) for r in _rows(out / "pseudo_xvectors.txt")}
    stats = {r[0]: (float(r[1]), float(r[2]), int(r[3])) for r in _rows(out / "pseudo_f0_stats.txt")}
    anon = {r[0]: _reals(r[1:]) for r in _rows(out / "contours_anon.txt")}
    if set(mapping) != set(sources) or set(anon) != set(contours):
        return ["anonymize: outputs do not cover every source speaker and utterance"]
    candidates = {g: [p for p in pool_ids if pool_gender[p] == g] for g in "MF"}
    latents = {g: project(plda, np.stack([pool_vec[p] for p in ids])) for g, ids in candidates.items()}
    for speaker, vectors in sources.items():
        seed_used, members = mapping[speaker]
        g = gender[speaker]
        source = np.mean(vectors, axis=0)
        scores = llr(plda, project(plda, source[None, :]), latents[g])[0]
        ranked = [sid for _, sid in sorted(zip(scores.tolist(), candidates[g]))][: wl.K_FAR]
        expected_seed = seed_for_speaker(seed, speaker)
        if seed_used != expected_seed or members != sorted(draw(ranked, wl.K_SEL, expected_seed)):
            problems.append(f"anonymize: {speaker} maps to other members than the 200-furthest draw")
            continue
        if not np.allclose(xvectors[speaker], np.mean([pool_vec[m] for m in members], axis=0), rtol=TOL, atol=TOL):
            problems.append(f"anonymize: pseudo x-vector of {speaker} is not its members' mean")
        target = (
            float(np.mean([pool_f0[m][0] for m in members])),
            float(np.mean([pool_f0[m][1] for m in members])),
            sum(pool_f0[m][2] for m in members),
        )
        if not (math.isclose(stats[speaker][0], target[0], abs_tol=TOL)
                and math.isclose(stats[speaker][1], target[1], abs_tol=TOL)
                and stats[speaker][2] == target[2]):
            problems.append(f"anonymize: F0 target of {speaker} is not its members' aggregate")
        for utt in utts[speaker]:
            before, after = contours[utt], anon[utt]
            if after.shape != before.shape or not np.array_equal(before == 0.0, after == 0.0):
                problems.append(f"anonymize: {utt} changed its unvoiced frames")
                continue
            mean, std = _log_stats(after)
            if abs(mean - target[0]) > TOL or abs(std - target[1]) > TOL:
                problems.append(f"anonymize: {utt} misses its F0 target statistics")
    return problems


def _report(path: Path) -> dict[str, float]:
    return {k: float(v) for k, v in _keyvalues(path).items()}


def _report_problems(name: str, report: dict[str, float], n_target: int, n_nontarget: int) -> list[str]:
    problems = []
    if (report["n_target_trials"], report["n_nontarget_trials"]) != (n_target, n_nontarget):
        problems.append(f"{name}: report trial counts disagree with the trial key")
    if not 0.0 < report["eer_pct"] < 50.0:
        problems.append(f"{name}: EER {report['eer_pct']} % outside (0, 50)")
    if not 0.0 <= report["min_cllr_bits"] <= report["cllr_bits"] + TOL:
        problems.append(f"{name}: min-Cllr is not within [0, Cllr]")
    return problems


def score_eval_llrs(inputs: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Enrolled speakers, test utterances and the oracle LLR matrix."""
    plda = read_plda(inputs / "plda.txt")
    enroll: dict[str, list[np.ndarray]] = {}
    for r in _rows(inputs / "enroll.txt"):
        enroll.setdefault(r[0], []).append(_reals(r[3:]))
    tests = _rows(inputs / "trial_embeddings.txt")
    speakers = sorted(enroll)
    e = np.stack([project(plda, np.stack(enroll[s])).mean(axis=0) for s in speakers])
    t = project(plda, np.stack([_reals(r[3:]) for r in tests]))
    return speakers, [r[1] for r in tests], llr(plda, e, t)


def check_score_eval(seed: int, inputs: Path, out: Path) -> list[str]:
    speakers, tests, oracle = score_eval_llrs(inputs)
    index_e = {s: i for i, s in enumerate(speakers)}
    index_t = {u: j for j, u in enumerate(tests)}
    key = sorted((r[0], r[1], r[2]) for r in _rows(inputs / "trial_key.txt"))
    rows = _rows(out / "scores.txt")
    problems = []
    if [(r[0], r[1]) for r in rows] != [(e, t) for e, t, _ in key]:
        return ["score: scores.txt does not list the trial key's pairs in sorted order"]
    got = np.array([float(r[2]) for r in rows])
    want = np.array([oracle[index_e[e], index_t[t]] for e, t, _ in key])
    if not np.allclose(got, want, rtol=TOL, atol=TOL):
        problems.append("score: scores differ from the PLDA oracle")
    n_target = sum(label == "target" for _, _, label in key)
    report = _report(out / "report.txt")
    problems += _report_problems("eval", report, n_target, len(key) - n_target)
    det = np.array([[float(x) for x in line.split()] for line in (out / "det.txt").read_text().splitlines()])
    p_fa, p_miss = det[:, 0], det[:, 1]
    if det.min() < 0.0 or det.max() > 1.0 or np.any(np.diff(p_fa) < 0) or np.any(np.diff(p_miss) > 0):
        problems.append("eval: DET points are not monotone rates")
    # The ROC convex hull lies between the DET points' mean error and their max error.
    eer = report["eer_pct"] / 100.0
    if not float(np.min((p_fa + p_miss) / 2)) - TOL <= eer <= float(np.min(np.maximum(p_fa, p_miss))) + TOL:
        problems.append("eval: EER is inconsistent with the DET points")
    return problems


def check_simulate(seed: int, inputs: Path, out: Path) -> list[str]:
    problems = []
    manifest = _keyvalues(out / "manifest.txt")
    expected_trials = 2 * wl.SIM_SPEAKERS_PER_GENDER * 2 * wl.SIM_SPEAKERS_PER_GENDER * 4
    if int(manifest["n_trials"]) != expected_trials:
        problems.append(f"simulate: {manifest['n_trials']} trials, expected {expected_trials}")
    scores = (out / "scores.txt").read_text().splitlines()
    trials = (out / "trials.txt").read_text().splitlines()
    if len(scores) != expected_trials or [s.rsplit(" ", 1)[0] for s in scores] != [
        t.rsplit(" ", 1)[0] for t in trials
    ]:
        problems.append("simulate: scores.txt and trials.txt list different trials")
    n_target = sum(t.endswith(" target") for t in trials)
    report = _report(out / "report.txt")
    problems += _report_problems("simulate", report, n_target, len(trials) - n_target)
    return problems


SEMANTIC = {
    "anonymize-paper": check_anonymize,
    "score-eval": check_score_eval,
    "simulate-aa": check_simulate,
}
