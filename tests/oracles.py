"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's code paths: the EER oracle enumerates
raw threshold operating points and intersects every point-pair segment with
the diagonal; the PLDA oracle integrates the latent speaker variable on a
dense grid; the F0 oracle is a frame-by-frame pure-Python loop.

The scalar scoring and ranking oracles are the per-pair code that the
library's batched paths replaced, kept verbatim so tests can require the
batched results to be bit-identical to it.
"""

import math

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def brute_force_eer(tar, non):
    """Hull-crossing EER via exhaustive threshold search.

    Builds every deterministic operating point (accept iff score >= t for
    thresholds between distinct scores and beyond the extremes), then takes
    the minimum diagonal-crossing over all point pairs, which is where the
    convex hull of achievable points meets p_fa = p_miss.
    """
    tar = np.asarray(tar, dtype=float)
    non = np.asarray(non, dtype=float)
    distinct = np.unique(np.concatenate([tar, non]))
    thresholds = [distinct[0] - 1.0]
    thresholds += [0.5 * (a + b) for a, b in zip(distinct[:-1], distinct[1:])]
    thresholds += [distinct[-1] + 1.0]
    points = []
    for t in thresholds:
        p_fa = float(np.mean(non >= t))
        p_miss = float(np.mean(tar < t))
        points.append((p_fa, p_miss))
    best = None
    for x, y in points:
        if x == y:
            best = x if best is None else min(best, x)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            x1, y1 = points[i]
            x2, y2 = points[j]
            d1 = x1 - y1
            d2 = x2 - y2
            if d1 == d2:
                continue
            lam = d2 / (d2 - d1)
            if 0.0 <= lam <= 1.0:
                value = lam * x1 + (1.0 - lam) * x2
                best = value if best is None else min(best, value)
    return best


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def integration_llr(psi, enroll, test, n_grid=40001):
    """Same/different log-likelihood ratio by latent-variable quadrature.

    Same-speaker likelihood integrates N(z; 0, psi) N(u; z, 1) N(v; z, 1)
    over a dense grid per dimension; the different-speaker likelihood
    factorizes into two N(.; 0, 1 + psi) terms.
    """
    total = 0.0
    for p, u, v in zip(np.atleast_1d(psi), np.atleast_1d(enroll), np.atleast_1d(test)):
        if p == 0.0:
            continue  # both hypotheses collapse to N(.; 0, 1)
        half = 8.0 * max(1.0, math.sqrt(p)) + abs(u) + abs(v)
        z = np.linspace(-half, half, n_grid)
        same = _trapezoid(
            _normal_pdf(z, 0.0, p) * _normal_pdf(u, z, 1.0) * _normal_pdf(v, z, 1.0), z
        )
        diff = _normal_pdf(u, 0.0, 1.0 + p) * _normal_pdf(v, 0.0, 1.0 + p)
        total += math.log(same) - math.log(diff)
    return total


def transform_frames(values, src_mean, src_std, tgt_mean, tgt_std):
    """Frame-by-frame pure-Python transform of a contour to target stats."""
    out = []
    for value in values:
        if value <= 0.0:
            out.append(0.0)
        else:
            ratio = 0.0 if src_std == 0.0 else tgt_std / src_std
            out.append(math.exp(tgt_mean + ratio * (math.log(value) - src_mean)))
    return out


def two_pass_log_stats(values):
    """Two-pass mean/population-std of ln(F0) over voiced frames."""
    voiced = [math.log(v) for v in values if v > 0.0]
    mean = sum(voiced) / len(voiced)
    var = sum((x - mean) ** 2 for x in voiced) / len(voiced)
    return mean, math.sqrt(var), len(voiced)


def cllr_direct(tar, non):
    """Direct evaluation of the Cllr definition in bits."""
    c_tar = sum(math.log2(1.0 + math.exp(-s)) for s in tar) / len(tar)
    c_non = sum(math.log2(1.0 + math.exp(s)) for s in non) / len(non)
    return 0.5 * (c_tar + c_non)


def reference_llr_matrix(model, enroll_latents, test_latents):
    """PLDA LLR matrix exactly as the scalar ``plda_score`` (one pair as a
    1x1 matrix) and the per-source ranking (one 1xn row) computed it."""
    e = np.asarray(enroll_latents, dtype=np.float64)
    t = np.asarray(test_latents, dtype=np.float64)
    psi = model.psi
    a = psi / (psi + 1.0)
    v_same = 1.0 + a
    v_diff = 1.0 + psi
    const = 0.5 * float(np.sum(np.log(v_diff / v_same)))
    test_part = (t * t) @ (0.5 / v_diff - 0.5 / v_same)
    enroll_part = (e * e) @ (-0.5 * a * a / v_same)
    cross = (e * (a / v_same)) @ t.T
    return cross + enroll_part[:, None] + test_part[None, :] + const


def scalar_plda_score(model, enroll, test):
    """One trial's PLDA LLR, the way ``plda_score`` computed it per pair."""
    e = np.asarray(enroll, dtype=np.float64)
    t = np.asarray(test, dtype=np.float64)
    return float(reference_llr_matrix(model, e[None, :], t[None, :])[0, 0])


def scalar_cosine_scores(source, members):
    """Cosine of the source against each member row, one pair at a time."""
    va = np.asarray(source, dtype=np.float64)
    out = []
    for vb in members:
        na = float(np.linalg.norm(va))
        nb = float(np.linalg.norm(vb))
        out.append(float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0)))
    return np.array(out)


def sorted_ranking(scores, ids, k):
    """The k lowest-scoring ids, ties broken by id, via sorted(zip(...))."""
    order = sorted(zip(np.asarray(scores).tolist(), ids))
    return [sid for _, sid in order[:k]]


def rank_furthest_scalar(pool_subset, source_xvector, cfg):
    """``rank_furthest`` as the per-source, uncached code computed it."""
    from pseudovox.plda import project, project_many
    from pseudovox.selection import Scorer

    source = np.asarray(source_xvector, dtype=np.float64)
    members = np.stack([s.mean_embedding for s in pool_subset.speakers])
    if cfg.scorer is Scorer.PLDA:
        model = pool_subset.plda
        src = project(model, source, length_norm=cfg.length_norm)
        latents = project_many(model, members, length_norm=cfg.length_norm)
        scores = reference_llr_matrix(model, src[None, :], latents)[0]
    else:
        scores = scalar_cosine_scores(source, members)
    return sorted_ranking(scores, [s.speaker_id for s in pool_subset.speakers], cfg.k_far)
