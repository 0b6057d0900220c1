"""Command-line interface: ``stats``, ``anonymize``, ``score``, ``eval``, ``simulate``.

Every subcommand is a thin shell over the library; file outputs are
byte-identical to direct library calls. Global flags (``--seed``,
``--config``, ``--threads``, ``--det-out``) are given before the subcommand::

    pseudovox --seed 7 anonymize --pool pool.txt ...

Every command runs on one thread; ``--threads`` is accepted for compatibility
and has no effect. ``--seed`` has none on ``stats``, ``score`` and ``eval``,
and a command refuses ``--det-out`` or ``--config`` when it would ignore it.

Configuration files are ``key value`` lines whose keys mirror the flag names;
flags win when both are given. Diagnostics go to stderr; the exit code is 0
iff the run produced every requested output.

Every failure ends the run in one place: the command group turns any
``PseudovoxError`` a command raises into one ``error:`` line on stderr and
exit code 1, so no command catches one to end the run itself. Every command
writes in one ``_write`` call, which builds each output text when its turn
comes and writes the manifest last.
"""

from __future__ import annotations

import enum
import errno
import os
import sys
from dataclasses import asdict, fields
from operator import eq, itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, NoReturn, TypeVar

import click
import numpy as np

from . import __version__
from .errors import (
    DimensionMismatchError,
    InvalidValueError,
    NoVoicedFramesError,
    PoolTooSmallError,
    PseudovoxError,
    ZeroVectorError,
)
from . import formats
from .f0 import F0Mode, compute_log_f0_stats
from .metrics import TrialScoreSet, det_points, evaluate
from .plda import SpeakerEmbedding, plda_score_pairs, project
from .selection import (
    GenderPolicy,
    Scorer,
    SelectionConfig,
    SpeakerPool,
    pseudonymize_speaker,
)
from .simulate import (
    AttackerModel,
    AttackModel,
    CohortSpec,
    ScenarioConfig,
    generate_cohort,
    run_scenario,
)

FORMAT_VERSION = "1"

T = TypeVar("T")


def _fail(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _read(path: str, name: str, entries: dict[str, str], parse: Callable[[str], T]) -> T:
    """Read ``path`` once: record ``input_sha256_<name>`` of its bytes and
    the file among the command's inputs, then decode and parse them; a decode
    or parse error names ``path``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    click.get_current_context().meta.setdefault("inputs", set()).add(os.path.realpath(path))
    entries[f"input_sha256_{name}"] = formats.sha256_hex(data)
    try:
        text = formats.decode_text(data)
        del data  # do not hold the raw bytes while parsing
        return parse(text)
    except PseudovoxError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _parse_utterances(text: str) -> list[SpeakerEmbedding]:
    """Parse per-utterance embeddings, each utterance id under one speaker."""
    embeddings = formats.parse_embeddings(text)
    speaker_of: dict[str, str] = {}
    for emb in embeddings:
        first = speaker_of.setdefault(emb.utterance_id, emb.speaker_id)
        if first != emb.speaker_id:
            raise InvalidValueError(
                f"utterance {emb.utterance_id!r} is listed under speakers {first!r} and {emb.speaker_id!r}"
            )
    return embeddings


def _of_dim(parse: Callable[[str], list[SpeakerEmbedding]], dim: int | None, of: str):
    """``parse``, then require ``dim`` components (one file has one dimension)."""
    def checked(text: str) -> list[SpeakerEmbedding]:
        embeddings = parse(text)
        if dim is not None and embeddings and embeddings[0].vector.size != dim:
            raise DimensionMismatchError(
                f"embedding dimension {embeddings[0].vector.size} != {of} dimension {dim}"
            )
        return embeddings

    return checked


def _write_outputs(outputs: Iterable[tuple[Path, bytes]]) -> None:
    """Write each output to a hidden temp file beside its target, then rename
    them all into place in the given order; callers put the manifest last.

    No target is touched unless every temp file was written, no target is
    a directory or an input read by ``_read``, and no two outputs resolve to
    the same file. The temp files are always removed, and so are the
    directories made here if the set is not written.
    """
    staged: list[tuple[Path, Path]] = []
    created: list[Path] = []
    targets: set[str] = set()
    inputs = click.get_current_context().meta.get("inputs", ())
    written = False
    try:
        for path, data in outputs:
            _make_dirs(path.parent, created)
            target = os.path.realpath(path)
            if target in inputs:
                raise OSError("it is an input of this command")
            if target in targets:
                raise OSError("another output of this command is the same file")
            targets.add(target)
            tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((path, tmp))
            with open(fd, "wb") as handle:
                handle.write(data)
            del data  # hold one encoded output at a time
        for path, _ in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path, tmp in staged:
            os.replace(tmp, path)
        written = True
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}")
    finally:
        for _, tmp in staged:
            tmp.unlink(missing_ok=True)
        if not written:
            for directory in reversed(created):  # deepest first, while empty
                try:
                    directory.rmdir()
                except OSError:
                    break


def _make_dirs(directory: Path, created: list[Path]) -> None:
    """Make ``directory`` and its missing parents, outermost first, appending
    each one made to ``created``."""
    missing = []
    while not directory.is_dir():
        missing.append(directory)
        directory = directory.parent
    for directory in reversed(missing):
        directory.mkdir()
        created.append(directory)


_Output = tuple[Path, Callable[[], str], bool]  # path, builder of its text, hashed in the manifest


def _write(command: str, entries: dict[str, str], outputs: list[_Output], manifest: Path | None) -> None:
    """Write ``outputs`` in order, then the manifest at ``manifest`` unless it
    is None, all in one ``_write_outputs`` call.

    Each output is its path, the builder of its text, and whether the
    manifest records its ``output_sha256_<stem>``. Each text is built when
    its turn comes, so the run holds one output text at a time.
    """
    def encoded():
        for path, build, hashed in outputs:
            data = build().encode("utf-8")
            if hashed:
                entries[f"output_sha256_{path.stem}"] = formats.sha256_hex(data)
            yield path, data
            del data  # hold one encoded output at a time
        if manifest is not None:
            base = {"format_version": FORMAT_VERSION, "package_version": __version__, "command": command}
            yield manifest, formats.serialize_keyvalues({**base, **entries}).encode("utf-8")

    _write_outputs(encoded())


def _one_file(out_file: str, build: Callable[[], str]) -> tuple[list[_Output], Path]:
    """The output of a one-file command, unhashed, and its manifest ``<out_file>.manifest``."""
    out = Path(out_file)
    return [(out, build, False)], out.with_name(out.name + ".manifest")


def _settings(config: str | None, keys: dict[str, type], command: str, flags: dict,
              entries: dict[str, str]) -> dict:
    """Config-file values converted to their types, overridden by every flag given."""
    def parse(text: str) -> dict:
        values = formats.parse_keyvalues(text)
        for key in values:
            if key not in keys:
                raise InvalidValueError(f"unknown {command} config key {key!r}")
        return {key: _convert(key, raw, keys[key]) for key, raw in values.items()}

    resolved = {} if config is None else _read(config, "config", entries, parse)
    for key, value in flags.items():
        if value is not None:
            resolved[key] = keys[key](value) if isinstance(value, str) else value
    return resolved


def _convert(key: str, raw: str, kind):
    try:
        if kind is bool:
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        return kind(raw)
    except (ValueError, PseudovoxError):
        raise InvalidValueError(f"bad value {raw!r} for key {key!r}") from None


def _build(cls, resolved: dict, **defaults):
    """A ``cls`` from the resolved settings named after its fields, over ``defaults``."""
    names = {field.name for field in fields(cls)}
    return cls(**{**defaults, **{key: value for key, value in resolved.items() if key in names}})


def _recorded(settings: dict) -> dict[str, str]:
    """Each setting as its manifest text."""
    def text(value) -> str:
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, bool):  # before int: a bool is an int
            return "true" if value else "false"
        if isinstance(value, float):
            return formats.format_float(value)
        return "none" if value is None else str(value)

    return {key: text(value) for key, value in settings.items()}


def _det_output(obj, scores: Callable[[], TrialScoreSet]) -> list[_Output]:
    """The ``--det-out`` output, if the flag was given."""
    if obj.det_out is None:
        return []
    return [(Path(obj.det_out), lambda: formats.serialize_det(det_points(scores())), False)]


class _Main(click.Group):
    """The command group, and the one failure boundary of every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PseudovoxError as exc:
            _fail(str(exc))


@click.group(cls=_Main)
@click.version_option(__version__)
@click.option("--seed", type=int, default=None,
              help="Global selection/cohort seed override; no effect on stats, score and eval.")
@click.option("--config", type=click.Path(), default=None, help="'key value' config file.")
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True, expose_value=False,
              help="Accepted for compatibility; has no effect (every command runs on one thread).")
@click.option("--det-out", type=click.Path(), default=None, help="Write DET operating points to this file.")
@click.pass_context
def main(ctx, seed, config, det_out):
    """X-vector pseudo-speaker pipeline and privacy-linkability evaluation."""
    for flag, value, users in (("--det-out", det_out, ("eval", "simulate")),
                               ("--config", config, ("anonymize", "simulate"))):
        if value is not None and ctx.invoked_subcommand not in users:
            _fail(f"{flag} has no effect on {ctx.invoked_subcommand}")
    ctx.obj = SimpleNamespace(seed=seed, config=config, det_out=det_out)


# --- stats -------------------------------------------------------------------


@main.command()
@click.argument("contours_file", type=click.Path())
@click.argument("out_stats_file", type=click.Path())
def stats(contours_file, out_stats_file):
    """Per-utterance voiced log-F0 statistics."""
    entries: dict[str, str] = {}
    contours = _read(contours_file, "contours", entries, formats.parse_contours)
    records = []
    for contour in contours:
        try:
            records.append((contour.utterance_id, compute_log_f0_stats(contour)))
        except NoVoicedFramesError:
            click.echo(
                f"warning: {contour.utterance_id} has no voiced frames, skipped",
                err=True,
            )
    entries["n_utterances"] = str(len(records))
    _write("stats", entries, *_one_file(out_stats_file, lambda: formats.serialize_stats(records)))


# --- anonymize ----------------------------------------------------------------

_ANON_CONFIG_KEYS = {
    "k_far": int,
    "k_sel": int,
    "gender_policy": GenderPolicy,
    "scorer": Scorer,
    "length_norm": bool,
    "global_seed": int,
    "f0_mode": F0Mode,
}


@main.command()
@click.option("--pool", "pool_file", type=click.Path(), required=True)
@click.option("--embeddings", "embeddings_file", type=click.Path(), required=True)
@click.option("--contours", "contours_file", type=click.Path(), required=True)
@click.option("--plda", "plda_file", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--gender", "gender_policy", type=click.Choice(["same", "opposite"]), default=None)
@click.option("--f0", "f0_mode", type=click.Choice(["original", "modified"]), default=None)
@click.option("--k-far", type=int, default=None, help="Furthest candidates kept (default 200).")
@click.option("--k-sel", type=int, default=None, help="Members drawn from them (default 100).")
@click.option("--scorer", type=click.Choice(["plda", "cosine"]), default=None)
@click.option("--length-norm/--no-length-norm", "length_norm", default=None)
@click.pass_obj
def anonymize(obj, pool_file, embeddings_file, contours_file, plda_file, out_dir, **flags):
    """Derive one pseudo-speaker per source speaker; transform F0 on request."""
    entries: dict[str, str] = {}
    resolved = _settings(
        obj.config, _ANON_CONFIG_KEYS, "anonymize", {**flags, "global_seed": obj.seed}, entries
    )
    mode = resolved.get("f0_mode", F0Mode.ORIGINAL)
    sel = _build(SelectionConfig, resolved)

    plda_model = None
    if plda_file is not None:
        plda_model = _read(plda_file, "plda", entries, formats.parse_plda)
    pool = _read(pool_file, "pool", entries,
                 lambda text: SpeakerPool(formats.parse_pool(text), plda_model))
    pool_dim = pool.speakers[0].mean_embedding.size if len(pool) else None
    embeddings = _read(embeddings_file, "embeddings", entries,
                       _of_dim(_parse_utterances, pool_dim, "pool"))
    contours = _read(contours_file, "contours", entries, formats.parse_contours)

    contour_by_utt = {c.utterance_id: c for c in contours}
    utt_ids = {e.utterance_id for e in embeddings}
    if utt_ids != set(contour_by_utt):
        odd = sorted(utt_ids.symmetric_difference(contour_by_utt))[0]
        raise InvalidValueError(f"embeddings and contours disagree on utterance {odd!r}")

    by_speaker: dict[str, list[SpeakerEmbedding]] = {}
    for emb in embeddings:
        by_speaker.setdefault(emb.speaker_id, []).append(emb)
    speakers = sorted(by_speaker)

    mapping_rows = []
    xvector_rows = []
    stats_rows = []
    contour_rows = []
    for speaker_id in speakers:
        embs = by_speaker[speaker_id]
        contours = [contour_by_utt[e.utterance_id] for e in embs]
        try:
            pseudo, anon_contours = pseudonymize_speaker(
                pool, speaker_id, embs[0].gender, [e.vector for e in embs], contours, sel, mode
            )
        except (PoolTooSmallError, InvalidValueError, ZeroVectorError) as exc:
            raise type(exc)(f"speaker {speaker_id!r}: {exc}") from None
        for contour in contours:
            if mode is F0Mode.MODIFIED and not contour.voiced_mask.any():
                click.echo(
                    f"warning: {contour.utterance_id} has no voiced frames, copied unchanged",
                    err=True,
                )
        mapping_rows.append((speaker_id, pseudo.seed_used, tuple(pseudo.member_ids)))
        xvector_rows.append(SpeakerEmbedding(speaker_id, embs[0].gender, pseudo.xvector, "pseudo"))
        stats_rows.append((speaker_id, pseudo.f0_stats))
        contour_rows.extend(anon_contours)
    del pool  # free its cached latents before the outputs are serialized

    entries.update(_recorded({**asdict(sel), "f0_mode": mode, "n_source_speakers": len(speakers)}))
    out = Path(out_dir)
    _write("anonymize", entries, [
        (out / "mapping.txt", lambda: formats.serialize_mapping(mapping_rows), True),
        (out / "pseudo_xvectors.txt", lambda: formats.serialize_embeddings(xvector_rows), True),
        (out / "pseudo_f0_stats.txt", lambda: formats.serialize_stats(stats_rows), True),
        (out / "contours_anon.txt", lambda: formats.serialize_contours(contour_rows), True),
    ], out / "manifest.txt")


# --- score --------------------------------------------------------------------


@main.command()
@click.argument("plda_file", type=click.Path())
@click.argument("enroll_file", type=click.Path())
@click.argument("trial_embeddings", type=click.Path())
@click.argument("trial_key", type=click.Path())
@click.argument("out_scores", type=click.Path())
@click.option("--length-norm/--no-length-norm", "length_norm", default=True, show_default=True)
def score(plda_file, enroll_file, trial_embeddings, trial_key, out_scores, length_norm):
    """PLDA-score every trial in the key against enrollment speakers."""
    entries = _recorded({"length_norm": length_norm})
    model = _read(plda_file, "plda", entries, formats.parse_plda)
    enroll = _read(enroll_file, "enroll", entries,
                   _of_dim(formats.parse_embeddings, model.dim, "model"))
    trials_emb = _read(trial_embeddings, "trial_embeddings", entries,
                       _of_dim(_parse_utterances, model.dim, "model"))
    key_rows = _read(trial_key, "trial_key", entries, formats.parse_trials)

    # row of each id in the stacked latents below: first-appearance order
    enroll_row = {sid: row for row, sid in enumerate(dict.fromkeys(e.speaker_id for e in enroll))}
    test_row = {e.utterance_id: row for row, e in enumerate(trials_emb)}  # the ids are unique
    for enroll_id, test_id, _ in key_rows:
        if enroll_id not in enroll_row:
            raise InvalidValueError(f"enrollment speaker {enroll_id!r} missing from {enroll_file}")
        if test_id not in test_row:
            raise InvalidValueError(f"trial utterance {test_id!r} missing from {trial_embeddings}")

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is refused below
        enroll_latents: dict[str, list[np.ndarray]] = {}
        for emb, latent in zip(enroll, _projected(model, enroll, enroll_file, length_norm)):
            enroll_latents.setdefault(emb.speaker_id, []).append(latent)
        llrs = plda_score_pairs(
            model,
            _rows([np.mean(latents, axis=0) for latents in enroll_latents.values()], model.dim),
            _rows(list(_projected(model, trials_emb, trial_embeddings, length_norm)), model.dim),
            np.array([enroll_row[e] for e, _, _ in key_rows], dtype=np.intp),
            np.array([test_row[t] for _, t, _ in key_rows], dtype=np.intp),
        )
    non_finite = np.flatnonzero(~np.isfinite(llrs))
    if non_finite.size:
        enroll_id, test_id, _ = key_rows[non_finite[0]]
        raise InvalidValueError(f"score of trial ({enroll_id!r}, {test_id!r}) is not finite")
    rows = [(e, t, llr) for (e, t, _), llr in zip(key_rows, llrs.tolist())]

    entries["n_trials"] = str(len(rows))
    _write("score", entries, *_one_file(out_scores, lambda: formats.serialize_scores(rows)))


def _projected(model, embeddings, path: str, length_norm: bool) -> Iterable[np.ndarray]:
    """The latent of each embedding read from ``path``; an error names the file and the utterance."""
    for emb in embeddings:
        try:
            yield project(model, emb, length_norm=length_norm)
        except (InvalidValueError, ZeroVectorError) as exc:
            raise type(exc)(f"{path}: utterance {emb.utterance_id!r}: {exc}") from None


def _rows(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    """Stack vectors into an (n, dim) matrix; n may be 0."""
    return np.array(vectors, dtype=np.float64).reshape(len(vectors), dim)


# --- eval ---------------------------------------------------------------------


@main.command(name="eval")
@click.argument("score_file", type=click.Path())
@click.argument("trial_key", type=click.Path())
@click.option("--out", "out_file", type=click.Path(), default=None)
@click.pass_obj
def eval_cmd(obj, score_file, trial_key, out_file):
    """EER / Cllr / min-Cllr report from a score file and its trial key."""
    entries: dict[str, str] = {}
    score_set = _key_scores(_read(score_file, "scores", entries, formats.parse_scores),
                            _read(trial_key, "trial_key", entries, formats.parse_trials))
    report_text = formats.serialize_report(evaluate(score_set))
    click.echo(report_text, nl=False)
    outputs, manifest = ([], None) if out_file is None else _one_file(out_file, lambda: report_text)
    _write("eval", entries, outputs + _det_output(obj, lambda: score_set), manifest)


_PAIR = itemgetter(0, 1)


def _key_scores(scores: list[tuple[str, str, float]],
                key_rows: list[tuple[str, str, bool]]) -> TrialScoreSet:
    """The score of each key trial, split by the key's labels in key order.

    ``score`` writes its rows in (enroll, test) order, so for a key in that
    order the two files hold the same pairs row by row and the scores are
    taken as one array. Any other pair of files is joined through a pair
    dict, which fails on the first pair missing from either side.
    """
    if len(scores) == len(key_rows) and all(map(eq, map(_PAIR, scores), map(_PAIR, key_rows))):
        values = np.fromiter(map(itemgetter(2), scores), np.float64, len(scores))
        labels = np.fromiter(map(itemgetter(2), key_rows), bool, len(key_rows))
        return TrialScoreSet(values[labels], values[~labels])
    score_by_trial = {(e, t): s for e, t, s in scores}
    key_set = {(e, t) for e, t, _ in key_rows}
    for pair in score_by_trial:
        if pair not in key_set:
            raise InvalidValueError(f"score for {pair!r} has no trial-key entry")
    target, nontarget = [], []
    for enroll_id, test_id, is_target in key_rows:
        if (enroll_id, test_id) not in score_by_trial:
            raise InvalidValueError(f"trial ({enroll_id!r}, {test_id!r}) has no score")
        (target if is_target else nontarget).append(score_by_trial[(enroll_id, test_id)])
    return TrialScoreSet(np.array(target), np.array(nontarget))


# --- simulate -------------------------------------------------------------------

_SIM_CONFIG_KEYS = {
    "n_speakers_per_gender": int,
    "utts_per_speaker": int,
    "embed_dim": int,
    "between_var": float,
    "within_var": float,
    "f0_mean_male": float,
    "f0_mean_female": float,
    "f0_between_std": float,
    "f0_within_std": float,
    "frames_per_utt": int,
    "seed": int,
    "attack": AttackModel,
    "f0_mode": F0Mode,
    "gender_policy": GenderPolicy,
    "enroll_seed": int,
    "trial_seed": int,
    "attacker": AttackerModel,
    "f0_weight": float,
    "k_far": int,
    "k_sel": int,
    "scorer": Scorer,
    "length_norm": bool,
}

@main.command()
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--attack", type=click.Choice(["o-a", "a-a"]), default=None)
@click.option("--f0-mode", type=click.Choice(["original", "modified"]), default=None)
@click.option("--gender-policy", type=click.Choice(["same", "opposite"]), default=None)
@click.option("--enroll-seed", type=int, default=None)
@click.option("--trial-seed", type=int, default=None)
@click.option("--attacker", type=click.Choice(["embedding_only", "embedding_plus_f0"]), default=None)
@click.option("--f0-weight", type=float, default=None)
@click.option("--k-far", type=int, default=None)
@click.option("--k-sel", type=int, default=None)
@click.option("--scorer", type=click.Choice(["plda", "cosine"]), default=None)
@click.option("--n-speakers-per-gender", type=int, default=None)
@click.option("--utts-per-speaker", type=int, default=None)
@click.option("--embed-dim", type=int, default=None)
@click.option("--between-var", type=float, default=None)
@click.option("--within-var", type=float, default=None)
@click.option("--f0-mean-male", type=float, default=None)
@click.option("--f0-mean-female", type=float, default=None)
@click.option("--f0-between-std", type=float, default=None)
@click.option("--f0-within-std", type=float, default=None)
@click.option("--frames-per-utt", type=int, default=None)
@click.pass_obj
def simulate(obj, out_dir, **flags):
    """Generate a synthetic cohort and run one attack scenario over it."""
    entries: dict[str, str] = {}
    resolved = _settings(
        obj.config, _SIM_CONFIG_KEYS, "simulate", {**flags, "seed": obj.seed}, entries
    )
    means = {gender: resolved.get(f"f0_mean_{gender.name.lower()}", mean)
             for gender, mean in CohortSpec().f0_gender_means.items()}
    spec = _build(CohortSpec, resolved, f0_gender_means=means)
    scenario = _build(ScenarioConfig, resolved, attack=AttackModel.ORIGINAL_TO_ANONYMIZED)
    sel = _build(SelectionConfig, resolved, k_far=12, k_sel=6, length_norm=False)

    cohort = generate_cohort(spec)
    result = run_scenario(cohort, scenario, sel)

    settings = {**asdict(sel), **asdict(spec), **asdict(scenario)}  # the gender policy run_scenario uses
    del settings["global_seed"], settings["f0_gender_means"], settings["f0_weight"]
    settings.update({
        "cohort_seed": settings.pop("seed"),
        **{f"f0_mean_{gender.name.lower()}": mean for gender, mean in spec.f0_gender_means.items()},
        "f0_weight_used": result.f0_weight_used,
        "n_trials": result.score_matrix.size,
    })
    entries.update(_recorded(settings))
    out = Path(out_dir)
    utterances = [u for speaker in cohort.users for u in speaker.utterances]
    grid_ids = (result.enroll_ids, result.utt_ids)
    _write("simulate", entries, [
        (out / "pool.txt", lambda: formats.serialize_pool(cohort.pool.speakers), True),
        (out / "user_embeddings.txt", lambda: formats.serialize_embeddings(
            [SpeakerEmbedding(u.speaker_id, u.gender, u.embedding, u.utterance_id) for u in utterances]), True),
        (out / "user_contours.txt", lambda: formats.serialize_contours([u.contour for u in utterances]), True),
        (out / "plda.txt", lambda: formats.serialize_plda(cohort.plda), True),
        (out / "scores.txt", lambda: formats.serialize_score_grid(*grid_ids, result.score_matrix), True),
        (out / "trials.txt", lambda: formats.serialize_trial_grid(*grid_ids, result.label_matrix), True),
        (out / "report.txt", lambda: formats.serialize_report(result.report), True),
        *_det_output(obj, lambda: result.scores),
    ], out / "manifest.txt")


if __name__ == "__main__":
    main()
