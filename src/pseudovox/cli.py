"""Command-line interface: ``stats``, ``anonymize``, ``score``, ``eval``, ``simulate``.

Every subcommand is a thin shell over the library; file outputs are
byte-identical to direct library calls. Global flags (``--seed``,
``--config``, ``--threads``, ``--det-out``) are given before the subcommand::

    pseudovox --seed 7 anonymize --pool pool.txt ...

``--threads N`` lets up to N processes build a command's outputs, which
are byte-identical for any N; ``_run`` says how. ``--seed`` has no effect
on ``stats``, ``score`` and ``eval``, and a command refuses ``--det-out`` or
``--config`` when it would ignore it.

Configuration files are ``key value`` lines, a key for each field of the
command's config objects. Each setting flag is built from its field: ``--``
and the key with ``-`` for ``_``, an enum's values as choices, a
``--x/--no-x`` pair for a bool. The exceptions: ``anonymize --gender`` and
``--f0`` set ``gender_policy`` and ``f0_mode``; the global ``--seed`` sets
``global_seed`` (``anonymize``) and ``seed`` (``simulate``); ``simulate``'s
``length_norm`` has no flag. Flags win when both are given. Diagnostics go
to stderr; the exit code is 0 iff the run produced every requested output.

Every failure ends the run in one place: the command group turns any
``PseudovoxError`` a command raises into one ``error:`` line on stderr and
exit code 1, so no command catches one to end the run itself. Every command
writes in one ``_write`` call, which builds and hashes each output one text
chunk at a time (the score and trial grids of ``simulate`` come one
enrollment row per chunk, the scores of ``score`` and the DET points of
``--det-out`` a few thousand lines per chunk) and writes the manifest last.
"""

from __future__ import annotations

import enum
import errno
import hashlib
import os
import pickle
import select
import sys
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, NoReturn, TypeVar, get_args, get_type_hints

import click
import numpy as np

from . import __version__
from .errors import (
    DimensionMismatchError,
    InvalidValueError,
    NoVoicedFramesError,
    PseudovoxError,
    ZeroVectorError,
)
from . import formats
from .f0 import F0Mode, compute_log_f0_stats
from .metrics import TrialScoreSet, _det_rates, evaluate
from .plda import SpeakerEmbedding, plda_score_pairs, project
from .selection import SelectionConfig, SpeakerPool, _pseudonymize
from .simulate import (
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


# builder of an output's text or its text chunks
_Build = Callable[[], str | Iterable[str]]
# path, builder, hashed in the manifest
_Output = tuple[Path, _Build, bool]


def _write(command: str, entries: dict[str, str], outputs: list[_Output], manifest: Path | None) -> None:
    """Write ``outputs``, then the manifest at ``manifest`` unless it is None.

    Each output is its path, the builder of its text, and whether the
    manifest records its ``output_sha256_<stem>``. First every path is
    checked and a hidden temp file is opened beside it, in the given order;
    no path may name a directory or an input read by ``_read``, and no two
    may resolve to the same file.
    Then each builder runs as one job, streaming into its temp file, as
    ``_run`` says. Last the manifest is built from the digests and every temp
    file is renamed into place in the given order, manifest last. A command
    calls this once it has computed everything its outputs hold, so every
    path is checked after the command's own errors.

    A failed run replaces nothing and reports the lowest-numbered failing
    output, whichever process built it. The temp files are always removed,
    and so are the directories made here if the set is not written.
    """
    meta = click.get_current_context().meta
    paths = [path for path, _, _ in outputs] + ([] if manifest is None else [manifest])
    staged: list[tuple[Path, int]] = []  # temp file and open descriptor of each path
    created: list[Path] = []
    targets: set[str] = set()
    written = False
    try:
        try:
            for path in paths:
                if not path.name:  # ".", "/": a directory, with no name to stage a temp file beside
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
                _make_dirs(path.parent, created)
                target = os.path.realpath(path)
                if target in meta.get("inputs", ()):
                    raise OSError("it is an input of this command")
                if target in targets:
                    raise OSError("another output of this command is the same file")
                targets.add(target)
                staged.append(_stage(path))
            for path in paths:
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        except OSError as exc:
            _fail(f"cannot write {path}: {exc}")
        outcomes = _run([(build, fd) for (_, build, _), (_, fd) in zip(outputs, staged)], meta["threads"])
        for (path, _, hashed), result in zip(outputs, outcomes):
            if isinstance(result, OSError):
                _fail(f"cannot write {path}: {result}")
            if isinstance(result, BaseException):
                raise result
            if hashed:
                entries[f"output_sha256_{path.stem}"] = result
        try:
            if manifest is not None:
                path = manifest
                base = {"format_version": FORMAT_VERSION, "package_version": __version__, "command": command}
                with open(staged[len(outputs)][1], "wb", closefd=False) as handle:
                    handle.write(formats.serialize_keyvalues({**base, **entries}).encode("utf-8"))
            for path, (tmp, _) in zip(paths, staged):
                os.replace(tmp, path)
        except OSError as exc:
            _fail(f"cannot write {path}: {exc}")
        written = True
    finally:
        for tmp, fd in staged:
            os.close(fd)
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


def _stage(path: Path) -> tuple[Path, int]:
    """A new hidden temp file beside ``path``, opened for writing, and its descriptor."""
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)


def _encoded(build: _Build) -> Iterable[bytes]:
    """The chunks of ``build``'s output, encoded one at a time.

    A builder returns one text or an iterable of text chunks; each chunk is
    encoded only when the one before it has been written, so a job holds one
    chunk at a time.
    """
    text = build()
    # one text is one chunk: hold its bytes, not the text as well
    return [text.encode("utf-8")] if isinstance(text, str) else (chunk.encode("utf-8") for chunk in text)


def _build_into(build: _Build, fd: int) -> str:
    """Build one output into the file open at ``fd``; its SHA-256 hex digest."""
    digest = hashlib.sha256()
    with open(fd, "wb", closefd=False) as handle:
        for chunk in _encoded(build):
            digest.update(chunk)
            handle.write(chunk)
    return digest.hexdigest()


def _run(jobs: list[tuple[_Build, int]], threads: int) -> list:
    """Build ``jobs``; each job's digest, the exception it raised, or None
    if it was not built.

    Each job is one output's builder and the descriptor it is built into
    (``_build_into``), numbered in output order.

    With one thread, one job or no ``os.fork``, this process builds the jobs
    in order and stops at the first that fails. Otherwise each job is built
    in a forked child of its own (``_fork``), forked in output order with at
    most ``threads`` alive at once, and this process only forks, waits and
    collects. Every job is built, even above a failure, so the
    lowest-numbered failing output is the one that one process would report.
    Children are forked, not spawned, because the builders are closures over
    the command's results; they run only serializers, so no BLAS routine and
    no lock that another thread may hold at the fork. A job whose fork or
    report pipe fails is built in this process at once.
    """
    results: list = [None] * len(jobs)  # each job's digest or exception, None until it is built
    if threads < 2 or len(jobs) < 2 or not hasattr(os, "fork"):
        for number, job in enumerate(jobs):
            results[number] = _outcome(job)
            if isinstance(results[number], BaseException):
                break
    else:
        queue = list(range(len(jobs)))
        children: dict[int, tuple[int, int]] = {}  # read end of each child's report pipe: its job and pid
        ready = select.poll()

        def fork() -> None:
            """Fork queued jobs, in order, while fewer than ``threads`` children are alive."""
            while queue and len(children) < threads:
                number = queue.pop(0)
                child = _fork(jobs[number])
                if child is None:
                    results[number] = _outcome(jobs[number])
                else:
                    children[child[0]] = (number, child[1])
                    ready.register(child[0], select.POLLIN)

        def collect() -> None:
            """Collect each child whose report pipe is ready, once one is: read
            the pipe to end of file, then reap the child and record its job's
            result; a child that left no report fails its job with its exit
            status. The pipe is read before the child is reaped, because a
            child cannot leave while its report is larger than the pipe holds."""
            for read, _ in ready.poll():
                ready.unregister(read)
                number, pid = children.pop(read)
                try:
                    with open(read, "rb") as report:
                        message = report.read()
                finally:
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                try:
                    results[number] = pickle.loads(message)  # written by ``_fork``'s child
                except (EOFError, pickle.UnpicklingError):
                    results[number] = ChildProcessError(f"the process writing it ended with exit status {status}")

        try:
            fork()
            while children:  # ``fork`` leaves a job queued only while ``threads`` children are alive
                collect()
                fork()
        finally:
            while children:  # after an error: reap every child, fork none
                collect()
    return results


def _outcome(job: tuple[_Build, int]):
    """``_build_into`` of ``job``: what it returns, or the exception it raised."""
    try:
        return _build_into(*job)
    except BaseException as exc:  # raised again by ``_write``, after the cleanup
        return exc


def _fork(job: tuple[_Build, int]) -> tuple[int, int] | None:
    """Fork a child that builds ``job``; the read end of its report pipe and
    its pid, or None if no pipe or no process can be made.

    The child pickles its ``_outcome`` once to the pipe, or a
    ``RuntimeError`` naming an exception that cannot be pickled or rebuilt,
    then leaves by ``os._exit``, so that it never returns into the command,
    flushes the command's stdio or runs its exit handlers.
    """
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            result = _outcome(job)
            try:
                message = pickle.dumps(result)
                pickle.loads(message)  # as ``_run`` will
            except Exception:
                message = pickle.dumps(RuntimeError(f"{type(result).__name__}: {result}"))
            with open(write, "wb") as report:
                report.write(message)
            code = 0
        finally:
            os._exit(code)
    os.close(write)  # so that the report reads as end of file once the child has left
    return read, pid


def _one_file(out_file: str, build: Callable[[], str]) -> tuple[list[_Output], Path]:
    """The output of a one-file command, unhashed, and its manifest ``<out_file>.manifest``."""
    out = Path(out_file)
    return [(out, build, False)], Path(f"{out}.manifest")


def _config_keys(*classes, without: tuple[str, ...] = ()) -> dict[str, type]:
    """Each field of ``classes`` but ``without`` as a config key, with the type
    its text converts to: ``float`` for ``float | None``."""
    return {name: next((kind for kind in get_args(hint) if kind is not type(None)), hint)
            for cls in classes for name, hint in get_type_hints(cls).items() if name not in without}


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
    return {**resolved, **{key: value for key, value in flags.items() if value is not None}}


def _convert(key: str, raw: str, kind):
    try:
        if kind in (int, float):
            return _number(raw, kind)
        if kind is bool:
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        return kind(raw)
    except (ValueError, PseudovoxError):
        raise InvalidValueError(f"bad value {raw!r} for key {key!r}") from None


def _number(raw: str, kind: type):
    """``kind(raw)`` for ``int`` or ``float``, refusing the non-ASCII digits,
    the ``_`` and the surrounding whitespace that both accept."""
    if not raw.isascii() or "_" in raw or raw != raw.strip():
        raise ValueError("numbers take ASCII digits, no '_' and no whitespace")
    return kind(raw)


class _Number(click.ParamType):
    """An ``int`` or ``float`` flag, converted by ``_number`` as a config value
    is; a bad value is a usage error."""

    def __init__(self, kind: type):
        self.kind = kind
        self.name = "integer" if kind is int else "float"

    def convert(self, value, param, ctx):
        try:
            return _number(str(value), self.kind)
        except ValueError:
            self.fail(f"{value!r} is not a valid {self.name}.", param, ctx)


_INT, _FLOAT = _Number(int), _Number(float)


class _IntRange(click.IntRange):
    """``click.IntRange`` of an integer converted by ``_number``, as ``_INT`` converts one."""

    def convert(self, value, param, ctx):
        return super().convert(_INT.convert(value, param, ctx), param, ctx)


class _Enum(click.Choice):
    """A choice of the values of the enum ``kind``, converted to its member."""

    def __init__(self, kind: type[enum.Enum]):
        super().__init__([member.value for member in kind])
        self.kind = kind

    def convert(self, value, param, ctx):
        return self.kind(super().convert(value, param, ctx))


def _setting_flags(keys: dict[str, type], without: tuple[str, ...], rename: dict = {}, helps: dict = {}):
    """The flags of the config keys but ``without``, in key order, each built
    from its key as the module docstring says, with ``helps`` as help texts."""
    def decorate(command):
        for key in reversed([key for key in keys if key not in without]):  # click lists the last applied first
            kind, flag = keys[key], rename.get(key, f"--{key.replace('_', '-')}")
            decls = (f"{flag}/--no-{flag[2:]}" if kind is bool else flag, key)
            flag_type = None if kind is bool else {int: _INT, float: _FLOAT}.get(kind) or _Enum(kind)
            command = click.option(*decls, type=flag_type, default=None, help=helps.get(key))(command)
        return command

    return decorate


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
    return [(Path(obj.det_out), lambda: formats._det_chunks(_det_rates(scores())), False)]


class _Main(click.Group):
    """The command group, and the one failure boundary of every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PseudovoxError as exc:
            _fail(str(exc))


@click.group(cls=_Main)
@click.version_option(__version__)
@click.option("--seed", type=_INT, default=None,
              help="Global selection/cohort seed override; no effect on stats, score and eval.")
@click.option("--config", type=click.Path(), default=None, help="'key value' config file.")
@click.option("--threads", type=_IntRange(min=1), default=1, show_default=True,
              help="Up to this many processes build and write the outputs; they are byte-identical for any "
                   "value. Only commands with several large outputs gain (simulate most, anonymize a little).")
@click.option("--det-out", type=click.Path(), default=None, help="Write DET operating points to this file.")
@click.pass_context
def main(ctx, seed, config, threads, det_out):
    """X-vector pseudo-speaker pipeline and privacy-linkability evaluation."""
    ctx.meta["threads"] = threads
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

_ANON_CONFIG_KEYS = {**_config_keys(SelectionConfig), "f0_mode": F0Mode}


@main.command()
@click.option("--pool", "pool_file", type=click.Path(), required=True)
@click.option("--embeddings", "embeddings_file", type=click.Path(), required=True)
@click.option("--contours", "contours_file", type=click.Path(), required=True)
@click.option("--plda", "plda_file", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@_setting_flags(_ANON_CONFIG_KEYS, without=("global_seed",), rename={"gender_policy": "--gender", "f0_mode": "--f0"},
                helps={"k_far": "Furthest candidates kept (default 200).",
                       "k_sel": "Members drawn from them (default 100)."})
@click.pass_obj
def anonymize(obj, pool_file, embeddings_file, contours_file, plda_file, out_dir, **flags):
    """Derive one pseudo-speaker per source speaker; transform F0 on request."""
    entries: dict[str, str] = {}
    resolved = _settings(obj.config, _ANON_CONFIG_KEYS, "anonymize", {**flags, "global_seed": obj.seed}, entries)
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

    sources = [
        (speaker_id, by_speaker[speaker_id][0].gender, [e.vector for e in by_speaker[speaker_id]],
         [contour_by_utt[e.utterance_id] for e in by_speaker[speaker_id]])
        for speaker_id in speakers
    ]
    # the speakers before the first that fails: their warnings come before its error
    done, error = _pseudonymize(pool, sources, sel, mode)
    mapping_rows = []
    xvector_rows = []
    stats_rows = []
    contour_rows = []
    for (speaker_id, gender, _, contours), (pseudo, anon_contours) in zip(sources, done):
        for contour in contours:
            if mode is F0Mode.MODIFIED and not contour.voiced_mask.any():
                click.echo(
                    f"warning: {contour.utterance_id} has no voiced frames, copied unchanged",
                    err=True,
                )
        mapping_rows.append((speaker_id, pseudo.seed_used, tuple(pseudo.member_ids)))
        xvector_rows.append(SpeakerEmbedding(speaker_id, gender, pseudo.xvector, "pseudo"))
        stats_rows.append((speaker_id, pseudo.f0_stats))
        contour_rows.extend(anon_contours)
    if error is not None:
        raise error
    del pool, sources, done  # free the pool's cached latents before the outputs are serialized

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
    """PLDA-score every trial in the key against enrollment speakers.
    \f
    The key is read as columns. A missing id fails on the first trial in key
    order that has one, enroll id first, and a score that is not finite on
    the first such trial. The columns are then put in pair order, so any key
    order gives the same bytes, and written a chunk of lines at a time by
    ``formats._score_chunks``, which ``serialize_scores`` writes with too.
    """
    entries = _recorded({"length_norm": length_norm})
    model = _read(plda_file, "plda", entries, formats.parse_plda)
    enroll = _read(enroll_file, "enroll", entries,
                   _of_dim(formats.parse_embeddings, model.dim, "model"))
    trials_emb = _read(trial_embeddings, "trial_embeddings", entries,
                       _of_dim(_parse_utterances, model.dim, "model"))
    enroll_ids, test_ids, _, in_order = _read(trial_key, "trial_key", entries, formats._trial_columns)

    # row of each id in the stacked latents below: first-appearance order
    enroll_row = {sid: row for row, sid in enumerate(dict.fromkeys(e.speaker_id for e in enroll))}
    test_row = {e.utterance_id: row for row, e in enumerate(trials_emb)}  # the ids are unique
    for enroll_id, test_id in zip(enroll_ids, test_ids):
        if enroll_id not in enroll_row:
            raise InvalidValueError(f"enrollment speaker {enroll_id!r} missing from {enroll_file}")
        if test_id not in test_row:
            raise InvalidValueError(f"trial utterance {test_id!r} missing from {trial_embeddings}")
    enroll_index = np.fromiter(map(enroll_row.__getitem__, enroll_ids), np.intp, len(enroll_ids))
    test_index = np.fromiter(map(test_row.__getitem__, test_ids), np.intp, len(test_ids))

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is refused below
        enroll_latents: dict[str, list[np.ndarray]] = {}
        for emb, latent in zip(enroll, _projected(model, enroll, enroll_file, length_norm)):
            enroll_latents.setdefault(emb.speaker_id, []).append(latent)
        llrs = plda_score_pairs(
            model,
            _rows([np.mean(latents, axis=0) for latents in enroll_latents.values()], model.dim),
            _rows(list(_projected(model, trials_emb, trial_embeddings, length_norm)), model.dim),
            enroll_index,
            test_index,
        )
    non_finite = np.flatnonzero(~np.isfinite(llrs))
    if non_finite.size:
        i = non_finite[0]
        raise InvalidValueError(f"score of trial ({enroll_ids[i]!r}, {test_ids[i]!r}) is not finite")

    entries["n_trials"] = str(len(llrs))
    enroll_ids, test_ids, llrs = formats._in_pair_order(enroll_ids, test_ids, llrs, in_order)
    _write("score", entries, *_one_file(out_scores, lambda: formats._score_chunks(enroll_ids, test_ids, llrs)))


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
    score_set = _key_scores(_read(score_file, "scores", entries, formats._score_columns)[:3],
                            formats._in_pair_order(*_read(trial_key, "trial_key", entries, formats._trial_columns)))
    report_text = formats.serialize_report(evaluate(score_set))
    outputs, manifest = ([], None) if out_file is None else _one_file(out_file, lambda: report_text)
    _write("eval", entries, outputs + _det_output(obj, lambda: score_set), manifest)
    click.echo(report_text, nl=False)


def _key_scores(scores: tuple[list[str], list[str], np.ndarray],
                key: tuple[list[str], list[str], np.ndarray]) -> TrialScoreSet:
    """The score of each key trial, split by the key's labels in key order.

    Each file comes as its enroll ids, test ids and values (scores, or labels
    with True for target). ``score`` writes its rows in (enroll, test) order,
    so for a key in that order the two id columns of one file equal those of
    the other, which two list compares show, and the score array is split by
    the label array. Any other pair of files is joined through a pair dict,
    which fails on the first pair missing from either side.
    """
    enroll_s, test_s, values = scores
    enroll_k, test_k, labels = key
    if enroll_s == enroll_k and test_s == test_k:
        return TrialScoreSet(values[labels], values[~labels])
    score_by_trial = dict(zip(zip(enroll_s, test_s), values.tolist()))
    joined = list(map(score_by_trial.get, zip(enroll_k, test_k)))
    if len(joined) != len(score_by_trial) or None in joined:
        key_set = set(zip(enroll_k, test_k))
        for pair in score_by_trial:
            if pair not in key_set:
                raise InvalidValueError(f"score for {pair!r} has no trial-key entry")
        i = joined.index(None)
        raise InvalidValueError(f"trial ({enroll_k[i]!r}, {test_k[i]!r}) has no score")
    joined = np.array(joined, dtype=np.float64)
    return TrialScoreSet(joined[labels], joined[~labels])


# --- simulate -------------------------------------------------------------------

_SIM_CONFIG_KEYS = _config_keys(CohortSpec, ScenarioConfig, SelectionConfig, without=("global_seed",))


@main.command()
@click.option("--out-dir", type=click.Path(), required=True)
@_setting_flags(_SIM_CONFIG_KEYS, without=("seed", "length_norm"))
@click.pass_obj
def simulate(obj, out_dir, **flags):
    """Generate a synthetic cohort and run one attack scenario over it."""
    entries: dict[str, str] = {}
    resolved = _settings(obj.config, _SIM_CONFIG_KEYS, "simulate", {**flags, "seed": obj.seed}, entries)
    spec = _build(CohortSpec, resolved)
    scenario = _build(ScenarioConfig, resolved, attack=AttackModel.ORIGINAL_TO_ANONYMIZED)
    sel = _build(SelectionConfig, resolved, k_far=12, k_sel=6, length_norm=False)

    cohort = generate_cohort(spec)
    result = run_scenario(cohort, scenario, sel)
    settings = {**asdict(sel), **asdict(spec), **asdict(scenario)}
    del settings["global_seed"], settings["f0_weight"]
    settings.update({
        "cohort_seed": settings.pop("seed"),
        "f0_weight_used": result.f0_weight_used,
        "n_trials": result.score_matrix.size,
    })
    entries.update(_recorded(settings))

    out = Path(out_dir)
    utterances = [u for speaker in cohort.users for u in speaker.utterances]
    _write("simulate", entries, [
        (out / "pool.txt", lambda: formats.serialize_pool(cohort.pool.speakers), True),
        # the longest job second, so that above one thread it starts in the first round of forks
        (out / "scores.txt", lambda: formats._score_grid_rows(result.enroll_ids, result.utt_ids, result.score_matrix),
         True),
        (out / "user_embeddings.txt", lambda: formats.serialize_embeddings(
            [SpeakerEmbedding(u.speaker_id, u.gender, u.embedding, u.utterance_id) for u in utterances]), True),
        (out / "user_contours.txt", lambda: formats.serialize_contours([u.contour for u in utterances]), True),
        (out / "plda.txt", lambda: formats.serialize_plda(cohort.plda), True),
        (out / "trials.txt", lambda: formats._trial_grid_rows(result.enroll_ids, result.utt_ids, result.label_matrix),
         True),
        (out / "report.txt", lambda: formats.serialize_report(result.report), True),
        *_det_output(obj, lambda: result.scores),
    ], out / "manifest.txt")


if __name__ == "__main__":
    main()
