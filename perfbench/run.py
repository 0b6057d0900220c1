"""Benchmark of the pseudovox CLI on three seeded, paper-scale workloads.

    python3 perfbench/run.py --workload anonymize-paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is used from ``src/``.
The inputs are generated from ``--seed`` by ``workloads.py``.  With
``--trace 0`` the workload's CLI commands run as separate processes, pass
after pass, until ``--seconds`` is used up, and the end-to-end metrics are
medians over the passes; times are divided by the host's slowdown, which a
fixed probe measures between processes.  With ``--trace 1`` one untraced pass runs as
processes, then untraced and traced passes alternate in-process through
``pseudovox.cli.main`` until ``--seconds`` is used up (one pair at least),
and the per-layer metrics are medians over the traced passes.
Every pass is checked (see ``checks.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, so no workload runs more threads than the two
# cores it is measured on (``simulate-aa`` runs two ``parallel_map`` workers).
# The recorded output hashes are taken under this setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# What the installed ``pseudovox`` console script runs.
LAUNCH = "import sys; from pseudovox.cli import main; sys.exit(main(prog_name='pseudovox'))"
SETUP_PER_PASS = 3
SETUP_MIN = 15
# On workloads of several commands the last one is also timed alone, on the
# first pass's earlier outputs, so that its median has this many samples.
LAST_PER_PASS = 4
LAST_MIN = 10
KILL_AFTER_S = 150.0
# Host speed probe: the first decile of the times of ``probe_work`` over a
# round, divided by PROBE_REF_S (that decile on the two-core host the
# benchmark was written on, in a fast phase), is the host's slowdown in that
# round.  The decile, not the median, so that brief stalls right after a CLI
# process exits do not count as a slower host.
PROBE_SAMPLES = 5
PROBE_REF_S = 0.0163

END_TO_END = [
    ("wall_s", "s"),
    ("first_cmd_s", "s"),
    ("last_cmd_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


@dataclass
class StepRun:
    name: str
    returncode: int
    wall: float
    stdout: bytes
    stderr: str
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    steps: list[wl.Step]
    runs: list[StepRun]
    wall: float
    given: list[str] = field(default_factory=list)  # earlier commands' outputs, linked in
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(bool(r.problems) for r in self.runs)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], name: str, logs: Path) -> StepRun:
    """Run one CLI process to its end; time it and read its rusage."""
    with open(logs / f"{name}.out", "wb") as out, open(logs / f"{name}.err", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *args], stdout=out, stderr=err, env=_env(), cwd=ROOT)
        killer = threading.Timer(KILL_AFTER_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = StepRun(
        name,
        proc.returncode,
        wall,
        (logs / f"{name}.out").read_bytes(),
        (logs / f"{name}.err").read_text(errors="replace"),
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )
    (logs / f"{name}.out").unlink()
    (logs / f"{name}.err").unlink()
    return run


def run_in_process(args: list[str], name: str, tracer: spans.Tracer | None) -> StepRun:
    """Call ``pseudovox.cli.main`` in this process, as the traced run does."""
    from pseudovox.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                main(args, prog_name="pseudovox", standalone_mode=False)
            else:
                tracer.call("cli", name, main, args, prog_name="pseudovox", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    return StepRun(name, code, perf_counter() - start, out.getvalue().encode(), err.getvalue())


def run_pass(workload: str, seed: int, inputs: Path, out: Path, mode: str, tracer=None, reuse=None) -> Pass:
    """One pass of the workload's commands: ``mode`` is "process" or "in-process".

    With ``reuse``, an earlier pass's output directory, only the last command
    runs, on hard links to the earlier commands' outputs there.
    """
    out.mkdir(parents=True)
    steps = wl.steps(workload, seed, inputs, out)
    given = []
    if reuse is not None:
        given = [name for step in steps[:-1] for name in step.outputs]
        for name in given:
            os.link(reuse / name, out / name)
        steps = steps[-1:]
    runs = []
    start = perf_counter()
    for step in steps:
        if mode == "process":
            runs.append(spawn(step.args, step.name, out.parent))
        else:
            runs.append(run_in_process(step.args, step.name, tracer))
    return Pass(steps, runs, perf_counter() - start, given)


def verify(p: Pass, workload: str, inputs: Path, out: Path, reference: dict | None) -> None:
    """Record each step's problems: exit code, traceback, outputs and hashes."""
    owner = {}
    for name in p.given:
        p.hashes[name] = checks.sha256_file(out / name)
    for step, run in zip(p.steps, p.runs):
        if run.returncode != 0:
            run.problems.append(f"{run.name}: exit code {run.returncode}")
        if "Traceback" in run.stderr:
            run.problems.append(f"{run.name}: wrote a traceback")
        for name in step.outputs:
            owner[name] = run
            if (out / name).is_file():
                p.hashes[name] = checks.sha256_file(out / name)
            else:
                run.problems.append(f"{run.name}: did not write {name}")
    last = p.runs[-1]
    extra = sorted(f.name for f in out.iterdir() if f.name not in owner and f.name not in p.given)
    if extra:
        last.problems.append(f"unexpected outputs {extra}")
    if any(r.problems for r in p.runs):
        return
    if workload == "score-eval" and last.stdout != (out / "report.txt").read_bytes():
        last.problems.append("eval: stdout differs from report.txt")
    manifests = [n for n in owner if n.endswith("manifest.txt") or n.endswith(".manifest")]
    for problem in checks.check_manifests(out, inputs, manifests, p.hashes):
        owner[problem.split(":", 1)[0]].problems.append(problem)
    if reference is not None:
        for name, digest in p.hashes.items():
            if name in owner and reference.get(name, digest) != digest:
                owner[name].problems.append(f"{name}: SHA-256 differs from the reference")


def helper(*args) -> str:
    """Run a step of ``helper.py`` in its own process; return its stdout.

    Keeps this process smaller than the CLI processes whose peak RSS it
    reads (see ``helper.py``).
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "helper.py"), *map(str, args)],
        capture_output=True, text=True, check=True, timeout=KILL_AFTER_S,
    )
    return proc.stdout


class BenchRun:
    """Inputs, a work directory and the failure count of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.attempted = 0
        self.failed = 0
        self.reference = checks.expected_hashes(workload, seed)
        self._passes = 0

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        helper("generate", self.workload, self.seed, self.inputs)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def run(self, mode: str, tracer=None, last_only=False) -> Pass:
        self._passes += 1
        out = self.work / f"pass-{self._passes}" / "out"
        reuse = self.work / "pass-1" / "out" if last_only else None
        p = run_pass(self.workload, self.seed, self.inputs, out, mode, tracer, reuse)
        verify(p, self.workload, self.inputs, out, self.reference)
        if self.reference is None and not p.failed:
            self.reference = dict(p.hashes)  # later passes must match the first
        for run in p.runs:
            for problem in run.problems:
                print(f"FAILED {problem}", file=sys.stderr)
        self.attempted += len(p.runs)
        self.failed += p.failed
        if self._passes > 1 or p.failed:
            shutil.rmtree(out.parent)
        print(
            f"pass {self._passes} ({mode}{', traced' if tracer else ''}): "
            + ", ".join(f"{r.name} {r.wall:.3f} s" for r in p.runs),
            file=sys.stderr,
        )
        return p

    def recompute_first_pass(self) -> None:
        """Check the first pass's outputs against an independent recomputation."""
        out = self.work / "pass-1" / "out"
        if not out.is_dir():
            return  # the first pass failed and was counted
        try:
            problems = json.loads(helper("recompute", self.workload, self.seed, self.inputs, out))
        except subprocess.CalledProcessError as exc:
            problems = [f"recomputation failed on these outputs: {exc.stderr.strip().splitlines()[-1:]}"]
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)
        self.failed += bool(problems)
        shutil.rmtree(out.parent)


def setup_time(bench: BenchRun) -> float:
    """Wall time of ``pseudovox --version``: interpreter start and imports."""
    run = spawn(["--version"], "version", bench.work)
    bench.attempted += 1
    if run.returncode != 0 or b"version" not in run.stdout:
        bench.failed += 1
    return run.wall


def probe_work() -> int:
    """Fixed pure-Python work like the CLI's own: integer loops, float text."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    text = " ".join(f"{i * 0.37:.6f}" for i in range(20_000))
    values = {k: float(t) for k, t in enumerate(text.split())}
    return total + len(values)


def probe_host(times: list[float]) -> None:
    """Append the times of PROBE_SAMPLES runs of ``probe_work`` to ``times``."""
    for _ in range(PROBE_SAMPLES):
        start = perf_counter()
        probe_work()
        times.append(perf_counter() - start)


def untraced(bench: BenchRun, seconds: float) -> dict[str, float]:
    # Set-up spawns and lone last commands are spread over the run, like the
    # passes they follow.  Another round starts while at least a third of one
    # fits before the deadline, so a run overshoots ``seconds`` by two thirds of
    # a round, plus the top-ups to the minimum sample counts.  (``simulate-aa``
    # passes of up to about 22 s then still get a second sample at 30 s.)
    # The speed of a shared host drifts by up to 2x over minutes, so the host
    # is probed after every CLI process, and every time is divided by its
    # round's slowdown: the times are seconds at the reference speed.
    times = {"wall_s": [], "first_cmd_s": [], "last_cmd_s": [], "setup_s": []}
    rss = []
    raw, probes = {}, []

    def sample(name: str, seconds: float) -> None:
        raw.setdefault(name, []).append(seconds)
        probe_host(probes)

    def scale_round() -> None:
        slowdown = statistics.quantiles(probes, n=10)[0] / PROBE_REF_S
        print(f"host slowdown {slowdown:.3f} (from {len(probes)} probe times)", file=sys.stderr)
        for name, values in raw.items():
            times[name] += [t / slowdown for t in values]
        raw.clear()
        probes.clear()

    def lone_last() -> float:
        return bench.run("process", last_only=True).runs[-1].wall

    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        probe_host(probes)
        for _ in range(SETUP_PER_PASS):
            sample("setup_s", setup_time(bench))
        p = bench.run("process")
        raw["wall_s"], raw["first_cmd_s"] = [p.wall], [p.runs[0].wall]
        sample("last_cmd_s", p.runs[-1].wall)
        rss.append(max(r.rss_mb for r in p.runs))
        if len(rss) == 1:
            alone = len(p.runs) > 1 and not p.failed
        for _ in range(LAST_PER_PASS if alone else 0):
            sample("last_cmd_s", lone_last())
        scale_round()
        if perf_counter() + (perf_counter() - started) / 3 > deadline:
            break
    probe_host(probes)
    while len(times["setup_s"]) + len(raw.get("setup_s", [])) < SETUP_MIN:
        sample("setup_s", setup_time(bench))
    while alone and len(times["last_cmd_s"]) + len(raw.get("last_cmd_s", [])) < LAST_MIN:
        sample("last_cmd_s", lone_last())
    if raw:
        scale_round()
    bench.recompute_first_pass()
    return {
        **{name: statistics.median(values) for name, values in times.items()},
        "peak_rss_mb": statistics.median(rss),
    }


def traced_pass(bench: BenchRun) -> tuple[float, dict[str, tuple[float, str]]]:
    """One in-process pass under a fresh tracer: command seconds, layer metrics."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        p = bench.run("in-process", tracer)
    finally:
        tracer.uninstall()
    return sum(r.wall for r in p.runs), spans.layer_metrics(tracer)


def traced(bench: BenchRun, seconds: float) -> dict[str, tuple[float, str]]:
    sys.path.insert(0, str(SRC))
    import pseudovox.cli  # noqa: F401  (the tracer rebinds names in loaded modules)

    deadline = perf_counter() + seconds
    processes = bench.run("process")
    # untraced and traced in-process passes alternate in order, until time is up
    plain, traced_s, layers = [], [], []
    while True:
        started = perf_counter()
        for kind in ("plain", "traced") if len(plain) % 2 == 0 else ("traced", "plain"):
            gc.collect()
            if kind == "plain":
                plain.append(sum(r.wall for r in bench.run("in-process").runs))
            else:
                command_s, metrics = traced_pass(bench)
                traced_s.append(command_s)
                layers.append(metrics)
        if perf_counter() + (perf_counter() - started) > deadline:
            break
    bench.recompute_first_pass()
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit) for name, (_, unit) in layers[0].items()}
    metrics["proc.cpu_s"] = (sum(r.cpu_s for r in processes.runs), "s")
    overhead = statistics.median(traced_s) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED,
                        help=f"input set: seed mod {checks.RECORDED_SEEDS} (see expected_sha256.json)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pseudovox" / "cli.py").is_file():
        print(f"error: no pseudovox sources under {SRC}", file=sys.stderr)
        return 2

    with BenchRun(args.workload, args.seed % checks.RECORDED_SEEDS) as bench:
        if bench.reference is None:
            bench.failed += 1
            print(f"FAILED no recorded SHA-256 values for seed {bench.seed}", file=sys.stderr)
        if args.trace:
            metrics = traced(bench, args.seconds)
        else:
            units = dict(END_TO_END)
            metrics = {k: (v, units[k]) for k, v in untraced(bench, args.seconds).items()}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
