"""voxaug benchmark: drives the ``voxaug`` CLI the way users do.

    python3 perfbench/run.py --workload augment_geometric --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` one closed-loop client runs the workload's CLI processes one
after another for ``--seconds`` and reports the end-to-end metrics. With
``--trace 1`` the same sequence runs in-process through ``voxaug.cli.main``,
once plain and once with every layer's functions wrapped in spans, and the
per-layer metrics are reported. The last stdout line is one JSON object. See
perfbench/README.md for the workloads and what each metric should move.
"""

import os
import sys

# One thread per BLAS pool, set before numpy loads: the voxaug worker pool
# alone then has as many threads as there are cores.
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import fcntl  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREADS = len(os.sched_getaffinity(0))
# Set-up is repeated and its median reported, so one slow repeat does not show.
SETUP_REPEATS = 2
STARTUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
END_TO_END = (
    ("subjects_per_s", "subjects/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["VOXAUG_THREADS"] = str(THREADS)
    env["TMPDIR"] = str(WORK)
    return env


@dataclass
class Proc:
    """One CLI invocation: exit code, wall seconds, peak RSS and captured stdout."""

    argv: tuple
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str
    digest: str = ""
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.errors)


def run_subprocess(argv, cwd: Path) -> Proc:
    """Run ``python -m voxaug argv`` and reap it with wait4 for its rusage."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        p = subprocess.Popen([sys.executable, "-m", "voxaug", *argv], cwd=cwd,
                             env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_text(), err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    return Proc(tuple(argv), p.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


def run_inprocess(argv, cwd: Path) -> Proc:
    """Run ``voxaug.cli.main(argv)`` in this process with ``cwd`` as working directory."""
    cli = sys.modules["voxaug.cli"]
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))  # looked up per call, so a tracer's wrapper applies
        wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return Proc(tuple(argv), code, wall, 0.0, out.getvalue(), err.getvalue())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def build_inputs(workload: str, seed: int, size: str, base: Path, runner) -> float:
    """Write ``base/inputs`` (phantom cohort, then config or predictions); return seconds."""
    start = time.perf_counter()
    proc = runner(wl.phantom_argv(seed, size, "inputs/cohort"), base)
    if proc.code != 0:
        raise SystemExit(f"error: voxaug phantom failed ({proc.code}): {proc.stderr.strip()}")
    wl.prepare(workload, seed, size, base / "inputs")
    return time.perf_counter() - start


def run_sequence(workload: str, seed: int, it_dir: Path, runner, corrupt: bool = False) -> list[Proc]:
    procs = []
    for step in wl.steps(workload, seed):
        proc = runner(step.argv, it_dir)
        if corrupt and step.argv[0] == "augment":
            wl.corrupt_one_label_map(it_dir)
        proc.digest = wl.step_digest(it_dir, step, proc.stdout)
        procs.append(proc)
    return procs


def check_iterations(workload: str, size: str, seed: int, iterations: list[tuple[Path, list[Proc]]]) -> None:
    """Mark failed processes: nonzero exit, a failed output check, or bytes that
    differ from the first iteration's. Content is checked on the first
    iteration; any other iteration with the same digest has the same bytes."""
    sequence = wl.steps(workload, seed)
    first_dir, first = iterations[0]
    for i, (step, proc) in enumerate(zip(sequence, first)):
        try:
            wl.check_step(workload, size, seed, step, proc.stdout, first_dir)
        except (wl.CheckError, OSError, ValueError, KeyError) as exc:
            for _, procs in iterations:
                procs[i].errors.append(f"check: {exc}")
    for _, procs in iterations:
        for proc, ref in zip(procs, first):
            if proc.code != 0:
                proc.errors.append(f"exit {proc.code}: {proc.stderr.strip()[-300:]}")
            if proc.digest != ref.digest:
                proc.errors.append("output bytes differ from the first iteration")


def workload_digest(procs: list[Proc]) -> str:
    return hashlib.sha256("".join(p.digest for p in procs).encode()).hexdigest()


def run_untraced(workload: str, seed: int, seconds: float, size: str, corrupt: bool = False) -> dict:
    setup = []
    for k in range(SETUP_REPEATS):
        setup.append(build_inputs(workload, seed, size, fresh_dir(WORK / f"setup{k}"), run_subprocess))
    inputs = WORK / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    (WORK / f"setup{SETUP_REPEATS - 1}" / "inputs").rename(inputs)

    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        it_dir = fresh_dir(WORK / f"it{len(iterations):03d}")
        iterations.append((it_dir, run_sequence(workload, seed, it_dir, run_subprocess,
                                                corrupt=corrupt and not iterations)))
    check_iterations(workload, size, seed, iterations)

    procs = [p for _, ps in iterations for p in ps]
    rates = [wl.COHORT / sum(p.wall for p in ps) for _, ps in iterations]
    return {
        "procs": procs,
        "digest": workload_digest(iterations[0][1]),
        "samples": {"subjects_per_s": rates, "setup_s": setup},
        "metrics": {
            "subjects_per_s": statistics.median(rates),
            "peak_rss_mb": max(p.rss_mb for p in procs),
            "setup_s": statistics.median(setup),
        },
    }


def import_voxaug():
    sys.path.insert(0, str(SRC))
    import voxaug.cli

    if Path(voxaug.cli.__file__).resolve().parent != SRC / "voxaug":
        raise SystemExit(f"error: imported voxaug from {voxaug.cli.__file__}, not {SRC}")


def startup_probe() -> float:
    """Median wall time of a fresh process that only imports voxaug.cli."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import voxaug.cli"], env=child_env(),
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_pass(workload: str, seed: int, size: str, base: Path, tracer) -> tuple[float, list[Proc]]:
    start = time.perf_counter()
    if tracer is not None:
        tracer.phase = "setup"
    build_inputs(workload, seed, size, base, run_inprocess)
    if tracer is not None:
        tracer.phase = "sequence"
    it_dir = fresh_dir(base / "it000")
    procs = run_sequence(workload, seed, it_dir, run_inprocess)
    wall = time.perf_counter() - start
    check_iterations(workload, size, seed, [(it_dir, procs)])
    return wall, procs


def run_traced(workload: str, seed: int, size: str) -> dict:
    import_voxaug()
    os.environ.update({k: v for k, v in child_env().items() if k in ("VOXAUG_THREADS", "TMPDIR")})
    plain_wall, plain = traced_pass(workload, seed, size, fresh_dir(WORK / "untraced"), None)
    with tracing.Tracer() as tracer:
        traced_wall, traced = traced_pass(workload, seed, size, fresh_dir(WORK / "traced"), tracer)
    tracer.write_jsonl(WORK / f"trace_{workload}.jsonl")
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            b.errors.append("traced output bytes differ from the untraced run")

    metrics = tracing.layer_metrics(tracer, THREADS)
    metrics["cli.startup_s"] = startup_probe()
    metrics["cli.processes"] = len(traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return {
        "procs": plain + traced,
        "digest": workload_digest(traced),
        "samples": {},
        "metrics": metrics,
    }


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": THREADS,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "VOXAUG_THREADS": THREADS,
        "blas_pins": {k: os.environ[k] for k in BLAS_PINS},
        "seed": seed,
    }


def metric_block(result: dict, trace: bool) -> dict:
    if trace:
        names = [(n, u) for n, u, _ in tracing.PER_LAYER]
    else:
        names = END_TO_END
    return {n: {"value": result["metrics"][n], "unit": u} for n, u in names}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 corrupt: bool = False) -> dict:
    try:
        if trace:
            result = run_traced(workload, seed, size)
        else:
            result = run_untraced(workload, seed, seconds, size, corrupt=corrupt)
    finally:
        for p in WORK.iterdir():
            if p.is_dir():
                shutil.rmtree(p)
    procs = result["procs"]
    result["attempted"] = len(procs)
    result["failed"] = sum(p.failed for p in procs)
    result["errors"] = sorted({e for p in procs for e in p.errors})
    result["correct"] = result["failed"] == 0
    return result


def summary_line(workload: str, result: dict, trace: bool) -> str:
    ratio = f"failed_ratio={result['failed']}/{result['attempted']} failed/attempted"
    if trace:
        absent = [n for n, _, _ in tracing.PER_LAYER if result["metrics"][n] is None]
        return (f"{workload}: traced run, {len(tracing.PER_LAYER)} per-layer metrics "
                f"({len(absent)} absent {absent}), {ratio}")
    m, n = result["metrics"], result["samples"]
    return (f"{workload}: subjects_per_s={m['subjects_per_s']:.4f} subjects/s "
            f"(median of {_listed(n['subjects_per_s'])}) peak_rss_mb={m['peak_rss_mb']:.1f} MB "
            f"setup_s={m['setup_s']:.3f} s (median of {_listed(n['setup_s'])}) {ratio}")


def _listed(values) -> str:
    return f"{len(values)}: " + ", ".join(f"{v:.4g}" for v in values)


def report(workload: str, seed: int, result: dict, trace: bool) -> None:
    print(summary_line(workload, result, trace))
    for e in result["errors"]:
        print(f"{workload}: FAILED {e}")
    print(f"{workload}: output digest {result['digest']}")
    if trace:
        for name, unit, _ in tracing.PER_LAYER:
            value = result["metrics"][name]
            shown = "absent" if value is None else f"{value:.6g} {unit}"
            print(f"  {name} = {shown}")
    record = {"workload": workload, "trace": int(trace), "machine": machine_facts(seed),
              "digest": result["digest"], "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": metric_block(result, trace)}
    (WORK / f"result_{workload}_trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")


def smoke() -> int:
    """Tiny-shape self-test: every metric is printed with its unit or marked
    absent, traced and untraced outputs agree, and a corrupted output counts."""
    problems = []
    for workload in wl.WORKLOADS:
        digests = {}
        for trace in (False, True):
            result = run_workload(workload, 1, 0.1, trace, "smoke")
            report(workload, 1, result, trace)
            digests[trace] = result["digest"]
            names = [n for n, _, _ in tracing.PER_LAYER] if trace else [n for n, _ in END_TO_END]
            for name in names:
                value = result["metrics"].get(name, "missing")
                if not (value is None or isinstance(value, (int, float)) and np.isfinite(value)):
                    problems.append(f"{workload}: metric {name} is {value!r}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result['errors']}")
        if digests[False] != digests[True]:
            problems.append(f"{workload}: traced digest differs from the untraced one")
    corrupted = run_workload("augment_io", 1, 0.1, False, "smoke", corrupt=True)
    if corrupted["failed"] == 0:
        problems.append("a label map with label 3 did not count as a failure")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-shape self-test of the benchmark")
    args = parser.parse_args(argv)
    if not (SRC / "voxaug" / "cli.py").is_file():
        print(f"error: no voxaug sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    lock_path = WORK / ".lock"
    lock = open(lock_path, "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        print(f"error: another benchmark run is using {WORK}", file=sys.stderr)
        return 3
    for p in WORK.iterdir():
        if p.is_dir():
            shutil.rmtree(p)
        elif p != lock_path:
            p.unlink()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    trace = bool(args.trace)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        results[workload] = run_workload(workload, args.seed, args.seconds, trace, "full")
        report(workload, args.seed, results[workload], trace)
    print(json.dumps({"machine": machine_facts(args.seed)}))
    if len(names) == 1:
        metrics = metric_block(results[names[0]], trace)
    else:
        metrics = {f"{w}.{n}": v for w, r in results.items() for n, v in metric_block(r, trace).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
