"""fluidnet benchmark: one workload, one seed, a closed loop with one caller.

    python3 perfbench/run.py --workload fixture_verdicts --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload in turn
    python3 perfbench/run.py --smoke

Run from the root of a checkout; fluidnet is imported from its ``src``.  The
seed generates the workload's task list (see workloads.py).  One pass runs
every task once, in order, each after the previous one returned; passes repeat
while another pass as long as the last fits into ``--seconds``, and at least
MIN_PASSES times.  Every task's result is checked after its timed call; failed
checks are counted, not raised.  Times are scaled to a reference machine speed
measured by a calibration kernel between tasks (see Calibration).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead (traced minus untraced pass time).  The last
line of standard output is one JSON object; the lines before it list every
metric with its unit, the tail percentile and its sample count, the failure
share, the pinned environment and the output digest.  Spans and the full
result are written under ``.perfbench_run/`` in the checkout.
"""
from __future__ import annotations

import os

# Pin every thread pool before numpy is imported; child processes inherit this.
PINNED_ENV = {
    "FLUIDNET_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402  (after the pins)
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_run")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
MIN_PASSES = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Machine-speed calibration (see Calibration): a reference kernel runs between
# tasks whenever CAL_EVERY_S of task time has passed since the last sample.
# CAL_REF_S is the kernel's median time on the 2-CPU Intel Xeon box the
# benchmark was tuned on, when that box was quiet, so the reported times are
# seconds at that speed.
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 1.0
CAL_REF_S = 0.0065


def import_library():
    """Import fluidnet from this checkout's src, and nothing else."""
    if not os.path.isdir(os.path.join(SRC, "fluidnet")):
        raise SystemExit(f"error: no fluidnet package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import fluidnet

    where = os.path.realpath(fluidnet.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: imported fluidnet from {where}, not from {SRC}")
    return fluidnet


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def pin_to_one_cpu() -> tuple[int, int]:
    """Run this process, and the set-up probes it starts, on one CPU.

    The calibration kernel then runs on the CPU whose speed it is to measure;
    the two CPUs of the box the benchmark was tuned on changed speed
    independently.  Returns the usable CPU count and the chosen CPU.
    """
    usable = os.sched_getaffinity(0)
    cpu = min(usable)
    os.sched_setaffinity(0, {cpu})
    return len(usable), cpu


def environment(cpus_usable: int, pinned_cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_cpu": pinned_cpu,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


# ---------------------------------------------------------------------------
# measuring


def calibrate() -> float:
    """Seconds for one run of a fixed reference kernel.

    The kernel mixes what fluidnet's inner loops do: rank tests of small dense
    matrices (an SVD each) and plain interpreter work on floats, ints and a
    dict.  Its work never changes, so its time measures the machine's speed.
    """
    import numpy as np

    mats = np.linspace(0.1, 4.7, 48 * 30).reshape(48, 6, 5)
    mats = np.sin(mats * np.arange(1, 31).reshape(6, 5))
    start = time.perf_counter()
    acc, counts = 0.0, {}
    for rep in range(6):
        for k in range(48):
            acc += float(np.linalg.matrix_rank(mats[k, :4])) + float(mats[k].sum())
            counts[k % 17] = counts.get(k % 17, 0) + k * rep
        acc += sum(i * i % 7 for i in range(3000))
    return time.perf_counter() - start


class Calibration:
    """Samples of the reference kernel, taken between timed calls.

    The box the benchmark was tuned on changed speed by a factor of two and
    more on fixed inputs, in spells of a second to minutes (pass times fell
    from 12.1 s to 8.2 s over six minutes; the kernel alone switched between
    6.5 ms and 14 ms within a second), as other tenants of the host came and
    went.  No length of run averages that out, so every reported time is
    scaled to the reference speed: a call's seconds times CAL_REF_S over the
    mean kernel time around it, from the samples just before and just after
    the call and any others within CAL_WINDOW_S of it.  The window averages
    out the noise of single samples; speed spells last about a second or
    longer.  Over ten seeds in a noisy hour this cut the spread of wall_s on
    scaled_networks from 0.29 to 0.04.  The raw times are kept in the result
    file.  A change to fluidnet cannot move the kernel, so the scaling keeps
    the change's effect whole.  The process is pinned to one CPU
    (pin_to_one_cpu), so the kernel measures the CPU the work runs on.
    """

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.samples: list[float] = []
        self._due = -math.inf

    def sample(self) -> None:
        self.samples.append(calibrate())
        self.times.append(time.perf_counter())
        self._due = self.times[-1] + CAL_EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` of a call that began at ``start``, at the reference speed."""
        end = start + seconds
        first = min(bisect.bisect_right(self.times, start) - 1,
                    bisect.bisect_left(self.times, start - CAL_WINDOW_S))
        last = max(bisect.bisect_left(self.times, end),
                   bisect.bisect_right(self.times, end + CAL_WINDOW_S) - 1)
        near = self.samples[max(first, 0):last + 1]
        return seconds * CAL_REF_S / statistics.fmean(near)


def measure_setup(workload: str, seed: int, size: str, probes: int,
                  cal: Calibration) -> tuple[list[float], list[float]]:
    """Process start to first task ready, in fresh processes (import + inputs).

    Returns the start and the duration of each probe.
    """
    starts, times = [], []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--size", size, "--setup-probe"]
    for _ in range(probes):
        cal.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        starts.append(start)
        times.append(ready - start)
    cal.sample()
    return starts, times


def run_pass(tasks, cal: Calibration, tracer=None):
    """Run every task once; returns starts, latencies, failure messages and digests."""
    starts, latencies, failures, digests = [], [], [], []
    for task_id, task in enumerate(tasks):
        cal.maybe_sample()
        start = time.perf_counter()
        starts.append(start)
        try:
            result = tracer.task(task_id, task.run) if tracer else task.run()
        except Exception as exc:  # a task's error counts as a failure
            latencies.append(time.perf_counter() - start)
            failures.append(f"{task.name}: raised {type(exc).__name__}: {exc}")
            digests.append("")
            traceback.print_exc(file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - start)
        try:
            failure, digest = task.check(result)
        except Exception as exc:  # so does a check that cannot read the result
            failure, digest = f"check raised {type(exc).__name__}: {exc}", ""
        if failure:
            failures.append(f"{task.name}: {failure}")
        digests.append(digest)
    return starts, latencies, failures, digests


def tail_percentile(n_pass: int) -> float:
    """Highest percentile of the per-task medians with at least 10 task runs
    beyond it: every task runs at least MIN_PASSES times, so that many tasks
    lie beyond it.

    Fixed by the task count, so a faster program, which fits more passes into
    the run, is measured at the same percentile.
    """
    return max(0.0, 100.0 * (1.0 - math.ceil(10 / MIN_PASSES) / n_pass))


def timings(setup_times, pass_latencies, pct: float) -> dict[str, float]:
    """The end-to-end timing metrics from set-up times and per-pass task latencies.

    Each task enters at its median latency over the passes, so a burst of
    machine noise that slows one pass, or one call, does not carry into the
    pass time or move the percentiles; the spread across tasks, which is what
    the percentiles describe, stays whole.  Both percentiles are
    Harrell-Davis estimates, Beta-weighted means of the order statistics: the
    tasks near a percentile often form a crowd of near-equal costs (a dozen
    K=5 certificate searches in scaled_networks), and a single order
    statistic jumped by 25% between seeds as the noise reordered the crowd.
    """
    medians = [statistics.median(task) for task in zip(*pass_latencies)]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(medians),
        "task_p50_s": harrell_davis(medians, 0.5),
        "task_tail_s": harrell_davis(medians, pct / 100.0),
    }


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of quantile q: a Beta-weighted mean of the order statistics."""
    import numpy as np
    from scipy.special import betainc  # loaded by fluidnet already; scipy.stats is not

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 1 or q <= 0.0:
        return float(ordered[0])
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ ordered)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 min_passes: int = MIN_PASSES, expected_override=None,
                 setup_probes: int = SETUP_PROBES) -> dict:
    import workloads
    from tracing import Tracer

    cal = Calibration()
    setup_starts, setup_times = ([], []) if trace else measure_setup(
        name, seed, size, setup_probes, cal)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT_DIR)
    try:
        kwargs = {"expected_override": expected_override} if expected_override else {}
        wl = workloads.WORKLOADS[name](seed, workloads.SIZES[size], workdir, **kwargs)
        n_pass = len(wl.tasks)
        passes, tracers = [], []
        failures: list[str] = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            traced = trace and len(passes) % 2 == 1
            tracer = Tracer() if traced else None
            if tracer:
                tracer.install()
            try:
                starts, latencies, failed, digests = run_pass(wl.tasks, cal, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            passes.append({"traced": traced, "starts": starts, "latencies": latencies,
                           "digests": digests})
            failures.extend(failed)
            if tracer:
                tracers.append(tracer)
            # stop once another pass as long as this one would overrun the run
            now = time.perf_counter()
            if len(passes) >= min_passes and 2 * now - pass_start - start > seconds:
                break
        cal.sample()  # so the last task has a sample after it too
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    walls = [sum(p["latencies"]) for p in plain]
    pct = tail_percentile(n_pass)
    attempted = sum(len(p["latencies"]) for p in passes)
    digest_sets = {tuple(p["digests"]) for p in passes}
    result = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "tasks_per_pass": n_pass,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:50],
        "task_tail_percentile": pct,
        "task_tail_samples": len(plain) * n_pass,
        "untraced_passes": len(plain),
        "setup_runs_s": setup_times,
        "pass_wall_s": walls,
        "task_latencies_s": {t.name: [p["latencies"][i] for p in plain]
                             for i, t in enumerate(wl.tasks)},
        "output_digest": workloads.sha256(*(d.encode() for d in passes[-1]["digests"])),
        "passes_with_other_digests": len(digest_sets) - 1,
        "task_digests": dict(zip((t.name for t in wl.tasks), passes[-1]["digests"])),
    }
    if not trace:
        result["raw_s"] = timings(setup_times, [p["latencies"] for p in plain], pct)
        scaled = timings(
            [cal.scaled(*probe) for probe in zip(setup_starts, setup_times)],
            [[cal.scaled(*task) for task in zip(p["starts"], p["latencies"])] for p in plain],
            pct,
        )
        result["calibration"] = {"samples": len(cal.samples),
                                 "median_s": statistics.median(cal.samples),
                                 "kernel_s": cal.samples, "kernel_end_s": cal.times,
                                 "setup_starts_s": setup_starts,
                                 "task_starts_s": [p["starts"] for p in plain],
                                 "task_latencies_s": [p["latencies"] for p in plain]}
        result["metrics"] = {key: (value, "s") for key, value in scaled.items()}
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        from tracing import PER_LAYER

        layers = [t.per_layer() for t in tracers]
        traced_walls = [sum(p["latencies"]) for p in passes if p["traced"]]
        # the first pass also pays one-time costs (lazy imports, solver set-up)
        baseline = walls[1:] or walls
        metrics = {key: statistics.median(row[key] for row in layers) for key in layers[0]}
        metrics["trace.spans"] = statistics.median(len(t.spans) for t in tracers)
        metrics["trace.traced_wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(baseline)
        result["metrics"] = {key: (metrics[key], PER_LAYER[key][0]) for key in PER_LAYER}
        result["span_summary"] = tracers[-1].summary()
        result["untraced_wall_s"] = walls
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json.gz")
        tracers[-1].dump(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    return result


def report(result: dict, env: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"# workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['passes']} passes of {result['tasks_per_pass']} tasks")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for key, (value, unit) in result["metrics"].items():
        note = ""
        if key == "task_tail_s":
            note = (f"  (p{result['task_tail_percentile']:.1f} of {result['tasks_per_pass']} "
                    f"per-task medians over {result['untraced_passes']} passes, "
                    f"{result['task_tail_samples']} task runs)")
        if key in result.get("raw_s", {}):
            note = f"  (raw {result['raw_s'][key]:.6g} s){note}"
        print(f"# {key:42s} {value:14.6g} {unit}{note}")
    if "calibration" in result:
        cal = result["calibration"]
        print(f"# calibration: {cal['samples']} kernel samples, median {cal['median_s']:.6g} s; "
              f"times are scaled to a kernel time of {CAL_REF_S} s")
    print(f"# {'failed_frac':42s} {result['failed_frac']:14.6g} fraction  "
          f"({result['failed']} of {result['attempted']} tasks)")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    print(f"# output digest {result['output_digest']} "
          f"(passes with other digests: {result['passes_with_other_digests']})")
    path = os.path.join(OUT_DIR, f"result-{result['workload']}-seed{result['seed']}"
                                 f"-trace{result['trace']}.json")
    with open(path, "w") as handle:
        json.dump({**result, "environment": env}, handle, indent=1, sort_keys=True)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(line), flush=True)


# ---------------------------------------------------------------------------
# smoke mode


def smoke() -> None:
    """Tiny sizes, same code path: every metric of BENCHMARK.json is emitted
    for every workload, nothing fails, and a wrong expected verdict is counted
    as a failure."""
    import workloads

    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    env = environment(*pin_to_one_cpu())
    for name in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, 1, 0.0, trace, "smoke", min_passes=1 + trace,
                                  setup_probes=1)
            report(result, env)
            want = {m["name"] for m in spec[group]}
            missing = want - set(result["metrics"])
            if missing:
                raise SystemExit(f"smoke: {name} trace={int(trace)} lacks metrics {sorted(missing)}")
            if result["failed"]:
                raise SystemExit(f"smoke: {name} failed tasks: {result['failures']}")
    wrong = run_workload("fixture_verdicts", 1, 0.0, False, "smoke", min_passes=1,
                         setup_probes=1, expected_override={"lu_kumar": "stable"})
    if not wrong["failed_frac"] > 0:
        raise SystemExit("smoke: a wrong expected verdict did not raise failed_frac")
    print(f"# smoke ok: wrong expected verdict gives failed_frac {wrong['failed_frac']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="run the self-check and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.setup_probe:
        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
        try:
            workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.smoke:
        smoke()
        return 0
    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be 'all' or one of {sorted(workloads.WORKLOADS)}")
    env = environment(*pin_to_one_cpu())
    for name in names:
        report(run_workload(name, args.seed, args.seconds, bool(args.trace), args.size), env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
