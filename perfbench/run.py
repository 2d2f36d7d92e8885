#!/usr/bin/env python3
"""Benchmark of tgcl: one workload through ``tgcl.harness.execute``.

Run from the repository root::

    python3 perfbench/run.py --workload main --seed 0 --seconds 50 --trace 0

Set-up resolves the workload's config for the seed and builds its graph;
an untimed warm-up on a tiny graph follows. With ``--trace 0`` the
benchmark then calls ``execute`` back to back for as many calls as fit in
``--seconds`` (at least two; the outputs must match byte for byte) and
prints the end-to-end metrics. A timing is reported per reference task: a
fixed task timed between calls (``hostspeed.py``) slows with the host as
tgcl does, so the ratio stays steady on a shared host. With ``--trace 1``
it times one untraced and one traced ``execute`` (``jobs=1``) and prints
the per-layer metrics. Every output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_out"
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3  # the run's own set-up plus fresh-process repeats
MIN_EXECUTES = 2
TIME_BUDGET_S = 140.0  # start no execute that would end past this

END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "setup_s": "s",
    "epoch_ref": "ref",
    "peak_rss_mb": "MB",
    "ap_final": "fraction",
    "retention_final": "fraction",
    "ok_frac": "fraction",
}
#: per-layer metrics measured by the runner rather than from spans
RUN_LAYER = {"harness.parallel_efficiency": "ratio", "trace.overhead_frac": "ratio"}
#: keys of workloads.WORKLOADS; BENCHMARK.json lists the first two
WORKLOAD_NAMES = ("main", "scale-select", "partition-sweep")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def _cpu_s() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


class Execution:
    """One timed ``harness.execute`` call."""

    def __init__(self, harness, cfg: dict, out: Path, jobs: int, tracer=None):
        shutil.rmtree(out, ignore_errors=True)
        self.out = out
        self.records = None
        self.error = None
        gc.collect()
        with tracer if tracer is not None else contextlib.nullcontext():
            c0, w0 = _cpu_s(), perf_counter()
            try:
                self.records = harness.execute(cfg, out, jobs=jobs)
            except Exception:  # a failing run is counted, not fatal
                self.error = traceback.format_exc()
            self.wall_s = perf_counter() - w0
            self.cpu_s = _cpu_s() - c0

    def epoch_ms(self) -> float | None:
        """Mean over runs of each run's mean epoch time at the final period."""
        per_run = [
            statistics.fmean(r.final.epoch_wall_ms) for r in self.records or () if r.final.epoch_wall_ms
        ]
        return statistics.fmean(per_run) if per_run else None

    def run_seconds(self) -> float:
        return sum(
            json.loads(p.read_text())["total_s"] for p in self.out.glob("runs/*/record.json")
        )


def check_all(checks, cfg: dict, graph, executions: list[Execution]) -> tuple[int, dict]:
    """Failed run count over all executions and the problems found."""
    old_train = checks.OldTrainNodes(graph)
    failed, report = 0, {}
    for i, ex in enumerate(executions):
        problems = checks.check_execute(cfg, ex.out, old_train)
        if i > 0:
            for run_id, extra in checks.check_same(cfg, executions[0].out, ex.out).items():
                problems[run_id] += extra
        if ex.error is not None:
            for found in problems.values():
                found.append("execute raised")
        bad = {run_id: found for run_id, found in problems.items() if found}
        failed += len(bad)
        if bad or ex.error:
            report[ex.out.name] = {"problems": bad, "error": ex.error}
    return failed, report


def final_quality(records) -> tuple[float | None, float | None]:
    """Mean final-period AP over runs, and 1 - mean final-period AF."""
    if not records:
        return None, None
    afs = [r.final.af for r in records if r.final.af is not None]
    ap = statistics.fmean(r.final.ap for r in records)
    return ap, (1.0 - statistics.fmean(afs)) if afs else None


def probe_setup(args, root: Path) -> list[float]:
    """Set-up times of fresh processes that only set up."""
    samples = []
    for i in range(SETUP_SAMPLES - 1):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--probe-setup", str(root / f"probe{i}"),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure_end_to_end(harness, hostspeed, cfg: dict, jobs: int, work: Path, seconds: float):
    """Untraced ``execute`` calls, back to back, as many as fit in ``seconds``
    going by the last call's time (at least ``MIN_EXECUTES``), with the
    reference task timed before the first call and after each, for a tenth
    of the call's time.

    Every call does the same work (their outputs must match byte for byte),
    so timings that differ between calls measure other load on the host.
    The calls' wall, CPU and epoch times are reported as totals over the
    total reference time around the calls. The raw samples and their
    medians go into the details line.
    """
    reference = hostspeed.Reference()
    refs = [reference.gap()]
    executions: list[Execution] = []
    t_measure = perf_counter()
    while len(executions) < MIN_EXECUTES or (
        perf_counter() - t_measure + executions[-1].wall_s * (1 + hostspeed.REFERENCE_SHARE) < seconds
        and perf_counter() - T_START + executions[-1].wall_s < TIME_BUDGET_S
    ):
        executions.append(Execution(harness, cfg, work / f"exec{len(executions)}", jobs))
        refs.append(reference.gap(hostspeed.REFERENCE_SHARE * executions[-1].wall_s))
    # read before the set-up probes, which are children too
    usage_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    epoch = [ex.epoch_ms() for ex in executions]
    samples = {
        "wall_s": [ex.wall_s for ex in executions],
        "cpu_s": [ex.cpu_s for ex in executions],
        "epoch_s": None if None in epoch else [e / 1000.0 for e in epoch],
        "reference_s": refs,
    }
    values = {
        f"{name}_ref": hostspeed.per_reference(samples[f"{name}_s"], refs)
        if samples[f"{name}_s"] is not None
        else None
        for name in ("wall", "cpu", "epoch")
    }
    ap, retention = final_quality(executions[0].records)
    values.update({
        "peak_rss_mb": usage_kb / 1024.0,
        "ap_final": ap,
        "retention_final": retention,
    })
    return executions, values, samples


def measure_layers(harness, spans, cfg: dict, jobs: int, work: Path):
    """One untraced and one traced ``execute`` call (plus an untraced one
    with ``jobs=1`` when the workload uses a pool, as the overhead base)."""
    executions = [Execution(harness, cfg, work / "exec0", jobs)]
    base = executions[0]
    if jobs > 1:
        base = Execution(harness, cfg, work / "exec1", 1)
        executions.append(base)
    tracer = spans.Tracer()
    traced = Execution(harness, cfg, work / "traced", 1, tracer=tracer)
    executions.append(traced)
    tracer.write(work / "spans.csv")
    values = tracer.metrics()
    values["harness.parallel_efficiency"] = executions[0].run_seconds() / (jobs * executions[0].wall_s)
    values["trace.overhead_frac"] = traced.wall_s / base.wall_s - 1.0
    return executions, values, {**spans.metric_units(), **RUN_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tgcl" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'tgcl'} not found; run from a tgcl checkout", file=sys.stderr)
        return 2
    for var in THREAD_PINS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    work = Path(args.probe_setup) if args.probe_setup else (
        WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(work, ignore_errors=True)

    t_setup = perf_counter()
    import tgcl
    from tgcl import harness

    import checks
    import hostspeed
    import spans
    import workloads

    if Path(tgcl.__file__).resolve().parent != (ROOT / "src" / "tgcl").resolve():
        print(f"error: imported tgcl from {tgcl.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    cfg, graph = workloads.setup(args.workload, args.seed, work)
    setup_s = perf_counter() - t_setup
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    warm = workloads.tiny_config(args.workload, args.seed, work)
    harness.execute(warm, work / "warmup", jobs=workload.jobs)

    details: dict = {"workload": args.workload, "env": environment(args.seed)}
    if args.trace:
        executions, values, units = measure_layers(harness, spans, cfg, workload.jobs, work)
    else:
        executions, values, details["samples"] = measure_end_to_end(
            harness, hostspeed, cfg, workload.jobs, work, args.seconds
        )
        details["medians"] = {
            name: statistics.median(v) for name, v in details["samples"].items() if v is not None
        }
        setup = [setup_s] + probe_setup(args, work)
        values["setup_s"] = statistics.median(setup)
        details["samples"]["setup_s"] = setup
        units = END_TO_END

    failed, details["problems"] = check_all(checks, cfg, graph, executions)
    attempted = len(harness.plan_runs(cfg)) * len(executions)
    if not args.trace:
        values["ok_frac"] = 1.0 - failed / attempted
    correct = failed == 0 and all(v is not None for k, v in values.items() if k in END_TO_END)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(json.dumps({**details, **result}, indent=2) + "\n")
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
