"""tetronsim benchmark: four CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep-rate --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``tetronsim`` from its
``src/`` directory, in process, through ``tetronsim.cli.main``.  With
``--trace 0`` it repeats the workload untraced for ``--seconds`` and reports
the end-to-end metrics as medians over the repetitions; with ``--trace 1`` it
splits the time between untraced and traced repetitions and reports the
per-layer metrics of the traced repetition with the median wall time.  Every
repetition's output is checked (``checks.py``).  The last line of standard
output is one JSON object; a fuller result with the environment block is
written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters per run for setup_s, about 0.9 s each.  The median of
# seven rides out a slow child on a shared host.
SETUP_REPEATS = 7
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tetronsim.cli
t1 = time.perf_counter()
tetronsim.cli.parse_config(sys.argv[2])
print(t1 - t0)
"""
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str:
    # The ceiling keeps git from finding a repository above a plain checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + deps[k].get("version", "?")
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = {"blas": "unknown", "lapack": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def measure_setup(ini: Path):
    """Median wall time of a fresh interpreter to a parsed config, and of its import."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(ini)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("setup child failed: %s" % proc.stderr.strip())
        imports.append(float(proc.stdout.strip()))
    return statistics.median(walls), statistics.median(imports)


class Workload:
    """One workload's generated input and its timed, checked CLI runs."""

    def __init__(self, name: str, mapping: dict):
        self.name = name
        self.mapping = mapping
        work = OUT / ("work-" + name)
        work.mkdir(parents=True, exist_ok=True)
        self.ini = work / "input.ini"
        self.csv = work / "output.csv"
        workloads.write_ini(self.mapping, self.ini)
        self.attempted = 0
        self.failed = 0

    def run(self, cli, tracer=None):
        """One ``cli.main`` call: (wall s, cpu s), with its rows checked."""
        for path in (self.csv, self.csv.with_suffix(".csv.meta.json")):
            path.unlink(missing_ok=True)
        argv = ["run", "--config", str(self.ini), "--out", str(self.csv), "--quiet"]
        if tracer is None:
            wrapped = spans.find_wrappers()
            if wrapped:
                raise RuntimeError("untraced run found tracing wrappers: %s" % wrapped)
        root = contextlib.nullcontext() if tracer is None else tracer.span(spans.ROOT)
        start, cpu = time.perf_counter(), time.process_time()
        with root:
            code = cli.main(argv)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        attempted, failed = checks.check_output(self.name, self.mapping, self.csv, code)
        self.attempted += attempted
        self.failed += failed
        return wall, cpu


def _repeat(seconds: float, fn):
    """Call ``fn`` at least once, and again while the next call, as long as
    the last one, would still end within ``seconds``."""
    samples, start = [], time.perf_counter()
    while True:
        before = time.perf_counter()
        samples.append(fn())
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            return samples


def end_to_end(workload: Workload, cli, seconds: float, setup_s: float):
    """End-to-end metrics and the (wall s, cpu s) of every repetition."""
    samples = _repeat(seconds, lambda: workload.run(cli))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(s[0] for s in samples),
        "cpu_s": statistics.median(s[1] for s in samples),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - workload.failed / workload.attempted,
    }, samples


def per_layer(workload: Workload, cli, seconds: float, import_s: float):
    """Per-layer metrics, the absent layers, and the spans they came from."""
    from tetronsim.experiments import parse_config

    untraced = _repeat(seconds / 2.0, lambda: workload.run(cli))
    tracer = spans.Tracer()
    with tracer:
        def traced():
            tracer.run_id += 1
            return workload.run(cli, tracer)
        traced_samples = _repeat(seconds / 2.0, traced)

    roots = {s.run: s for s in tracer.spans if s.name == spans.ROOT}
    chosen = sorted(roots.values(), key=lambda s: s.duration)[(len(roots) - 1) // 2]
    run_spans = [s for s in tracer.spans if s.run == chosen.run]
    summary = spans.layer_summary(run_spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "us_p50": 0.0}

    metrics = {}
    for name in spans.LAYERS:
        if name.startswith("experiments."):
            continue
        for field, value in summary.get(name, empty).items():
            metrics["%s.%s" % (name, field)] = value
    metrics["experiments.parse_s"] = summary.get("experiments.parse", empty)["s"]
    metrics["experiments.write_s"] = summary.get("experiments.write", empty)["s"]
    metrics["experiments.rows"] = max(0, len(workload.csv.read_text().splitlines()) - 1)

    evolve_steps, oracle_steps = workloads.step_counts(parse_config(workload.ini))
    steps, fock_steps = sum(evolve_steps), sum(oracle_steps)
    metrics["dynamics.steps"] = steps
    metrics["dynamics.step_us"] = (
        metrics["dynamics.evolve_ramp.self_s"] / steps * 1e6 if steps else 0.0)
    metrics["dynamics.fock_steps"] = fock_steps
    metrics["dynamics.fock_step_us"] = (
        metrics["dynamics.fock_oracle.self_s"] / fock_steps * 1e6 if fock_steps else 0.0)
    trials = int(workload.mapping.get("walk", {}).get("trials", 0))
    for length in workloads.WALK_LENGTHS:
        walk_s = sum(s.duration for s in run_spans
                     if s.name == "qpwalk.simulate_pair_walks" and s.key == length)
        metrics["qpwalk.trial_us.L%d" % length] = walk_s / trials * 1e6 if trials else 0.0

    metrics["setup.import_s"] = import_s
    metrics["trace.wall_s"] = chosen.duration
    metrics["trace.remainder_s"] = spans.self_times(run_spans)[chosen.id]
    metrics["trace.overhead_frac"] = (statistics.median(s[0] for s in traced_samples)
                                      / statistics.median(s[0] for s in untraced) - 1.0)
    return metrics, tracer.absent, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tetronsim" / "cli.py").is_file():
        print("perfbench: no tetronsim source at %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.NAMES:
        parser.error("--workload must be one of %s" % ", ".join(workloads.NAMES))

    workload = Workload(args.workload, workloads.config_for(args.workload, args.seed))
    setup_s, import_s = measure_setup(workload.ini)
    from tetronsim import cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        print("perfbench: imported tetronsim from %s, not %s" % (cli.__file__, SRC),
              file=sys.stderr)
        return 2

    absent, trace_spans, samples = [], [], None
    if args.trace:
        values, absent, trace_spans = per_layer(workload, cli, args.seconds, import_s)
    else:
        values, samples = end_to_end(workload, cli, args.seconds, setup_s)
    units = _units("per_layer" if args.trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples_wall_cpu_s": samples,
        "environment": environment(args.seed),
        "input": workload.mapping,
        "absent": absent,
        "metrics": metrics,
    }
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(result, indent=2) + "\n")
    if trace_spans:
        (OUT / (stem + "-spans.json")).write_text(json.dumps(
            [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
              "parent": s.parent, "run": s.run} for s in trace_spans]) + "\n")

    for name, metric in metrics.items():
        note = "  (absent)" if any(name.startswith(a + ".") or name.startswith(a + "_")
                                   for a in absent) else ""
        print("%-44s %16.6g %s%s" % (name, metric["value"], metric["unit"], note))
    correct = workload.failed == 0
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


def _units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with (ROOT / "BENCHMARK.json").open() as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
