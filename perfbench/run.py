#!/usr/bin/env python3
"""irislogic benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload enroll --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass plus the tracing overhead. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See README.md beside this
file for what each workload exercises.
"""

from __future__ import annotations

import os

# one closed-loop caller: numpy's BLAS pool gets a single thread, so the run
# never has more threads than cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
NULL_TRACER = NullTracer()

#: end-to-end metrics: name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "job_s": "s",
}

#: per-layer metrics: name -> unit; a layer a workload bypasses reads 0
PER_LAYER = {
    "octal_algebra.verification_checks.s": "s",
    "decision_engine.classify.calls": "count",
    "decision_engine.classify.s": "s",
    "decision_engine.defuzzify.calls": "count",
    "decision_engine.defuzzify.s": "s",
    "decision_engine.decide.calls": "count",
    "decision_engine.decide.s": "s",
    "decision_engine.psi.calls": "count",
    "enrollment.generate_population.s": "s",
    "enrollment.pair_scores.s": "s",
    "enrollment.pair_scores.pairs": "count",
    "enrollment.pair_scores.peak_mb": "MB",
    "enrollment.similarity.calls": "count",
    "enrollment.similarity.s": "s",
    "enrollment.enroll.calls": "count",
    "enrollment.enroll.s": "s",
    "enrollment.enroll.accepted_ratio": "ratio",
    "enrollment.consistency_check.s": "s",
    "enrollment.consistency_check.pairs": "count",
    "enrollment.verify.calls": "count",
    "enrollment.verify.s": "s",
    "enrollment.verify.repeat_ratio": "ratio",
    "enrollment.save_gallery.s": "s",
    "enrollment.save_gallery.bytes": "bytes",
    "enrollment.load_gallery.s": "s",
    "calibration.write_scores_csv.s": "s",
    "calibration.write_scores_csv.bytes": "bytes",
    "calibration.read_scores_csv.s": "s",
    "calibration.read_scores_csv.rows": "count",
    "calibration.empirical_curves.s": "s",
    "calibration.derive_bands.s": "s",
    "calibration.write_curves_csv.s": "s",
    "cli.algebra_verify.s": "s",
    "cli.simulate.s": "s",
    "cli.calibrate.s": "s",
    "cli.decide.s": "s",
    "cli.curves.s": "s",
    "cli.enroll.ms_p50": "ms",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["calibrate", "enroll", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run, in seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for the self-test")
    return parser.parse_args(argv)


def load_program() -> str | None:
    """Import irislogic from this checkout's src/, and nowhere else.

    Returns an error line when that is not possible.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import irislogic
    except ImportError as exc:
        return f"error=program_missing detail={exc}"
    where = Path(irislogic.__file__).resolve().parent
    if where != (src / "irislogic").resolve():
        return (f"error=program_missing detail=irislogic imported from "
                f"{where}, not from {src}")
    return None


def run_record(args, sizes, setups, passes) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "inputs": sizes, "setups": setups, "passes": passes,
        "nproc": os.cpu_count(), "blas_threads": 1,
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's own .git, read directly; unknown outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, inp, work, tracer, seconds):
    """Passes until `seconds` of measured time, and at least min_passes."""
    passes, busy = [], 0.0
    while len(passes) < workload.min_passes or busy < seconds:
        gc.collect()
        passes.append(workload.run_pass(inp, work, tracer, seconds - busy))
        busy += passes[-1].busy_s
    return passes


def warm_up(workloads, name, seed, work):
    """One tiny pass, so imports and first-call set-up are not timed."""
    tiny = workloads.WORKLOADS[name](workloads.SIZES["tiny"][name])
    os.makedirs(work)
    inp = tiny.setup(seed, work)
    tiny.run_pass(inp, work, NULL_TRACER)


def raw_durations(spans):
    spans = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
    return spans[:, 1] - spans[:, 0]


def run_untraced(args, workloads, w, work):
    setups = np.empty((w.setup_repeats, 2))
    with SpeedProbe() as setup_probe:
        for k in range(w.setup_repeats):
            d = os.path.join(work, f"setup{k}")
            os.makedirs(d)
            gc.collect()
            setups[k, 0] = time.perf_counter()
            inp = w.setup(args.seed, d)
            setups[k, 1] = time.perf_counter()
    run_dir = os.path.join(work, "run")
    os.makedirs(run_dir)
    with SpeedProbe() as probe:
        passes = measure(w, inp, run_dir, NULL_TRACER, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally = workloads.Tally()
    w.check(inp, passes, run_dir, tally)
    e2e, named = w.metrics(inp, passes, probe.scaled)
    e2e["setup_s"] = float(np.median(setup_probe.scaled(setups)))
    e2e["peak_rss_mb"] = peak_rss_mb
    raw, _ = w.metrics(inp, passes, raw_durations)
    raw["setup_s"] = float(np.median(raw_durations(setups)))
    for name, value, unit, note in named:
        print(f"metric {name}={value!r} {unit} {note}")
    for name in ("setup_s", "peak_rss_mb"):
        print(f"metric {name}={e2e[name]!r} {END_TO_END[name]} "
              f"setups={w.setup_repeats}")
    for name, value in raw.items():
        print(f"unscaled {name}={value!r} {END_TO_END[name]}")
    print(f"speed_probe median_s={float(np.median(probe.durations))!r} "
          f"nominal_s={NOMINAL_S!r} probes={len(probe.durations)}")
    print(f"metric failed_ratio={tally.failed / max(tally.attempted, 1)!r} "
          f"ratio attempted={tally.attempted}")
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return tally, metrics, len(passes)


def run_traced(args, workloads, w, work):
    tracer = Tracer()
    try:
        setup_dir = os.path.join(work, "setup")
        os.makedirs(setup_dir)
        inp = w.setup(args.seed, setup_dir)
    finally:
        tracer.close()
    run_dir = os.path.join(work, "run")
    os.makedirs(run_dir)
    with SpeedProbe() as probe:
        gc.collect()
        plain = w.run_pass(inp, run_dir, NULL_TRACER)
        gc.collect()
        tracer.install()
        try:
            traced = w.run_pass(inp, run_dir, tracer)
        finally:
            tracer.close()
    tally = workloads.Tally()
    w.check(inp, [plain, traced], run_dir, tally)

    values = layer_metrics(tracer)
    values["trace.overhead_ratio"] = (probe.scaled(traced.spans).sum()
                                      / probe.scaled(plain.spans).sum())
    values["enrollment.pair_scores.peak_mb"] = pair_scores_peak_mb(
        w.scored_population(inp))
    for name, (calls, total, own) in sorted(tracer.self_times().items()):
        print(f"span {name} calls={calls} total_s={total!r} self_s={own!r}")
    for name, counter in sorted(tracer.counters.items()):
        print(f"counter {name} calls={counter.calls} s={counter.seconds!r}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return tally, metrics, 2


def layer_metrics(tracer) -> dict[str, float]:
    stats = tracer.self_times()
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        calls, total, _ = stats.get(layer, (0, 0.0, 0.0))
        if layer in tracer.counters:
            calls = tracer.counters[layer].calls
            total = tracer.counters[layer].seconds
        extra = tracer.extra.get(layer, 0)
        if stat == "s":
            values[name] = total
        elif stat == "calls":
            values[name] = calls
        elif stat in ("accepted_ratio", "repeat_ratio"):
            values[name] = extra / calls if calls else 0.0
        elif stat in ("pairs", "bytes", "rows"):
            values[name] = extra
        elif stat == "ms_p50":
            durations = tracer.durations(layer)
            values[name] = (float(np.median(durations)) * 1e3
                            if durations else 0.0)
    return values


def pair_scores_peak_mb(population) -> float:
    """tracemalloc peak of one pair_scores call, measured on its own."""
    from irislogic import enrollment

    gc.collect()
    tracemalloc.start()
    try:
        enrollment.pair_scores(population)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_program()
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    import workloads

    sizes = workloads.SIZES[args.size][args.workload]
    w = workloads.WORKLOADS[args.workload](sizes)
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        warm_up(workloads, args.workload, args.seed,
                os.path.join(work, "warm"))
        runner = run_traced if args.trace else run_untraced
        tally, metrics, passes = runner(args, workloads, w, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    for note in tally.notes:
        print(f"failure {note}")
    record = run_record(args, sizes, 1 if args.trace else w.setup_repeats,
                        passes)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
