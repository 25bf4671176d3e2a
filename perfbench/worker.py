"""Workload process: set up one workload, run its timed phase, print one JSON line.

run.py starts this in a fresh interpreter with the BLAS thread count
pinned and ``src`` on the path. Set-up runs from the first line of this
file (before nlspd, numpy and scipy load) until the workload's inputs are
built; its time is normalized with the speed probe (speed.py), which
samples from when numpy has loaded. With ``--setup-only`` the process
stops there.
Otherwise it runs the timed phase: untraced with the speed probe, or with
``--trace 1`` traced and without it.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
from ops import run_phase  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, span_cost_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def build(name: str, seed: int, seconds: float, tracer: Tracer):
    if name == "cli-readme":
        from cli_readme import CliReadme

        return CliReadme(seed, seconds, tracer)
    from library import RawLargeMu, ScaledBatch

    workloads = {"scaled-batch": ScaledBatch, "raw-large-mu": RawLargeMu}
    return workloads[name](seed, seconds, tracer)


def _blas_threads() -> dict:
    """OpenBLAS builds loaded in this process and their thread counts."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            try:
                threads = getattr(library, f"{prefix}_get_num_threads{suffix}")
                config = getattr(library, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            found[Path(path).name] = {
                "config": config().decode(),
                "threads": threads(),
            }
            break
    return found


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "openblas": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _check_source() -> None:
    import nlspd

    source = Path(nlspd.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"nlspd was imported from {source}, not from {ROOT / 'src'}")


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # One CPU for this process and the commands it starts, so the speed
    # probe samples the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    probe = SpeedProbe()
    probe.start()
    try:
        tracer = Tracer(enabled=bool(args.trace))
        workload = build(args.workload, args.seed, args.seconds, tracer)
    finally:
        probe.stop()
    built = time.perf_counter()
    setup_s = probe.normalize(STARTED, built)[0]
    setup_wall_s = built - STARTED
    try:
        _check_source()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0

        commands = workload.ops_are_commands
        if args.trace:
            # The traced phase runs alone, without the speed probe, so spans
            # hold only the workload's own time.
            phase = run_phase(workload.ops(), tracer)
        else:
            phase = run_phase(workload.ops(), tracer, SpeedProbe())
        peak = _peak_rss_mb(children=commands)
        result = {
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
            "environment": environment(),
            "record": dict(metrics.phase_record(phase, commands), peak_rss_mb=peak),
            "phases": {"traced" if args.trace else "untraced": phase},
        }
        if args.trace:
            extras = workload.after_traced_phase()
            result["per_layer"] = metrics.per_layer(tracer.spans, phase, span_cost_s(), **extras)
            result["spans"] = tracer.spans
        else:
            result["end_to_end"] = metrics.end_to_end(phase, peak)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
