"""nlspd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nlspd is imported from its ``src``.
Workloads (see BENCHMARK.json): ``scaled-batch``, ``raw-large-mu`` and
``cli-readme``. Each run starts fresh workload processes: some set up and
stop, so set-up time is a median, and one runs the timed phase, one
caller in a closed loop. With ``--trace 0`` a speed probe samples the
host's speed through set-up and the phase, and the end-to-end times are
normalized to it (see speed.py); the raw wall times are in the record. With
``--trace 1`` the phase runs with spans around every call into nlspd,
without the probe, and the per-layer metrics are reported.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it is
the run's record (environment, counters, failures), which is also written
with the spans to ``.perfbench/<workload>-seed<N>-trace<T>.json``.

Beside this script: ``layers.json`` maps each per-layer metric to the
end-to-end metric it should move, ``baseline.json`` holds the seed-state
numbers, and ``spread.py`` measures run-to-run spread over seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# One BLAS thread: nproc is 2 on the reference machine, and a single thread
# keeps BLAS from contending with the other core's load.
BLAS_THREADS = "1"
SETUP_SAMPLES = 3
# The whole run must end within 180 s.
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py in its own process group; return its last stdout line as JSON."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkerFailed(f"worker {args} passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise WorkerFailed(f"worker {args} exited with {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"worker {args} printed nothing")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "nlspd" / "__init__.py").is_file():
        print(f"error: {root} holds no nlspd source (src/nlspd)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads}", file=sys.stderr)
        return 2
    seconds = args.seconds or spec["run_seconds"]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
    ]
    try:
        setups = [
            run_worker([*worker_args, "--setup-only"], env, deadline)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result = run_worker([*worker_args, "--trace", str(args.trace)], env, deadline)
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setups.append(result)
    setup_s = statistics.median(s["setup_s"] for s in setups)

    if args.trace:
        values, listed = result["per_layer"], spec["per_layer"]
    else:
        values, listed = dict(result["end_to_end"], setup_s=setup_s), spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1

    ops = [op for phase in result["phases"].values() for op in phase["ops"]]
    failures = [{"id": op["id"], "error": op["error"]} for op in ops if not op["ok"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_wall_s_samples": [s["setup_wall_s"] for s in setups],
        "metrics": values,
        **result["record"],
        "environment": result["environment"],
        "failures": failures,
    }
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({**record, **result}, indent=1))

    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
