"""One op of a workload and the closed loop that runs a list of them."""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """An op finished but its output failed a correctness check."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """A dataset or command: ``run`` is timed, ``check`` verifies its outputs.

    ``dataset`` groups ops that process one record; it defaults to the op.
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    dataset: str | None = None


def run_phase(ops: list[Op], tracer, probe=None) -> dict:
    """Run ops one after another, one caller, each after the previous ended.

    An op that raises or fails its check is counted and the loop goes on.
    Each op's latency covers ``run`` only, not the check. With a
    ``speed.SpeedProbe`` each op also gets its normalized time.
    """
    records = []
    if probe is not None:
        probe.start()
    start_ns = time.perf_counter_ns()
    try:
        for op in ops:
            record = {"id": op.id, "dataset": op.dataset or op.id}
            with tracer.span("bench.op", op=op.id):
                started = time.perf_counter()
                record["started"] = started
                try:
                    outputs = op.run()
                    record["latency_s"] = time.perf_counter() - started
                    record.update(op.check(outputs), ok=True)
                except Exception as err:  # every failure is counted, none stops the run
                    record.setdefault("latency_s", time.perf_counter() - started)
                    record.update(
                        ok=False,
                        error=f"{type(err).__name__}: {err}",
                        traceback=traceback.format_exc(limit=4),
                    )
            records.append(record)
    finally:
        if probe is not None:
            probe.stop()
    end_ns = time.perf_counter_ns()
    if probe is not None:
        # An op's window reaches past its end, so normalize once all samples are in.
        for record in records:
            norm_s, kernel_s, samples = probe.normalize(
                record["started"], record["started"] + record["latency_s"]
            )
            record.update(norm_s=norm_s, kernel_s=kernel_s, samples=samples)
    return {
        "start_ns": start_ns,
        "end_ns": end_ns,
        "wall_s": (end_ns - start_ns) / 1e9,
        "ops": records,
    }
