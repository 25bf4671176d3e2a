"""The README pipeline, one fresh ``nlspd`` process per command.

Each pass runs the README's seven commands in one working directory on
the README config, whose seed is the workload seed. Every pass after the
first must reproduce the first byte for byte, outputs and manifests alike.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from nlspd.povm import NonlinearSpdParams
from nlspd.simulator import ExperimentConfig
from nlspd.tomography import ProbeSet

from ops import Op, require

# The console script ``nlspd`` is ``nlspd.cli:main``; calling it through the
# interpreter needs no installed package.
ENTRY = [sys.executable, "-c", "from nlspd.cli import main; main()"]
IMPORT_PROBE = [
    sys.executable,
    "-c",
    "import time; t = time.perf_counter(); import nlspd.cli; print(time.perf_counter() - t)",
]

README_TRUTH = [7.29e-4, 9.95e-2]
README_INTENSITIES = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 75.0]
README_TRIALS = 100_000

# Orders of the README truth; pruning must never drop them. It may keep
# order 2 as well: on 119 of 300 seeds it does at 8 probes of 1e5 trials.
TRUE_ORDERS = {0, 1}
FIDELITY_FLOOR = 0.998
# A6 windows: slope of ln P_n against ln eta is n, within these margins.
SLOPE_WINDOWS = {0: 0.1, 1: 0.3, 2: 0.3}

COMMAND_TIMEOUT_S = 60
IMPORT_PROBES = 3

# One pass at the seed state; at least two passes so reruns can be compared.
SECONDS_PER_PASS = 10.0


def _commands(seed: int) -> list[tuple[str, list[str], list[str]]]:
    """(name, arguments, output files) of one README pass."""
    return [
        ("simulate", ["simulate", "config.json", "clicks.csv"], ["clicks.csv"]),
        ("reconstruct", ["reconstruct", "clicks.csv", "povm.json"], ["povm.json"]),
        (
            "reconstruct-scaled",
            ["reconstruct", "--scale-to-95", "clicks.csv", "scaled_povm.json"],
            ["scaled_povm.json"],
        ),
        ("fit", ["fit", "--max-order", "5", "clicks.csv", "fit.json"], ["fit.json"]),
        ("compare", ["compare", "povm.json", "fit.json"], []),
        (
            "figure-fig2b",
            ["figure", "fig2b", "--bias-current", "20", "povm_elements.csv"],
            ["povm_elements.csv"],
        ),
        (
            "figure-fig3b",
            ["figure", "fig3b", "--seed", str(seed), "loss_scaling.csv"],
            ["loss_scaling.csv"],
        ),
    ]


def _key_values(lines) -> dict:
    return dict(line.split("=", 1) for line in lines if "=" in line)


def _check_output(name: str, workdir: Path, stdout: str) -> dict:
    if name == "fit":
        kept = json.loads((workdir / "fit.json").read_text())["kept_orders"]
        require(TRUE_ORDERS <= set(kept), f"fit dropped a true order: kept {kept}")
        return {"kept_orders": kept}
    if name == "compare":
        fid = float(_key_values(stdout.splitlines())["fidelity"])
        require(fid > FIDELITY_FLOOR, f"fidelity {fid:.6f} <= {FIDELITY_FLOOR}")
        return {"fidelity": fid}
    if name == "reconstruct-scaled":
        k = json.loads((workdir / "scaled_povm.json").read_text())["k"]
        require(k > 0, f"scale factor {k} <= 0")
        return {"k": k}
    if name == "figure-fig3b":
        comments = [
            line[2:] for line in (workdir / "loss_scaling.csv").read_text().splitlines()
            if line.startswith("# ")
        ]
        values = _key_values(comments)
        slopes = {}
        for order, margin in SLOPE_WINDOWS.items():
            slope = float(values[f"slope_order_{order}"])
            require(abs(slope - order) <= margin, f"slope of order {order} is {slope:.3f}")
            slopes[order] = slope
        return {"slopes": slopes}
    return {}


class CliReadme:
    """Fresh-process CLI runs of the README pipeline."""

    name = "cli-readme"
    ops_are_commands = True

    def __init__(self, seed: int, seconds: float, tracer):
        self.tracer = tracer
        # Simulation seeds are unsigned 64-bit; fig3b adds up to 3 to its seed.
        self.seed = seed % 2**32
        probes = ProbeSet(intensities=README_INTENSITIES, trials=README_TRIALS)
        config = ExperimentConfig(
            truth=NonlinearSpdParams(p=README_TRUTH), probes=probes, seed=self.seed,
            trials=README_TRIALS,
        )
        out_dir = Path(__file__).resolve().parent.parent / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-readme-", dir=out_dir))
        (self.workdir / "config.json").write_text(json.dumps(config.to_dict()))
        self.passes = max(2, round(seconds / SECONDS_PER_PASS))
        self.first_pass: dict[str, bytes] = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def ops(self) -> list[Op]:
        return [
            self._command(index, name, args, outputs)
            for index in range(self.passes)
            for name, args, outputs in _commands(self.seed)
        ]

    def _command(self, index: int, name: str, args: list[str], outputs: list[str]) -> Op:
        def run():
            return self.tracer.call(
                f"cli.{name}", subprocess.run, ENTRY + args,
                cwd=self.workdir, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
            )

        def check(done):
            require(
                done.returncode == 0,
                f"exit {done.returncode}: {done.stderr.strip()[-300:]}",
            )
            counters = {"command": name, **_check_output(name, self.workdir, done.stdout)}
            produced = {"stdout": done.stdout.encode()}
            for output in outputs:
                for path in (output, f"{output}.manifest.json"):
                    produced[path] = (self.workdir / path).read_bytes()
            changed = [
                key for key, data in produced.items()
                if self.first_pass.setdefault(f"{name}:{key}", data) != data
            ]
            require(not changed, f"rerun differs from the first pass in {changed}")
            return counters

        return Op(f"pass{index}-{name}", run, check, dataset=f"pass{index}")

    def after_traced_phase(self) -> dict:
        """Median ``import nlspd.cli`` time in a fresh interpreter, and output bytes per pass."""
        samples = []
        for _ in range(IMPORT_PROBES):
            done = subprocess.run(
                IMPORT_PROBE, capture_output=True, text=True, check=True,
                timeout=COMMAND_TIMEOUT_S,
            )
            samples.append(float(done.stdout.strip()))
        output_bytes = sum(
            len(data) for key, data in self.first_pass.items() if not key.endswith(":stdout")
        )
        return {"cli_import_s": statistics.median(samples), "cli_output_bytes": output_bytes}

