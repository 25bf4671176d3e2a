"""End-to-end tests of the command-line interface.

Every command runs in-process through ``main`` so the exit-status
contract (0 success, 1 usage/data error, 2 internal error) is asserted
directly.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlspd
from nlspd import cli, simulator
from nlspd.povm import NonlinearSpdParams
from nlspd.reference import SCALED_PARAMS
from nlspd.simulator import ExperimentConfig, geometric_probe_grid, simulate
from nlspd.tomography import (
    CSV_HEADER,
    ClickRecord,
    ProbeSet,
    read_click_data,
    write_click_data,
)


def run_cli(args):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([str(a) for a in args])
    return excinfo.value.code


@pytest.fixture()
def config_path(tmp_path):
    truth = SCALED_PARAMS[25]
    probes = geometric_probe_grid(truth)
    document = {
        "truth": truth.to_dict(),
        "probes": {
            "intensities": [float(v) for v in probes.intensities],
            "trials": probes.trials,
        },
        "seed": 101,
        "trials": probes.trials,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return path


@pytest.fixture()
def data_csv(tmp_path, config_path):
    out = tmp_path / "clicks.csv"
    assert run_cli(["simulate", config_path, out]) == 0
    return out


def test_simulate_writes_data_and_manifest(tmp_path, config_path):
    out = tmp_path / "clicks.csv"
    assert run_cli(["simulate", config_path, out]) == 0
    assert out.exists()

    manifest = json.loads((tmp_path / "clicks.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 101
    assert manifest["inputs"] == [str(config_path)]
    assert manifest["outputs"] == [str(out)]

    header = out.read_text().splitlines()[0]
    assert header == "mean_photons,trials,clicks"


def test_simulate_rerun_is_byte_identical(tmp_path, config_path):
    out = tmp_path / "clicks.csv"
    assert run_cli(["simulate", config_path, out]) == 0
    first = out.read_bytes()
    first_manifest = (tmp_path / "clicks.csv.manifest.json").read_bytes()
    assert run_cli(["simulate", config_path, out]) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "clicks.csv.manifest.json").read_bytes() == first_manifest


@pytest.mark.parametrize(
    "field, value", [("trials", 2.9), ("seed", 7.8), ("seed", True)]
)
def test_simulate_rejects_non_integral_counts(tmp_path, config_path, capsys, field, value):
    document = json.loads(config_path.read_text())
    document[field] = value
    if field == "trials":
        document["probes"]["trials"] = value
    config_path.write_text(json.dumps(document))
    out = tmp_path / "clicks.csv"
    assert run_cli(["simulate", config_path, out]) == 1
    assert "must be a whole number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("truth", [5, None, [0.1, 0.2]])
def test_simulate_rejects_non_object_truth(tmp_path, config_path, capsys, truth):
    document = json.loads(config_path.read_text())
    document["truth"] = truth
    config_path.write_text(json.dumps(document))
    assert run_cli(["simulate", config_path, tmp_path / "clicks.csv"]) == 1
    assert "truth document must be an object" in capsys.readouterr().err


def test_simulate_refuses_an_oversized_probe(tmp_path, config_path, capsys):
    # Under dark counts alone a 1e15-photon probe never saturates, so it
    # needs its Poisson window of 5.4e8 terms: exit 1 before allocating,
    # and no output, manifest or partial file is left.
    document = json.loads(config_path.read_text())
    document["truth"] = {"p": [1e-3]}
    document["probes"]["intensities"].append(1e15)
    config_path.write_text(json.dumps(document))
    assert run_cli(["simulate", config_path, tmp_path / "clicks.csv"]) == 1
    assert "MiB limit" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_simulate_takes_a_saturated_probe_at_1e15(tmp_path, config_path):
    # The same probe on a detector it saturates starts its window
    # saturated: its click probability is exactly 1, and no window is built.
    document = json.loads(config_path.read_text())
    document["probes"]["intensities"].append(1e15)
    config_path.write_text(json.dumps(document))
    out = tmp_path / "clicks.csv"
    assert run_cli(["simulate", config_path, out]) == 0
    probes, record = read_click_data(out)
    assert probes.intensities[-1] == 1e15
    assert record.clicks[-1] == record.trials


def test_simulate_refuses_a_probe_above_2_53(tmp_path, config_path, capsys):
    # No double holds the photon numbers of a 1e20-photon probe whole; the
    # probe is refused as it is read, not cast to garbage window ends.
    document = json.loads(config_path.read_text())
    document["probes"]["intensities"].append(1e20)
    config_path.write_text(json.dumps(document))
    assert run_cli(["simulate", config_path, tmp_path / "clicks.csv"]) == 1
    assert "too large" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_simulate_accepts_whole_float_counts(tmp_path, config_path):
    # JSON reads 1e5 as 100000.0; the record matches the integer config's.
    reference_csv = tmp_path / "reference.csv"
    assert run_cli(["simulate", config_path, reference_csv]) == 0
    document = json.loads(config_path.read_text())
    document["trials"] = document["probes"]["trials"] = 1e5
    document["seed"] = 101.0
    config_path.write_text(json.dumps(document))
    out = tmp_path / "clicks.csv"
    assert run_cli(["simulate", config_path, out]) == 0
    assert out.read_bytes() == reference_csv.read_bytes()


def test_reconstruct_default_truncation(tmp_path, data_csv):
    out = tmp_path / "povm.json"
    assert run_cli(["reconstruct", data_csv, out]) == 0
    document = json.loads(out.read_text())
    assert set(document) == {"truncation", "click"}
    assert len(document["click"]) == document["truncation"]
    manifest = json.loads((tmp_path / "povm.json.manifest.json").read_text())
    # The manifest records the default weight actually used: 1e-3 per probe.
    probes, _ = read_click_data(data_csv)
    assert manifest["parameters"]["smoothing"] == 1e-3 * len(probes)


def test_reconstruct_scaled_records_k(tmp_path, data_csv):
    out = tmp_path / "scaled.json"
    assert run_cli(["reconstruct", data_csv, out, "--scale-to-95"]) == 0
    document = json.loads(out.read_text())
    assert {"truncation", "click", "k"} <= set(document)
    assert document["k"] > 0
    manifest = json.loads((tmp_path / "scaled.json.manifest.json").read_text())
    probes, _ = read_click_data(data_csv)
    assert manifest["parameters"]["smoothing"] == 1e-3 * len(probes)
    assert manifest["parameters"]["truncation"] == document["truncation"]


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_reconstruct_rejects_non_finite_smoothing(tmp_path, data_csv, capsys, weight):
    out = tmp_path / "povm.json"
    assert run_cli(["reconstruct", data_csv, out, "--smoothing", weight]) == 1
    assert "smoothing weight" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_rejects_oversized_probe_matrix(tmp_path, capsys):
    # A probe of 1e9 photons needs a click vector of about 1e9 elements
    # (7.5 GiB); the size guard refuses it before allocating and points to
    # the rescaling workflow.
    data = tmp_path / "clicks.csv"
    write_click_data(
        data,
        ProbeSet(intensities=np.array([0.0, 1e3, 1e6, 1e9]), trials=1000),
        ClickRecord(clicks=np.array([1, 10, 600, 1000]), trials=1000),
    )
    out = tmp_path / "povm.json"
    assert run_cli(["reconstruct", data, out]) == 1
    assert "--scale-to-95" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "intensities, clicks",
    [
        ([0.0, 40.0], [1, 990]),  # a single nonvacuum probe
        ([0.0, 10.0, 20.0], [1, 960, 990]),  # first nonvacuum probe above 0.95
    ],
)
def test_reconstruct_scaled_refuses_an_unbracketed_crossing(
    tmp_path, capsys, intensities, clicks
):
    data = tmp_path / "clicks.csv"
    write_click_data(
        data,
        ProbeSet(intensities=np.array(intensities), trials=1000),
        ClickRecord(clicks=np.array(clicks), trials=1000),
    )
    out = tmp_path / "scaled.json"
    assert run_cli(["reconstruct", data, out, "--scale-to-95"]) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clicks.csv"]


@pytest.mark.parametrize(
    "args, rows, message",
    [
        # a 1e20-photon probe beside small ones
        (
            ["fit"],
            ["0.0,1000,1", "1.0,1000,90", "10.0,1000,600", "1e20,1000,1000"],
            "too large",
        ),
        # The rescaling would bring these probes to a few hundred photons,
        # but the raw intensities are refused as they are read.
        (
            ["reconstruct", "--scale-to-95"],
            ["0.0,1000,1", "1e18,1000,500", "1e19,1000,970", "1e20,1000,1000"],
            "too large",
        ),
        # 1e29 trials and a click count int64 cannot hold
        (["reconstruct"], [f"{mu},{10**29},{10**20}" for mu in ("0", "1", "10")], "whole number"),
        (["fit"], [f"{mu},{10**29},{10**20}" for mu in ("0", "1", "10")], "whole number"),
    ],
    ids=["fit-probe-1e20", "scaled-probe-1e20", "reconstruct-trials-1e29", "fit-trials-1e29"],
)
def test_counts_and_means_above_2_53_exit_1(tmp_path, capsys, args, rows, message):
    data = tmp_path / "clicks.csv"
    data.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n")
    out = tmp_path / "out.json"
    assert run_cli([*args, data, out]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_missing_input(tmp_path):
    code = run_cli(["reconstruct", tmp_path / "absent.csv", tmp_path / "out.json"])
    assert code == 1


def test_fit_writes_report(tmp_path, data_csv):
    out = tmp_path / "report.json"
    assert run_cli(["fit", data_csv, out, "--max-order", "4"]) == 0
    document = json.loads(out.read_text())
    assert set(document) == {"p", "kept_orders", "objective", "per_probe_residuals"}
    assert document["kept_orders"] == [0, 1]


def test_malformed_csv_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("intensity,clicks\n0.0,3\n")
    code = run_cli(["fit", bad, tmp_path / "report.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_compare_closed_loop_fidelity(tmp_path, data_csv, capsys):
    povm_json = tmp_path / "povm.json"
    assert run_cli(["reconstruct", data_csv, povm_json]) == 0
    truth_json = tmp_path / "truth.json"
    truth_json.write_text(json.dumps(SCALED_PARAMS[25].to_dict()))

    assert run_cli(["compare", povm_json, truth_json]) == 0
    lines = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(lines["fidelity"]) > 0.998
    assert float(lines["max_abs_gap"]) < 0.05


def _compare_lines(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.strip().splitlines())


def test_compare_takes_a_parameter_document_on_either_side(tmp_path, data_csv, capsys):
    povm_json = tmp_path / "povm.json"
    assert run_cli(["reconstruct", data_csv, povm_json]) == 0
    truth_json = tmp_path / "truth.json"
    truth_json.write_text(json.dumps(SCALED_PARAMS[25].to_dict()))
    capsys.readouterr()
    assert run_cli(["compare", povm_json, truth_json]) == 0
    forward = _compare_lines(capsys.readouterr().out)
    assert run_cli(["compare", truth_json, povm_json]) == 0
    assert _compare_lines(capsys.readouterr().out) == forward


def test_compare_notes_differing_truncations(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"truncation": 3, "click": [0.0, 0.5, 0.75]}))
    b.write_text(json.dumps({"truncation": 4, "click": [0.0, 0.5, 0.75, 0.875]}))
    assert run_cli(["compare", a, b]) == 0
    captured = capsys.readouterr()
    assert "truncations differ (3 vs 4)" in captured.err
    # a is padded with its trailing 0.75, so only the last element differs.
    assert float(_compare_lines(captured.out)["max_abs_gap"]) == 0.125


@pytest.mark.parametrize("document", [[0.1, 0.2], {"truncation": 2}])
def test_compare_rejects_a_document_that_is_neither_povm_nor_parameters(
    tmp_path, capsys, document
):
    povm = tmp_path / "povm.json"
    povm.write_text(json.dumps({"truncation": 2, "click": [0.0, 0.5]}))
    other = tmp_path / "other.json"
    other.write_text(json.dumps(document))
    assert run_cli(["compare", povm, other]) == 1
    assert "error:" in capsys.readouterr().err


def test_compare_rejects_two_parameter_documents(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(SCALED_PARAMS[25].to_dict()))
    b.write_text(json.dumps(SCALED_PARAMS[20].to_dict()))
    assert run_cli(["compare", a, b]) == 1


@pytest.mark.parametrize("figure_id", ["fig1b", "fig2a", "fig2b"])
def test_figure_curves(tmp_path, figure_id):
    out = tmp_path / f"{figure_id}.csv"
    assert run_cli(["figure", figure_id, out]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) > 100
    assert (tmp_path / f"{figure_id}.csv.manifest.json").exists()


def test_figure_writes_a_zero_click_without_sign(tmp_path):
    # The 16 uA detector has no dark counts: its vacuum click is written as
    # 0.0, not -0.0.
    out = tmp_path / "fig2b.csv"
    assert run_cli(["figure", "fig2b", out, "--bias-current", "16"]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[:2] == ["m,click", "0.0,0.0"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_and_manifests_take_the_umask_mode(tmp_path, umask, mode):
    # Outputs are renamed into place from a temporary file; they get the
    # mode a newly opened file would, 0666 less the umask, not 0600.
    out = tmp_path / "p.csv"
    old = os.umask(umask)
    try:
        assert run_cli(["figure", "fig2b", out]) == 0
    finally:
        os.umask(old)
    for path in (out, tmp_path / "p.csv.manifest.json"):
        assert path.stat().st_mode & 0o777 == mode, path.name


def test_figure_loss_scaling(tmp_path):
    out = tmp_path / "fig3b.csv"
    assert run_cli(["figure", "fig3b", out, "--seed", "7"]) == 0
    text = out.read_text()
    assert "slope_order_1=" in text
    assert "slope_order_2=" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0] == "eta,P_0,P_1,P_2"
    assert len(rows) == 5


def test_figure_unknown_id(tmp_path, capsys):
    assert run_cli(["figure", "fig9z", tmp_path / "out.csv"]) == 1
    assert "unknown figure id" in capsys.readouterr().err


def test_figure_unknown_bias_current(tmp_path):
    assert run_cli(["figure", "fig2b", tmp_path / "out.csv", "--bias-current", "19"]) == 1


def test_unexpected_failure_maps_to_exit_two(tmp_path, config_path, monkeypatch):
    def explode(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(simulator, "simulate", explode)
    code = run_cli(["simulate", config_path, tmp_path / "out.csv"])
    assert code == 2


def test_interrupt_exits_one(tmp_path, config_path, monkeypatch, capsys):
    def interrupt(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(simulator, "simulate", interrupt)
    assert run_cli(["simulate", config_path, tmp_path / "out.csv"]) == 1
    assert capsys.readouterr().err.endswith("aborted\n")


def test_usage_error_exits_nonzero(capsys):
    # No command, an unknown command, a missing argument, a non-number for
    # an int option, an unknown option and an abbreviated one: each is a
    # usage error, exit 1 with one line on stderr, before any file is read.
    for args in (
        [],
        ["frob"],
        ["reconstruct"],
        ["fit", "--max-order", "x", "a.csv", "b.json"],
        ["reconstruct", "--frob", "a.csv", "b.json"],
        ["reconstruct", "--smooth", "1e-3", "a.csv", "b.json"],
    ):
        assert run_cli(args) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


_HELP_NAMES = {
    (): ["--help", "--version", "simulate", "reconstruct", "fit", "compare", "figure"],
    ("simulate",): ["--help", "CONFIG_PATH", "OUT_CSV"],
    ("reconstruct",): ["--help", "DATA_CSV", "OUT_JSON", "--smoothing", "--scale-to-95"],
    ("fit",): ["--help", "DATA_CSV", "OUT_JSON", "--max-order", "--prune-threshold"],
    ("compare",): ["--help", "POVM_A_JSON", "POVM_B_JSON"],
    ("figure",): ["--help", "FIGURE_ID", "OUT_CSV", "--bias-current", "--seed", "fig3b"],
}


@pytest.mark.parametrize("command", list(_HELP_NAMES), ids=lambda c: " ".join(c) or "nlspd")
def test_help_exits_zero_and_names_every_option(command, capsys):
    assert run_cli([*command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: nlspd", *command]))
    for name in _HELP_NAMES[command]:
        assert name in out, name


def test_version_exits_zero_and_prints_its_line(capsys):
    assert run_cli(["--version"]) == 0
    assert capsys.readouterr().out == f"nlspd, version {nlspd.__version__}\n"


def _python(code, *args, cwd=None):
    """Run ``code`` in a fresh interpreter that imports nlspd from this source tree."""
    source = str(Path(nlspd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_import_leaves_out_the_optimizers():
    # Each nlspd command is a fresh process. Loading the CLI loads no scipy
    # at all, and rescaling a record loads neither scipy.optimize nor
    # scipy.interpolate; only the reconstruction's bounded-variable
    # fallback loads scipy.optimize.
    code = """
import sys, nlspd.cli
from nlspd.simulator import ExperimentConfig, geometric_probe_grid, simulate
from nlspd.tomography import scaled_fit_workflow
from nlspd.reference import SCALED_PARAMS

def loaded():
    return [m for m in ("scipy.optimize", "scipy.interpolate") if m in sys.modules]

print(loaded())
truth = SCALED_PARAMS[25]
probes = geometric_probe_grid(truth)
config = ExperimentConfig(truth=truth, probes=probes, seed=0, trials=probes.trials)
scaled_fit_workflow(probes, simulate(config))
print(loaded())
"""
    result = _python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["[]", "[]"]


def test_package_and_cli_import_load_no_scipy():
    code = "import sys, nlspd, nlspd.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    result = _python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_readme_record_reconstructs_without_scipy(tmp_path):
    # The README experiment's record, read from CSV and reconstructed
    # directly and after rescaling, in a fresh interpreter: only the
    # bounded-variable fallback would load scipy, and neither needs it.
    probes = ProbeSet(np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 75.0]), 100_000)
    truth = NonlinearSpdParams(np.array([7.29e-4, 9.95e-2]))
    record = simulate(ExperimentConfig(truth=truth, probes=probes, seed=7, trials=100_000))
    write_click_data(tmp_path / "clicks.csv", probes, record)
    code = """
import sys
from nlspd.tomography import read_click_data, reconstruct_povm, scaled_fit_workflow
probes, record = read_click_data(sys.argv[1])
reconstruct_povm(probes, record)
scaled_fit_workflow(probes, record)
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
"""
    result = _python(code, tmp_path / "clicks.csv")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_only_loss_and_simulator_load_scipy_at_import():
    # The mechanism fit runs on numpy alone. The simulator's binomial
    # inverse cdf and the loss transforms pay for scipy when imported, not
    # inside their first call.
    code = """
import sys, nlspd.modelfit
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
import nlspd.simulator
print([m for m in ("scipy.special",) if m not in sys.modules])
import nlspd.loss
print([m for m in ("scipy.special", "scipy.linalg") if m not in sys.modules])
"""
    result = _python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n[]\n"


def test_public_names_resolve_to_their_definitions():
    code = """
import importlib, nlspd
wrong = []
for name in nlspd.__all__:
    if name != "__version__":
        value = getattr(nlspd, name)
        home = importlib.import_module(value.__module__)
        if home.__name__.split(".")[0] != "nlspd" or getattr(home, name) is not value:
            wrong.append(name)
print(wrong, set(nlspd.__all__) <= set(dir(nlspd)), hasattr(nlspd, "no_such_name"))
"""
    result = _python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[] True False\n"


def test_package_exports_are_each_modules_public_names():
    for module, names in nlspd._EXPORTS.items():
        public = importlib.import_module(f"nlspd.{module}").__all__
        assert sorted(names) == sorted(public), module


_CLI = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = sys.modules["click"] = None
from nlspd.cli import main
main(sys.argv[2:])
"""


@pytest.mark.parametrize(
    "args",
    [
        ["--version"],
        ["reconstruct", "../clicks.csv", "again.json"],
        ["reconstruct", "--scale-to-95", "../clicks.csv", "scaled.json"],
        ["fit", "../clicks.csv", "again.json"],
        ["compare", "povm.json", "fit.json"],
        ["figure", "fig1b", "out.csv"],
        ["figure", "fig2b", "--bias-current", "20", "out.csv"],
    ],
    ids=[
        "version",
        "reconstruct",
        "reconstruct-scaled",
        "fit",
        "compare",
        "figure-fig1b",
        "figure-fig2b",
    ],
)
def test_command_runs_without_scipy_or_click(tmp_path, data_csv, args):
    outputs = {}
    for mode in ("blocked", "unblocked"):
        workdir = tmp_path / mode
        workdir.mkdir()
        assert run_cli(["reconstruct", data_csv, workdir / "povm.json"]) == 0
        assert run_cli(["fit", data_csv, workdir / "fit.json"]) == 0
        before = set(workdir.iterdir())
        result = _python(_CLI, mode, *args, cwd=workdir)
        assert result.returncode == 0, result.stderr
        written = sorted(set(workdir.iterdir()) - before)
        outputs[mode] = [result.stdout] + [(p.name, p.read_bytes()) for p in written]
    assert outputs["blocked"] == outputs["unblocked"]
