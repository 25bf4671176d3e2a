"""End-to-end tests of the command-line interface.

Every command runs in-process through ``main`` so the exit-status
contract (0 success, 1 usage/data error, 2 internal error) is asserted
directly.
"""

import json

import click
import numpy as np
import pytest

from nlspd import cli
from nlspd.reference import SCALED_PARAMS
from nlspd.simulator import geometric_probe_grid
from nlspd.tomography import read_click_data


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
    # A 1e15-photon probe needs a Poisson window of 5.4e8 terms: exit 1
    # before allocating, and no output, manifest or partial file is left.
    document = json.loads(config_path.read_text())
    document["probes"]["intensities"].append(1e15)
    config_path.write_text(json.dumps(document))
    assert run_cli(["simulate", config_path, tmp_path / "clicks.csv"]) == 1
    assert "MiB limit" in capsys.readouterr().err
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


def test_reconstruct_rejects_oversized_probe_matrix(tmp_path, data_csv, capsys):
    # The 61 x 9,999,999 probe matrix would take 4.5 GiB; the size guard
    # refuses it before allocating and points to the rescaling workflow.
    out = tmp_path / "povm.json"
    assert run_cli(["reconstruct", data_csv, out, "--truncation", 10_000_000]) == 1
    assert "--scale-to-95" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_option_conflict(tmp_path, data_csv, capsys):
    out = tmp_path / "povm.json"
    code = run_cli(["reconstruct", data_csv, out, "--scale-to-95", "--truncation", "40"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
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

    monkeypatch.setattr(cli, "run_simulation", explode)
    code = run_cli(["simulate", config_path, tmp_path / "out.csv"])
    assert code == 2


def test_usage_error_exits_nonzero():
    assert run_cli(["reconstruct"]) != 0


def test_main_exits_with_the_code_of_ctx_exit(monkeypatch):
    @click.command("stop")
    @click.pass_context
    def stop(ctx):
        ctx.exit(3)

    monkeypatch.setitem(cli.cli.commands, "stop", stop)
    assert run_cli(["stop"]) == 3
    assert run_cli(["--version"]) == 0
