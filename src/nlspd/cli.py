"""Command-line pipeline: simulate, reconstruct, fit, compare, figure.

The parser is the standard library's ``argparse``. Conventions shared by
every command:

- exit status 0 on success, 1 on validation failures (bad arguments,
  malformed or missing files, unreachable targets), 2 on internal errors;
- outputs are written to a temporary file and renamed into place, so a
  failing command never leaves partial output;
- every output file gets a ``<name>.manifest.json`` sidecar recording the
  command, inputs, outputs, parameters, and seed that produced it; no
  timestamps, so identical runs are byte-identical.

``simulator`` loads scipy when imported, so only the commands that run
it (``simulate`` and ``figure fig3b``) import it; every other command
starts without loading scipy. ``modelfit`` needs numpy alone and is
imported by the commands that run it too, which keeps the others'
start-up short.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from . import __version__, reference
from .povm import NonlinearSpdParams, _coherent_clicks, _detector_from_dict, nonlinear_povm
from .tomography import (
    default_smoothing_weight,
    fidelity,
    read_click_data,
    reconstruct_povm,
    scaled_fit_workflow,
    write_click_data,
)

# Synthetic detector driving the loss-scaling figure. Orders above two
# fall below the shot-noise floor of 1e5-trial records once eta reaches
# 0.1, so the demo stops at a three-mechanism truth whose slopes are
# actually resolvable.
_LOSS_DEMO_TRUTH = NonlinearSpdParams(p=np.array([5e-3, 0.1, 0.3]))
_LOSS_DEMO_ETAS = (1.0, 0.5, 0.25, 0.1)


@contextmanager
def _atomic_output(path: str):
    """Yield a temp path in the target directory; rename over path on success.

    ``mkstemp`` makes the file mode 0600, so before the rename it is given
    the mode ``open`` would give a new file: 0666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    os.close(fd)
    try:
        yield tmp
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_json(path: str, document: dict) -> None:
    with _atomic_output(path) as tmp:
        with open(tmp, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _read_json(path: str) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return document


def _emit_manifests(command: str, inputs, outputs, parameters: dict, seed=None) -> None:
    """Write the provenance record of a run next to each of its outputs."""
    manifest = {
        "command": command,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
    }
    for output in outputs:
        _write_json(f"{output}.manifest.json", manifest)


def cmd_simulate(config_path, out_csv):
    """Sample a click record for the experiment described by CONFIG_PATH."""
    from .simulator import ExperimentConfig, simulate

    config = ExperimentConfig.from_dict(_read_json(config_path))
    record = simulate(config)
    with _atomic_output(out_csv) as tmp:
        write_click_data(tmp, config.probes, record)
    _emit_manifests("simulate", [config_path], [out_csv], parameters={}, seed=config.seed)


def cmd_reconstruct(data_csv, out_json, smoothing, scale_to_95):
    """Reconstruct a diagonal POVM from the click data in DATA_CSV."""
    probes, record = read_click_data(data_csv)
    if smoothing is None:
        smoothing = default_smoothing_weight(probes)
    if scale_to_95:
        k, povm = scaled_fit_workflow(probes, record, smoothing_weight=smoothing)
        document = {**povm.to_dict(), "k": float(k)}
    else:
        povm = reconstruct_povm(probes, record, smoothing_weight=smoothing)
        document = povm.to_dict()
    _write_json(out_json, document)
    _emit_manifests(
        "reconstruct",
        [data_csv],
        [out_json],
        parameters={
            "truncation": povm.truncation,
            "smoothing": smoothing,
            "scale_to_95": scale_to_95,
        },
    )


def cmd_fit(data_csv, out_json, max_order, prune_threshold):
    """Fit mechanism efficiencies to DATA_CSV and prune insignificant ones."""
    from .modelfit import fit_params, prune_mechanisms

    probes, record = read_click_data(data_csv)
    report = fit_params(probes, record, max_order)
    report = prune_mechanisms(report, probes, record, prune_threshold)
    _write_json(out_json, report.to_dict())
    _emit_manifests(
        "fit",
        [data_csv],
        [out_json],
        parameters={"max_order": max_order, "prune_threshold": prune_threshold},
    )


def cmd_compare(povm_a_json, povm_b_json):
    """Print fidelity and elementwise gaps between two POVMs.

    Either operand may be a mechanism-parameter document (a fit report or
    a plain {"p": ...} file); it is expanded to a POVM at the other
    operand's truncation. At least one operand must be an explicit POVM.
    """
    a = _detector_from_dict(_read_json(povm_a_json), povm_a_json)
    b = _detector_from_dict(_read_json(povm_b_json), povm_b_json)
    if isinstance(a, NonlinearSpdParams) and isinstance(b, NonlinearSpdParams):
        raise ValueError(
            "both operands are parameter documents; no truncation to expand "
            "them at (supply at least one POVM)"
        )
    if isinstance(a, NonlinearSpdParams):
        a = nonlinear_povm(a, b.truncation)
    if isinstance(b, NonlinearSpdParams):
        b = nonlinear_povm(b, a.truncation)
    if a.truncation != b.truncation:
        print(
            f"note: truncations differ ({a.truncation} vs {b.truncation}); "
            "the shorter operand is padded with its trailing value",
            file=sys.stderr,
        )
    length = max(a.truncation, b.truncation)
    gaps = np.abs(a.padded(length) - b.padded(length))
    print(f"fidelity={fidelity(a, b)!r}")
    print(f"max_abs_gap={float(gaps.max())!r}")
    print(f"mean_abs_gap={float(gaps.mean())!r}")


def _write_csv_rows(path: str, comments, header, rows) -> None:
    with _atomic_output(path) as tmp:
        with open(tmp, "w", newline="") as handle:
            for line in comments:
                handle.write(f"# {line}\n")
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _figure_curves(title, params_by_bias: dict, grid, out_csv, bias_current, seed):
    """Click probability on ``grid`` at each reference bias current, one column each."""
    header = ["mean_photons"] + [f"click_{b}uA" for b in reference.BIAS_CURRENTS_UA]
    columns = [_coherent_clicks(params_by_bias[b], grid) for b in reference.BIAS_CURRENTS_UA]
    _write_csv_rows(out_csv, [title], header, np.column_stack([grid, *columns]))


def _figure_fig2b(out_csv, bias_current, seed):
    if bias_current not in reference.SCALED_PARAMS:
        raise ValueError(
            f"bias current {bias_current} uA not available; "
            f"choose from {sorted(reference.SCALED_PARAMS)}"
        )
    povm = nonlinear_povm(reference.SCALED_PARAMS[bias_current], 121)
    rows = ([m, povm.click[m]] for m in range(povm.truncation))
    _write_csv_rows(
        out_csv,
        [f"POVM click element vs photon number, {bias_current} uA, rescaled"],
        ["m", "click"],
        rows,
    )


def _figure_fig3b(out_csv, bias_current, seed):
    from .modelfit import fit_params, loss_scaling_analysis
    from .simulator import ExperimentConfig, geometric_probe_grid, simulate

    base = geometric_probe_grid(_LOSS_DEMO_TRUTH)
    params_by_eta = []
    for j, eta in enumerate(_LOSS_DEMO_ETAS):
        config = ExperimentConfig(
            truth=_LOSS_DEMO_TRUTH, probes=base, seed=seed + j, trials=base.trials
        )
        record = simulate(config)
        # The record sampled at intensities mu equals a lossy detector probed
        # at mu / eta, so restating the grid gives the eta-degraded dataset.
        stated = base.scaled_by(1.0 / eta)
        report = fit_params(stated, record, max_order=_LOSS_DEMO_TRUTH.order)
        params_by_eta.append((eta, report.params))
    analysis = loss_scaling_analysis(params_by_eta)

    comments = [
        "fitted mechanism efficiencies vs transmissivity",
        f"truth_p={[float(v) for v in _LOSS_DEMO_TRUTH.p]!r}",
        f"seed={seed}",
    ]
    comments += [
        f"slope_order_{n}={analysis.slopes[n]!r}" for n in sorted(analysis.slopes)
    ]
    if analysis.excluded_orders:
        comments.append(f"excluded_orders={list(analysis.excluded_orders)!r}")
    header = ["eta"] + [f"P_{n}" for n in range(_LOSS_DEMO_TRUTH.order)]
    rows = [[eta] + list(params.p) for eta, params in params_by_eta]
    _write_csv_rows(out_csv, comments, header, rows)


_FIGURE_BUILDERS = {
    "fig1b": functools.partial(
        _figure_curves,
        "click probability vs mean photon number",
        reference.UNSCALED_PARAMS,
        np.geomspace(1.0, 1e6, 121),
    ),
    "fig2a": functools.partial(
        _figure_curves,
        "click probability vs mean photon number, rescaled intensities",
        reference.SCALED_PARAMS,
        np.geomspace(1e-2, 300.0, 121),
    ),
    "fig2b": _figure_fig2b,
    "fig3b": _figure_fig3b,
}


def cmd_figure(figure_id, out_csv, bias_current, seed):
    """Emit plot-ready CSV series for FIGURE_ID.

    fig1b  click probability vs mean photons, three bias currents
    fig2a  same, after intensity rescaling
    fig2b  POVM click elements of one rescaled detector
    fig3b  fitted P_n vs transmissivity with power-law slopes
    """
    if figure_id not in _FIGURE_BUILDERS:
        raise ValueError(
            f"unknown figure id {figure_id!r}; choose from {', '.join(_FIGURE_BUILDERS)}"
        )
    _FIGURE_BUILDERS[figure_id](out_csv, bias_current, seed)
    _emit_manifests(
        "figure",
        [],
        [out_csv],
        parameters={
            "figure_id": figure_id,
            "bias_current": bias_current,
            "seed": seed,
        },
        seed=seed,
    )


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ``ValueError``, which ``main`` exits 1 on.

    No option may be abbreviated, and a command's description keeps the
    line breaks of its docstring.
    """

    def __init__(self, **settings):
        formatter = argparse.RawDescriptionHelpFormatter
        super().__init__(allow_abbrev=False, formatter_class=formatter, **settings)

    def error(self, message):
        raise ValueError(message)


def _parser() -> _Parser:
    parser = _Parser(prog="nlspd", description="Click-detector characterization pipeline.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="command", required=True)

    def command(name, run, *positionals):
        """Register ``run`` as command ``name``; return the adder of its options."""
        doc = inspect.getdoc(run)
        sub = commands.add_parser(name, help=doc.splitlines()[0], description=doc)
        sub.set_defaults(run=run)
        for positional in positionals:
            sub.add_argument(positional, metavar=positional.upper())
        return sub.add_argument

    command("simulate", cmd_simulate, "config_path", "out_csv")
    option = command("reconstruct", cmd_reconstruct, "data_csv", "out_json")
    option("--smoothing", type=float, help="Smoothing weight [default: 1e-3 per probe].")
    option(
        "--scale-to-95", action="store_true",
        help="Rescale intensities so the click probability is 95%% at mean 30, "
        "then reconstruct the effective POVM; records the scale factor k.",
    )
    option = command("fit", cmd_fit, "data_csv", "out_json")
    option("--max-order", type=int, default=6, help="Number of mechanisms fitted.")
    option(
        "--prune-threshold", type=float, default=0.01,
        help="Relative residual-norm increase below which a mechanism is dropped.",
    )
    command("compare", cmd_compare, "povm_a_json", "povm_b_json")
    option = command("figure", cmd_figure, "figure_id", "out_csv")
    option("--bias-current", type=int, default=25, help="Bias current in uA (fig2b only).")
    option("--seed", type=int, default=7, help="Simulation seed (fig3b only).")
    return parser


def main(argv=None):
    """Entry point mapping exception families onto the 0/1/2 exit-status contract.

    ``--help`` and ``--version`` print and exit 0 from inside the parser.
    """
    try:
        arguments = vars(_parser().parse_args(argv))
        arguments.pop("run")(**arguments)
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        sys.exit(1)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(1)
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
