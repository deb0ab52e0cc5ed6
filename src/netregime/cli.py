"""Command-line front end: generate, evaluate, sweep, fit, emit.

Exit codes: 0 success, 2 configuration error, 3 experiment failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import rng
from .cutset import CUT_MODES, CUTSET_CSV_HEADER, PathologicalCutError
from .harness import (ConfigError, Constants, ExperimentConfig, ExperimentError,
                      emit_phase_diagram, emit_sweep, fit_exponent, run_cutset,
                      run_scheme, write_lines)
from .network import DegenerateInstanceError, generate_network
from .percolation import (CROSSING_CSV_HEADER, build_occupancy_grid,
                          crossing_probability, extract_cut, find_open_crossing)
from .schemes import SCHEME_CSV_HEADER, scheme_csv_row


def _add_common(p: argparse.ArgumentParser, *, point: bool, trials: bool) -> None:
    """--n --seed --out, plus --alpha --beta if ``point`` and --trials if ``trials``."""
    p.add_argument("--n", type=int, default=256, help="number of S-D pairs")
    if point:
        p.add_argument("--alpha", type=float, default=ExperimentConfig.alpha,
                       help="path-loss exponent")
        p.add_argument("--beta", type=float, default=ExperimentConfig.beta,
                       help="nearest-neighbor SNR exponent; snr_s = n^beta")
    p.add_argument("--seed", type=int, default=ExperimentConfig.master_seed,
                   help="master seed")
    if trials:
        p.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    p.add_argument("--out", type=str, default=None, help="output file")


# constant flag -> Constants field
_CONSTANT_FLAGS = {"--k1": "K1", "--k2": "K2", "--k3": "K3", "--eps": "epsilon",
                   "--c": "c"}


def _add_constants(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        field = _CONSTANT_FLAGS[flag]
        p.add_argument(flag, type=float, dest=field, default=getattr(Constants, field),
                       help=f"Constants.{field}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="netregime", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a network instance as JSON")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--area", type=float, default=None,
                   help="network area A (default n, unit density)")
    p.add_argument("--seed", type=int, default=ExperimentConfig.master_seed)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("cutset", help="evaluate the cutset bound on one instance")
    _add_common(p, point=True, trials=True)
    _add_constants(p, "--k1", "--eps", "--c")
    p.add_argument("--mode", choices=CUT_MODES, default=ExperimentConfig.mode)

    p = sub.add_parser("scheme", help="closed-form scheme throughput over n")
    _add_common(p, point=True, trials=False)
    _add_constants(p, "--k2", "--k3", "--eps")
    p.add_argument("--name", choices=("multihop", "hc", "bursty_hc"),
                   default="multihop")
    p.add_argument("--n-list", type=int, nargs="+", default=None)

    p = sub.add_parser("hybrid", help="simulate the cooperate-locally scheme")
    _add_common(p, point=True, trials=False)
    _add_constants(p, "--k3", "--eps")
    p.add_argument("--seeds", type=int, default=5, help="instance draws")

    p = sub.add_parser("percolation", help="crossing-probability study")
    _add_common(p, point=False, trials=True)
    _add_constants(p, "--c")
    p.add_argument("--export-cut", type=str, default=None,
                   help="also export one certified cut as JSON")

    p = sub.add_parser("phase-diagram", help="emit the regime classification grid")
    p.add_argument("--alpha-range", type=float, nargs=2,
                   default=ExperimentConfig.alpha_range)
    p.add_argument("--beta-range", type=float, nargs=2,
                   default=ExperimentConfig.beta_range)
    p.add_argument("--resolution", type=int, nargs=2,
                   default=ExperimentConfig.resolution)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("fit", help="fit a scaling exponent to a CSV of n,metric")
    p.add_argument("csv", type=str)
    p.add_argument("--theory", type=float, default=math.nan)

    p = sub.add_parser("sweep", help="run an experiment described by a config file")
    p.add_argument("--config", type=str, required=True)
    return top


def _constants(args) -> Constants:
    """The Constants of the subcommand's flags; the others keep their defaults."""
    return Constants(**{f: getattr(args, f) for f in _CONSTANT_FLAGS.values()
                        if hasattr(args, f)})


def _emit(lines: list[str], out: str | None) -> None:
    if out:
        write_lines(out, lines[0], lines[1:])
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def cmd_gen(args) -> int:
    area = float(args.n) if args.area is None else args.area
    inst = generate_network(args.n, area, args.seed)
    _emit([inst.to_json()], args.out)
    return 0


def cmd_cutset(args) -> int:
    report = run_cutset(args.n, args.alpha, args.beta, _constants(args),
                        args.trials, args.mode, seed=args.seed,
                        phase_seed=rng.derived_seed(args.seed, rng.PHASES))
    _emit([CUTSET_CSV_HEADER, report.csv_row()], args.out)
    return 0


def cmd_scheme(args) -> int:
    k, rows = _constants(args), []
    for n in args.n_list or [args.n]:
        est, m, _ = run_scheme(args.name, n, args.alpha, args.beta, k, args.seed)
        rows.append(scheme_csv_row(n, args.alpha, args.beta, est, m, 0, 0,
                                   args.seed))
    _emit([SCHEME_CSV_HEADER] + rows, args.out)
    return 0


def cmd_hybrid(args) -> int:
    k, rows = _constants(args), []
    for t in range(args.seeds):
        seed = rng.derived_seed(args.seed, rng.EXPERIMENT, t)
        est, m, plan = run_scheme("hybrid", args.n, args.alpha, args.beta, k, seed)
        rows.append(scheme_csv_row(args.n, args.alpha, args.beta, est, m,
                                   plan.max_cell_load, plan.reroutes, seed))
    _emit([SCHEME_CSV_HEADER] + rows, args.out)
    return 0


def cmd_percolation(args) -> int:
    study = crossing_probability(args.n, args.c, args.trials, args.seed)
    _emit([CROSSING_CSV_HEADER, study.csv_row()], args.out)
    if args.export_cut:
        inst = generate_network(args.n, float(args.n),
                                rng.derived_seed(args.seed, rng.EXPERIMENT, 0))
        grid = build_occupancy_grid(inst, args.c)
        crossing = find_open_crossing(grid)
        if crossing is None:
            print("no open crossing for the first seed; nothing exported",
                  file=sys.stderr)
            return 3
        _emit([extract_cut(crossing, grid, inst).to_json()], args.export_cut)
    return 0


def cmd_phase_diagram(args) -> int:
    config = ExperimentConfig(kind="phase-diagram",
                              alpha_range=tuple(args.alpha_range),
                              beta_range=tuple(args.beta_range),
                              resolution=tuple(args.resolution),
                              out=args.out)
    emit_phase_diagram(config)
    return 0


def cmd_fit(args) -> int:
    table = []
    with open(args.csv, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            n_col, m_col = header.index("n"), header.index("metric")
        except ValueError as exc:
            raise ConfigError(f"CSV must have 'n' and 'metric' columns: {exc}")
        for line in fh:
            parts = line.strip().split(",")
            if parts and parts[0]:
                table.append((int(parts[n_col]), float(parts[m_col])))
    result = fit_exponent(table, args.theory)
    sys.stdout.write(json.dumps(result.to_dict(), indent=2) + "\n")
    return 0


def cmd_sweep(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(fh.read())
    if config.kind == "phase-diagram":
        emit_phase_diagram(config)
    else:
        emit_sweep(config)
    return 0


_HANDLERS = {
    "gen": cmd_gen,
    "cutset": cmd_cutset,
    "scheme": cmd_scheme,
    "hybrid": cmd_hybrid,
    "percolation": cmd_percolation,
    "phase-diagram": cmd_phase_diagram,
    "fit": cmd_fit,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (PathologicalCutError, DegenerateInstanceError, ArithmeticError,
            ExperimentError) as exc:
        # bad draws, non-finite Monte-Carlo values, a sweep with no usable point
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # ConfigError, OutOfRegimeError, bad arguments
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
