"""Command-line front end: generate, evaluate, sweep, fit, emit.

Exit codes: 0 success, 2 configuration error, 3 experiment failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple, fields

from . import rng
from .cutset import CUT_MODES
from .harness import (CROSSING_CSV_HEADER, CUTSET_COLUMNS, CUTSET_CSV_HEADER, DRAW_ERRORS,
                      SCHEME_CSV_HEADER, ConfigError, Constants, ExperimentConfig,
                      ExperimentError, csv_row, cut_json, emit_sweep, fit_exponent,
                      fit_json, instance_json, run_cutset, run_scheme, scheme_row,
                      unit_seeds, write_lines)
from .network import generate_network
from .percolation import certified_cut, crossing_probability


def _add_common(p: argparse.ArgumentParser, *, point: bool, trials: bool) -> None:
    """--n --seed --out, plus --alpha --beta if ``point`` and --trials if ``trials``."""
    p.add_argument("--n", type=int, default=256, help="number of S-D pairs")
    if point:
        p.add_argument("--alpha", type=float, default=ExperimentConfig.alpha,
                       help="path-loss exponent")
        p.add_argument("--beta", type=float, default=ExperimentConfig.beta,
                       help="nearest-neighbor SNR exponent; snr_s = n^beta")
    p.add_argument("--seed", type=int, dest="master_seed",
                   default=ExperimentConfig.master_seed, help="master seed")
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
    _add_common(p, point=False, trials=False)
    p.add_argument("--area", type=float, default=None,
                   help="network area A (default n, unit density)")

    p = sub.add_parser("cutset", help="evaluate the cutset bound on one instance")
    _add_common(p, point=True, trials=True)
    _add_constants(p, "--k1", "--eps", "--c")
    p.add_argument("--mode", choices=CUT_MODES, default=ExperimentConfig.mode)

    p = sub.add_parser("scheme", help="closed-form scheme throughput over n")
    _add_common(p, point=True, trials=False)
    _add_constants(p, "--k2", "--k3", "--eps")
    p.add_argument("--name", dest="scheme", choices=("multihop", "hc", "bursty_hc"),
                   default="multihop")
    p.add_argument("--n-list", type=int, nargs="+", default=None)

    p = sub.add_parser("hybrid", help="simulate the cooperate-locally scheme")
    _add_common(p, point=True, trials=False)
    _add_constants(p, "--k3", "--eps")
    p.add_argument("--seeds", dest="trials", metavar="SEEDS", type=int, default=5,
                   help="instance draws")

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


def _config(args, kind: str, **fixed) -> ExperimentConfig:
    """The validated config of a command, the only reader of its config and
    constant flags.  A flag sets the field its dest names; ``--n`` sets ``n_list``
    when there is no ``--n-list``, and the other fields keep their defaults."""
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name, None) is not None}
    given.setdefault("n_list", [args.n] if "n" in args else [])
    constants = Constants(**{f: getattr(args, f) for f in _CONSTANT_FLAGS.values()
                             if hasattr(args, f)})
    return ExperimentConfig(kind=kind, constants=constants, **given, **fixed)


def cmd_gen(args) -> int:
    if args.master_seed < 0:   # gen builds no ExperimentConfig; this is its check
        raise ConfigError(f"master_seed must be an integer >= 0, got {args.master_seed}")
    area = float(args.n) if args.area is None else args.area
    write_lines(args.out, [instance_json(generate_network(args.n, area, args.master_seed))])
    return 0


def cmd_cutset(args) -> int:
    config = _config(args, "cutset")
    (n,), seed = config.n_list, config.master_seed   # an instance seed itself
    report = run_cutset(config, n, seed, rng.derived_seed(seed, rng.CLI_PHASES))
    write_lines(config.out, [CUTSET_CSV_HEADER,
                             csv_row(getattr(report, name) for name in CUTSET_COLUMNS)])
    return 0


def cmd_scheme(args) -> int:
    config = _config(args, "scheme")
    seed = config.master_seed
    write_lines(config.out, [SCHEME_CSV_HEADER] + [
        scheme_row(n, config, seed, run_scheme(config, n, seed)) for n in config.n_list])
    return 0


def cmd_hybrid(args) -> int:
    config = _config(args, "scheme", scheme="hybrid")
    (n,), trials = config.n_list, range(config.trials)
    seeds = [unit_seeds(config, t, 0)[0] for t in trials]   # a sweep's units (t, 0)
    write_lines(config.out, [SCHEME_CSV_HEADER] + [
        scheme_row(n, config, seed, run_scheme(config, n, seed)) for seed in seeds])
    return 0


def cmd_percolation(args) -> int:
    config = _config(args, "percolation")   # the study is a sweep's point 0
    (n,), c = config.n_list, config.constants.c
    study = crossing_probability(n, c, config.trials, *unit_seeds(config, 0, 0))
    write_lines(config.out, [CROSSING_CSV_HEADER, csv_row(astuple(study))])
    if args.export_cut:
        cut_seed = rng.derived_seed(config.master_seed, rng.CLI_CUT)
        cut = certified_cut(generate_network(n, float(n), cut_seed), c)
        if cut is None:
            raise ExperimentError("no open crossing in the export instance; no cut written")
        write_lines(args.export_cut, [cut_json(cut)])
    return 0


def cmd_phase_diagram(args) -> int:
    emit_sweep(_config(args, "phase-diagram"))
    return 0


def cmd_fit(args) -> int:
    table = []
    with open(args.csv, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            n_col, m_col = header.index("n"), header.index("metric")
        except ValueError as exc:
            raise ConfigError(f"CSV must have 'n' and 'metric' columns: {exc}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts and parts[0]:
                if len(parts) <= max(n_col, m_col):
                    raise ConfigError(f"{args.csv} line {lineno} has {len(parts)} "
                                      f"columns; the header has {len(header)}")
                table.append((int(parts[n_col]), float(parts[m_col])))
    write_lines(None, [fit_json(fit_exponent(table, args.theory))])
    return 0


def cmd_sweep(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(fh.read())
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
    except DRAW_ERRORS + (ExperimentError,) as exc:
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
