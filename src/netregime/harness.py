"""Experiment orchestration: sweeps over n, exponent fits, and every output format.

An experiment is a pure function of its configuration.  Unit seeds are
derived from (master_seed, tag, point, unit) on counter-based substreams,
so no output byte depends on the order units run in.  Every layer runs at
snr_s = n^beta, which :func:`operating_point` computes once per point;
the area it draws instances on reproduces snr_s only up to rounding.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import __version__
from . import rng
from .cutset import CUT_MODES, CutsetReport, PathologicalCutError, evaluate_cutset
from .network import DegenerateInstanceError, NetworkInstance, generate_network
from .percolation import CutPolyline, crossing_probability
from .regimes import Regime, Scheme, phase_diagram
from .schemes import (OutOfRegimeError, hc_throughput, hybrid_cell_size,
                      multihop_throughput, simulate_hybrid)

logger = logging.getLogger(__name__)

KINDS = ("cutset", "scheme", "percolation", "phase-diagram")
SCHEMES = tuple(s.value for s in Scheme)


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


class ExperimentError(RuntimeError):
    """An experiment could not produce a usable result."""


@dataclass
class Constants:
    """Scheme and bound constants; they shift intercepts, not slopes.

    ``delta`` and ``K4`` (a number or null) are accepted and recorded in
    the manifest but read by nothing, so the CLI has no flag for them.
    """

    K1: float = 1.0
    K2: float = 1.0
    K3: float = 1.0
    K4: float | None = None
    epsilon: float = 0.05
    delta: float = 0.05
    c: float = 0.25


def _is_number(value) -> bool:
    """A finite int or float.  type() rather than isinstance: a JSON true is
    a bool, which is an int."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


@dataclass
class ExperimentConfig:
    kind: str
    n_list: list[int] = field(default_factory=list)
    alpha: float = 3.0
    beta: float = 0.0
    scheme: str = "multihop"            # for kind="scheme": multihop|hc|bursty_hc|hybrid
    trials: int = 20
    instances: int = 3                  # instance draws per cutset point
    constants: Constants = field(default_factory=Constants)
    master_seed: int = 0
    mode: str = "idealized"             # cutset cut mode
    alpha_range: tuple = (2.0, 6.0)     # phase-diagram only
    beta_range: tuple = (-1.0, 3.0)
    resolution: tuple = (100, 100)
    out: str | None = None

    def __post_init__(self):
        for name, allowed in (("kind", KINDS), ("scheme", SCHEMES), ("mode", CUT_MODES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name, ok in (("alpha_range", _is_number), ("beta_range", _is_number),
                         ("resolution", lambda v: type(v) is int)):
            value = getattr(self, name)
            if len(value) != 2 or not all(map(ok, value)):
                raise ConfigError(f"{name} must hold two finite numbers "
                                  f"(integers for resolution), got {value!r}")
            if name != "resolution" and value[0] > value[1]:
                raise ConfigError(f"{name} must be ascending, got {value!r}")
        for f in fields(Constants):
            value = getattr(self.constants, f.name)
            if not (_is_number(value) or (f.name == "K4" and value is None)):
                raise ConfigError(f"constants.{f.name} must be a finite number, "
                                  f"got {value!r}")
            if f.name in ("K1", "K2", "K3", "epsilon") and value <= 0:
                raise ConfigError(f"constants.{f.name} must be positive, got {value!r}")
            if f.name == "c" and not 0 < value < 1:
                raise ConfigError(f"constants.c must be in (0, 1), got {value!r}")
        if self.alpha < 2:
            raise ConfigError(f"alpha must be >= 2, got {self.alpha}")
        for name, least in (("trials", 1), ("instances", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if not all(type(n) is int and n >= 1 for n in self.n_list):
            raise ConfigError(f"n_list entries must be integers >= 1, got {self.n_list!r}")
        if self.kind != "phase-diagram":
            if not self.n_list:
                raise ConfigError("n_list must be non-empty")
            if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
                raise ConfigError("n_list must be strictly increasing")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        consts = doc.pop("constants", {})
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            for key in ("alpha_range", "beta_range", "resolution"):
                if key in doc:
                    doc[key] = tuple(doc[key])
            # Constants(**...) raises TypeError on a non-object or an unknown key
            return cls(constants=Constants(**consts), **doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key in ("alpha_range", "beta_range", "resolution"):
            doc[key] = list(doc[key])
        return doc


@dataclass(frozen=True)
class PointRow:
    n: int
    metric: float
    stderr: float


def operating_point(n: int, alpha: float, beta: float) -> tuple[float, float]:
    """(snr_s, area) of a point: snr_s = n^beta, which every layer takes as it
    is, and the area n * snr_s^(-2/alpha) that instances are drawn on, whose
    snr_short at G = P = N0 = W = 1 is snr_s only up to rounding.  Raises
    ValueError when n^beta underflows to 0."""
    snr_s = float(n) ** beta
    if snr_s <= 0:
        raise ValueError("snr_s must be positive")
    return snr_s, n * snr_s ** (-2.0 / alpha)


def run_cutset(config: ExperimentConfig, n: int, seed: int, phase_seed: int) -> CutsetReport:
    """Draw an instance at n from ``seed`` and evaluate its cutset bound."""
    snr_s, area = operating_point(n, config.alpha, config.beta)
    inst = generate_network(n, area, seed)
    k = config.constants
    return evaluate_cutset(inst, snr_s, config.alpha, trials=config.trials,
                           phase_seed=phase_seed, mode=config.mode, c=k.c,
                           epsilon=k.epsilon, K1=k.K1)


def run_scheme(config: ExperimentConfig, n: int, seed: int):
    """One evaluation of ``config.scheme`` at n: (estimate, cell size M, relay plan).

    The closed forms ignore ``seed`` and return no plan; the hybrid scheme
    draws its instance and routes its lines from ``seed``.
    """
    snr_s, area = operating_point(n, config.alpha, config.beta)
    k = config.constants
    if config.scheme == "multihop":
        return multihop_throughput(n, snr_s, k.K2), 1, None
    if config.scheme in ("hc", "bursty_hc"):
        return hc_throughput(n, snr_s, config.alpha, k.epsilon, k.K3,
                             bursty=config.scheme == "bursty_hc"), n, None
    inst = generate_network(n, area, seed)
    M = hybrid_cell_size(snr_s, config.alpha, n)
    est, plan, _ = simulate_hybrid(inst, snr_s, config.alpha, k.epsilon, k.K3, M=M)
    return est, M, plan


# kind -> (runner, units per point, seed paths of unit j of point i, reader).
# A runner takes (config, n) and one seed per path, derived from
# (master_seed, *path): a cutset unit its instance and its phases, a scheme
# unit its instance (only the hybrid scheme is random), a percolation point
# its study.  The reader returns the (metric, stderr) of the runner's result.
_UNITS = {
    "cutset": (run_cutset, lambda config: config.instances,
               lambda i, j: ((rng.EXPERIMENT, i, j), (rng.PHASES, i, j)),
               lambda report: (report.mc_logdet, report.mc_stderr)),
    "scheme": (run_scheme,
               lambda config: config.trials if config.scheme == "hybrid" else 1,
               lambda i, j: ((rng.EXPERIMENT, i, j),),
               lambda result: (result[0].aggregate_T, 0.0)),
    "percolation": (lambda config, n, seed: crossing_probability(
                        n, config.constants.c, config.trials, seed),
                    lambda config: 1, lambda i, j: ((rng.CROSSING, i),),
                    lambda study: (study.empirical_rate, math.sqrt(  # binomial stderr
                        study.empirical_rate * (1 - study.empirical_rate) / study.trials))),
}

# Errors of a bad draw, a non-finite Monte-Carlo value or a point outside
# the hybrid regime; a unit that raises one is logged and counted as failed.
# Anything else is a bug and propagates.
_UNIT_ERRORS = (PathologicalCutError, DegenerateInstanceError,
                OutOfRegimeError, ArithmeticError)


def _run_unit(config: ExperimentConfig, i: int, n: int, j: int):
    """Unit j of point i's (metric, stderr); None, logged with the unit's seed
    paths, on a unit error."""
    runner, _, seed_paths, read = _UNITS[config.kind]
    paths = [(config.master_seed, *path) for path in seed_paths(i, j)]
    try:
        return read(runner(config, n, *(rng.derived_seed(*path) for path in paths)))
    except _UNIT_ERRORS as exc:
        logger.warning("%s unit failed at n=%d (point %d, unit %d): %s; seed paths %s",
                       config.kind, n, i, j, type(exc).__name__,
                       ", ".join(map(str, paths)))
        return None


def run_scaling_experiment(config: ExperimentConfig) -> list[PointRow]:
    """One aggregated row per n; units run serially in a fixed order.

    Each failed unit is logged at WARNING with the seed paths it derived
    its seeds on.  Points where more than 10% of units fail get a NaN
    metric and stderr; a fully failing experiment raises.
    """
    if config.kind == "phase-diagram":
        raise ConfigError("phase-diagram configs are emitted, not swept")
    rows = []
    for i, n in enumerate(config.n_list):
        count = _UNITS[config.kind][1](config)
        good = [unit for unit in (_run_unit(config, i, n, j) for j in range(count))
                if unit is not None]
        if count - len(good) > 0.1 * count or not good:
            rows.append(PointRow(n, math.nan, math.nan))
            continue
        metric, stderr = rng.mean_stderr([m for m, _ in good], single=good[0][1])
        rows.append(PointRow(n, metric, stderr))
    if all(math.isnan(r.metric) for r in rows):
        raise ExperimentError("every point of the experiment failed")
    return rows


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    theory_exponent: float
    residuals: tuple


def fit_exponent(table, theory_exponent: float = math.nan) -> FitResult:
    """Ordinary least squares of ln(metric) on ln(n); the slope is the exponent."""
    pts = [(int(n), float(m)) for n, m in table]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a fit")
    if any(n < 1 for n, _ in pts):
        raise ValueError("n values must be >= 1")
    if any(m <= 0 or not math.isfinite(m) for _, m in pts):
        raise ValueError("metrics must be positive and finite")
    x = np.log([n for n, _ in pts])
    y = np.log([m for _, m in pts])
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("n values must not be all equal")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, max(0.0, min(1.0, r2)),
                     theory_exponent, tuple(float(r) for r in resid))


# Output formats.  Every CSV header and row, JSON document and file write
# of the package is defined below; no other module formats output.

SWEEP_CSV_HEADER = "n,metric,stderr"
# The CutsetReport attributes of a cutset CSV row, in column order.
CUTSET_COLUMNS = ("n", "alpha", "beta", "w_hat", "size_VD", "dof_term", "snr_total",
                  "power_term", "mc_logdet", "mc_stderr", "closed_form_bound",
                  "trials", "seed")
CUTSET_CSV_HEADER = ",".join(CUTSET_COLUMNS)
SCHEME_CSV_HEADER = "n,alpha,beta,scheme,M,aggregate_T,per_pair_R,max_cell_load,reroutes,seed"
CROSSING_CSV_HEADER = "n,c,trials,empirical_rate,analytic_bound,flag"
PHASE_DIAGRAM_HEADER = "alpha,beta,regime,exponent,e_multihop,e_hc,e_hybrid,optimal_scheme"


def csv_row(values) -> str:
    """One CSV line: floats as ``.17g``, bools as 0/1, anything else by ``str``."""
    return ",".join(f"{v:.17g}" if isinstance(v, float)
                    else str(int(v) if isinstance(v, bool) else v) for v in values)


def scheme_row(n: int, config: ExperimentConfig, seed: int, result) -> str:
    """The SCHEME_CSV_HEADER row of one :func:`run_scheme` result; a closed
    form has no relay plan, so its max_cell_load and reroutes read 0."""
    est, M, plan = result
    load, reroutes = (0, 0) if plan is None else (plan.max_cell_load, plan.reroutes)
    return csv_row((n, config.alpha, config.beta, est.scheme, M, est.aggregate_T,
                    est.per_pair_R, load, reroutes, seed))


def instance_json(inst: NetworkInstance) -> str:
    """``{n, area_A, seed, positions, roles, pairing}``; roles[i] is 1 for a source."""
    roles = np.zeros(inst.n_nodes, dtype=int)
    roles[inst.source_ids] = 1
    pairing = np.column_stack([inst.source_ids, inst.dest_ids])
    return json.dumps({"n": inst.n_pairs, "area_A": inst.area_A, "seed": inst.seed,
                       "positions": inst.positions.tolist(), "roles": roles.tolist(),
                       "pairing": pairing.tolist()})


def cut_json(cut: CutPolyline) -> str:
    """``{c, cell_side, path, clearance}`` of a certified cut."""
    return json.dumps({"c": cut.grid.c, "cell_side": cut.grid.cell_side,
                       "path": [[int(r), int(col)] for r, col in cut.cells],
                       "clearance": cut.clearance})


def fit_json(fit: FitResult) -> str:
    """The fit's fields as indented JSON; residuals are an array."""
    return json.dumps(asdict(fit), indent=2)


def write_lines(path: str | None, lines) -> None:
    """Write each line and a newline to ``path``, or to stdout when there is no path."""
    text = "".join(line + "\n" for line in lines)
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_manifest(out_path: str, config: ExperimentConfig) -> str:
    """Record config, package version and a content hash next to the output."""
    with open(out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "config": config.to_dict(),
        "version": __version__,
        "content_sha256": digest,
    }
    path = out_path + ".manifest.json"
    write_lines(path, [json.dumps(manifest, indent=2, sort_keys=True)])
    return path


def emit_sweep(config: ExperimentConfig, workers: int = 1) -> str:
    """Write the sweep CSV and its manifest.

    ``workers`` has no effect.  It stays because ``perfbench/worker.py``
    passes it positionally.
    """
    if not config.out:
        raise ConfigError("config.out must name an output file")
    rows = run_scaling_experiment(config)
    write_lines(config.out, [SWEEP_CSV_HEADER] + [csv_row(astuple(r)) for r in rows])
    write_manifest(config.out, config)
    return config.out


def emit_phase_diagram(config: ExperimentConfig) -> tuple[str, str]:
    """Write the classification CSV plus a regime-id grid for plotting.

    The grid file holds one row per alpha value (ascending), one integer
    regime id (1..4, in Regime order) per beta value (ascending), space
    separated.
    """
    if config.kind != "phase-diagram":
        raise ConfigError("emit_phase_diagram needs kind='phase-diagram'")
    if not config.out:
        raise ConfigError("config.out must name an output file")
    points = phase_diagram(config.alpha_range, config.beta_range, config.resolution)
    write_lines(config.out, [PHASE_DIAGRAM_HEADER] + [
        csv_row((p.alpha, p.beta, p.regime, p.exponent, p.multihop, p.hierarchical,
                 p.hybrid, p.optimal)) for p in points])
    regime_id = {regime: str(i) for i, regime in enumerate(Regime, start=1)}
    ids = [regime_id[p.regime] for p in points]
    n_beta = config.resolution[1]
    grid_path = config.out + ".grid.txt"
    write_lines(grid_path, (" ".join(ids[i:i + n_beta])
                            for i in range(0, len(ids), n_beta)))
    write_manifest(config.out, config)
    return config.out, grid_path
