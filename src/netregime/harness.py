"""Experiment orchestration: sweeps over n, exponent fits, file outputs.

An experiment is a pure function of its configuration.  Per-point seeds
are derived from (master_seed, point index, trial index) on counter-based
substreams, so no output byte depends on the order units run in.  For
regime sweeps the nearest-neighbor SNR is pinned to n^beta exactly at
every point, with the physical parameters back-solved so the SNR
definition stays consistent.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from . import rng
from .cutset import CUT_MODES, PathologicalCutError, evaluate_cutset
from .network import DegenerateInstanceError, PhysicalParams, generate_network
from .percolation import crossing_probability
from .regimes import (PHASE_DIAGRAM_HEADER, Scheme, phase_diagram,
                      phase_diagram_csv_rows, phase_diagram_grid_rows)
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

    ``delta`` is accepted and recorded in the manifest but read by nothing.
    ``K4`` is recorded too; it scales only the hybrid estimate's analytic
    per-pair rate, which no output writes, so the CLI has no flag for it.
    """

    K1: float = 1.0
    K2: float = 1.0
    K3: float = 1.0
    K4: float | None = None     # defaults to K3/4
    epsilon: float = 0.05
    delta: float = 0.05
    c: float = 0.25

    @property
    def k4(self) -> float:
        return self.K3 / 4.0 if self.K4 is None else self.K4


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
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.mode not in CUT_MODES:
            raise ConfigError(f"mode must be one of {CUT_MODES}, got {self.mode!r}")
        if self.alpha < 2:
            raise ConfigError(f"alpha must be >= 2, got {self.alpha}")
        if self.kind != "phase-diagram":
            if not self.n_list:
                raise ConfigError("n_list must be non-empty")
            if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
                raise ConfigError("n_list must be strictly increasing")
        for name in ("trials", "instances", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.instances < 1:
            raise ConfigError("instances must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")

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


def params_for_snr(snr_s: float, alpha: float, n: int) -> tuple[PhysicalParams, float]:
    """Unit-power parameters and an area that realize the requested snr_s.

    With G = P = N0 = W = 1 the nearest-neighbor SNR is (A/n)^(-alpha/2),
    so A = n * snr_s^(-2/alpha) gives snr_short = snr_s exactly.
    """
    if snr_s <= 0:
        raise ValueError("snr_s must be positive")
    area = n * snr_s ** (-2.0 / alpha)
    return PhysicalParams(1.0, 1.0, 1.0, alpha, 1.0), area


@dataclass(frozen=True)
class PointRow:
    n: int
    metric: float
    stderr: float

    def csv_row(self) -> str:
        return f"{self.n},{self.metric:.17g},{self.stderr:.17g}"


SWEEP_CSV_HEADER = "n,metric,stderr"


def operating_point(n: int, alpha: float, beta: float):
    """(snr_s, params, area) of a sweep point: snr_s = n^beta, realized exactly."""
    snr_s = float(n) ** beta
    params, area = params_for_snr(snr_s, alpha, n)
    return snr_s, params, area


def run_cutset(n: int, alpha: float, beta: float, k: Constants, trials: int,
               mode: str, seed: int, phase_seed: int):
    """Draw an instance from ``seed`` and evaluate its cutset bound."""
    _, params, area = operating_point(n, alpha, beta)
    inst = generate_network(n, area, seed)
    return evaluate_cutset(inst, params, trials=trials, phase_seed=phase_seed,
                           mode=mode, c=k.c, epsilon=k.epsilon, K1=k.K1)


def run_scheme(scheme: str, n: int, alpha: float, beta: float,
               k: Constants, seed: int):
    """One evaluation of a scheme at n: (estimate, cell size M, relay plan).

    The closed forms ignore ``seed`` and return no plan; the hybrid scheme
    draws its instance and routes its lines from ``seed``.
    """
    snr_s, _, area = operating_point(n, alpha, beta)
    if scheme == "multihop":
        return multihop_throughput(n, snr_s, k.K2), 1, None
    if scheme in ("hc", "bursty_hc"):
        return hc_throughput(n, snr_s, alpha, k.epsilon, k.K3,
                             bursty=scheme == "bursty_hc"), n, None
    if scheme != "hybrid":
        raise ValueError(f"unknown scheme {scheme!r}")
    inst = generate_network(n, area, seed)
    M = hybrid_cell_size(snr_s, alpha, n)
    est, plan, _ = simulate_hybrid(inst, snr_s, alpha, k.epsilon, k.K3, k.k4,
                                   M=M, route_seed=seed)
    return est, M, plan


def _cutset_unit(config: ExperimentConfig, i_point: int, n: int, i_inst: int):
    report = run_cutset(
        n, config.alpha, config.beta, config.constants, config.trials, config.mode,
        seed=rng.derived_seed(config.master_seed, rng.EXPERIMENT, i_point, i_inst),
        phase_seed=rng.derived_seed(config.master_seed, rng.PHASES, i_point, i_inst))
    return PointRow(n, report.mc_logdet, report.mc_stderr)


def _scheme_unit(config: ExperimentConfig, i_point: int, n: int, i_trial: int):
    seed = rng.derived_seed(config.master_seed, rng.EXPERIMENT, i_point, i_trial)
    est, _, _ = run_scheme(config.scheme, n, config.alpha, config.beta,
                           config.constants, seed)
    return PointRow(n, est.aggregate_T, 0.0)


def _percolation_unit(config: ExperimentConfig, i_point: int, n: int, _: int):
    study = crossing_probability(
        n, config.constants.c, config.trials,
        rng.derived_seed(config.master_seed, rng.EXPERIMENT, i_point))
    rate = study.empirical_rate
    se = math.sqrt(max(rate * (1 - rate), 0.0) / study.trials)
    return PointRow(n, rate, se)


# kind -> (unit, units per point).  A unit returns the PointRow of its own
# draw; only the hybrid scheme is random among the schemes.
_UNITS = {
    "cutset": (_cutset_unit, lambda config: config.instances),
    "scheme": (_scheme_unit,
               lambda config: config.trials if config.scheme == "hybrid" else 1),
    "percolation": (_percolation_unit, lambda config: 1),
}

# Errors of a bad draw, a non-finite Monte-Carlo value or a point outside
# the hybrid regime; a unit that raises one is logged and counted as failed.
# Anything else is a bug and propagates.
_UNIT_ERRORS = (PathologicalCutError, DegenerateInstanceError,
                OutOfRegimeError, ArithmeticError)


def run_scaling_experiment(config: ExperimentConfig) -> list[PointRow]:
    """One aggregated row per n; units run serially in a fixed order.

    Each failed unit is logged at WARNING with its seed path (master_seed,
    EXPERIMENT, point, unit).  Points where more than 10% of units fail get
    a NaN metric and stderr; a fully failing experiment raises.
    """
    if config.kind == "phase-diagram":
        raise ConfigError("phase-diagram configs are emitted, not swept")
    unit, per_point = _UNITS[config.kind]
    rows = []
    for i, n in enumerate(config.n_list):
        count, good = per_point(config), []
        for j in range(count):
            try:
                good.append(unit(config, i, n, j))
            except _UNIT_ERRORS as exc:
                logger.warning("%s unit failed at n=%d (point %d, unit %d): %s; "
                               "seed path (%d, %d, %d, %d)", config.kind, n, i, j,
                               type(exc).__name__, config.master_seed,
                               rng.EXPERIMENT, i, j)
        if count - len(good) > 0.1 * count or not good:
            rows.append(PointRow(n, math.nan, math.nan))
            continue
        metric, stderr = rng.mean_stderr([g.metric for g in good],
                                         single=good[0].stderr)
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

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared,
                "theory_exponent": self.theory_exponent,
                "residuals": list(self.residuals)}


def fit_exponent(table, theory_exponent: float = math.nan) -> FitResult:
    """Ordinary least squares of ln(metric) on ln(n); the slope is the exponent."""
    pts = [(int(n), float(m)) for n, m in table]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a fit")
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


def write_lines(path: str, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def emit_sweep(config: ExperimentConfig, workers: int = 1) -> str:
    """Write the sweep CSV and its manifest.

    ``workers`` has no effect.  It stays because ``perfbench/worker.py``
    passes it positionally.
    """
    if not config.out:
        raise ConfigError("config.out must name an output file")
    rows = run_scaling_experiment(config)
    write_lines(config.out, SWEEP_CSV_HEADER, [r.csv_row() for r in rows])
    write_manifest(config.out, config)
    return config.out


def emit_phase_diagram(config: ExperimentConfig) -> tuple[str, str]:
    """Write the classification CSV plus a regime-id grid for plotting.

    The grid file holds one row per alpha value (ascending), one integer
    regime id (1..4) per beta value (ascending), space separated.
    """
    if config.kind != "phase-diagram":
        raise ConfigError("emit_phase_diagram needs kind='phase-diagram'")
    if not config.out:
        raise ConfigError("config.out must name an output file")
    points = phase_diagram(config.alpha_range, config.beta_range, config.resolution)
    write_lines(config.out, PHASE_DIAGRAM_HEADER, phase_diagram_csv_rows(points))
    grid_path = config.out + ".grid.txt"
    with open(grid_path, "w", encoding="utf-8", newline="\n") as fh:
        for row in phase_diagram_grid_rows(points, config.resolution[1]):
            fh.write(row + "\n")
    write_manifest(config.out, config)
    return config.out, grid_path
