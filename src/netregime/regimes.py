"""Closed-form operating-regime theory.

A network's capacity scaling exponent e(alpha, beta) is determined by the
path-loss exponent alpha and the nearest-neighbor SNR exponent beta
(snr_short = n^beta):

    e = 1                       if beta >= alpha/2 - 1            (regime I)
    e = 2 - alpha/2 + beta      if beta < alpha/2 - 1, 2<=alpha<=3 (regime II)
    e = 1/2 + beta              if beta <= 0 and alpha > 3         (regime III)
    e = 1/2 + beta/(alpha - 2)  if 0 < beta < alpha/2 - 1, alpha>3 (regime IV)

Regime I is bandwidth limited (long-range MIMO at high SNR), II power
limited with slow decay (bursty cooperation), III power limited with fast
decay (nearest-neighbor multihop), and IV is the mixed case where local
cooperation plus global multihop is required.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .network import PhysicalParams, snr_short, snr_long

BOUNDARY_TOL = 1e-12


class Regime(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    def __str__(self):
        return self.value


class Scheme(enum.Enum):
    MULTIHOP = "multihop"
    HC = "hc"
    BURSTY_HC = "bursty_hc"
    HYBRID = "hybrid"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class BoundaryFlags:
    """Whether (alpha, beta) sits on a regime boundary, within tolerance."""

    dof_power: bool     # beta = alpha/2 - 1
    zero_beta: bool     # beta = 0
    alpha_three: bool   # alpha = 3

    def any(self) -> bool:
        return self.dof_power or self.zero_beta or self.alpha_three


@dataclass(frozen=True)
class RegimePoint:
    alpha: float
    beta: float
    regime: Regime
    exponent: float
    boundary: BoundaryFlags


def classify(alpha: float, beta: float, tol: float = BOUNDARY_TOL) -> RegimePoint:
    """Classify an (alpha, beta) operating point and return its exponent.

    The regime is the one whose scheme :func:`scheme_exponents` names
    optimal, and its exponent is that scheme's row there.  At alpha = 3
    the regime II and III/IV formulas coincide in value, so the closure
    convention never changes the exponent.
    """
    s = scheme_exponents(alpha, beta)
    regime, exponent = {
        Scheme.HC: (Regime.I, s.hierarchical),
        Scheme.BURSTY_HC: (Regime.II, s.hierarchical),
        Scheme.MULTIHOP: (Regime.III, s.multihop),
        Scheme.HYBRID: (Regime.IV, s.hybrid),
    }[s.optimal]
    edge = alpha / 2.0 - 1.0
    flags = BoundaryFlags(
        dof_power=abs(beta - edge) <= tol,
        zero_beta=abs(beta) <= tol,
        alpha_three=abs(alpha - 3.0) <= tol,
    )
    return RegimePoint(alpha, beta, regime, exponent, flags)


def capacity_estimate(params: PhysicalParams, n: int, area_A: float):
    """Order-of-magnitude total capacity in bits/s and the regime used.

    With P_r the received power over the nearest-neighbor distance and the
    0 dB thresholds implemented as >= 1 comparisons:

        regime I   (snr_long >= 1):             n * W
        regime II  (2 <= alpha <= 3):           n^(2 - alpha/2) * P_r / N0
        regime III (alpha > 3, snr_short < 1):  sqrt(n) * P_r / N0
        regime IV  (alpha > 3, snr_short >= 1): sqrt(n) * W^((a-3)/(a-2))
                                                * (P_r/N0)^(1/(a-2))

    These are order estimates; constants are not calibrated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = params.alpha
    snr_s = snr_short(params, n, area_A)
    snr_l = snr_long(snr_s, n, alpha)
    p_r = params.gain_G * params.power_P * (area_A / n) ** (-alpha / 2.0)
    p_over_n0 = p_r / params.noise_N0
    w = params.bandwidth_W
    if snr_l >= 1.0:
        return n * w, Regime.I
    if alpha <= 3.0:
        return n ** (2.0 - alpha / 2.0) * p_over_n0, Regime.II
    if snr_s < 1.0:
        return math.sqrt(n) * p_over_n0, Regime.III
    return (math.sqrt(n) * w ** ((alpha - 3.0) / (alpha - 2.0))
            * p_over_n0 ** (1.0 / (alpha - 2.0))), Regime.IV


@dataclass(frozen=True)
class SchemeExponents:
    """Scaling exponents of the three schemes at one (alpha, beta) point.

    ``hybrid`` is only derived for 0 < beta <= alpha/2 - 1 (and alpha > 2);
    outside that range it is NaN with ``hybrid_valid`` False rather than an
    extrapolation.
    """

    multihop: float
    hierarchical: float
    hybrid: float
    hybrid_valid: bool
    optimal: Scheme


def scheme_exponents(alpha: float, beta: float) -> SchemeExponents:
    """Per-scheme scaling exponents and the optimal scheme for the regime.

    The regime row inequalities are applied verbatim: regime I is closed
    at beta = alpha/2 - 1, regime III is closed at beta = 0, and alpha = 3
    belongs to regime II.
    """
    if alpha < 2:
        raise ValueError(f"alpha must be >= 2, got {alpha}")
    mh = 0.5 if beta > 0 else 0.5 + beta
    edge = alpha / 2.0 - 1.0
    hc = 1.0 if beta >= edge else 2.0 - alpha / 2.0 + beta
    hybrid_valid = alpha > 2 and 0.0 < beta <= edge
    hyb = 0.5 + beta / (alpha - 2.0) if hybrid_valid else math.nan
    if beta >= edge:
        optimal = Scheme.HC                 # regime I
    elif alpha <= 3.0:
        optimal = Scheme.BURSTY_HC          # regime II
    elif beta <= 0.0:
        optimal = Scheme.MULTIHOP           # regime III
    else:
        optimal = Scheme.HYBRID             # regime IV
    return SchemeExponents(mh, hc, hyb, hybrid_valid, optimal)


@dataclass(frozen=True)
class DiagramCell:
    point: RegimePoint
    schemes: SchemeExponents


def _axis(bounds, count: int) -> list[float]:
    """``count`` evenly spaced values from bounds[0] to bounds[1], both included."""
    lo, hi = bounds
    return [lo] if count == 1 else [lo + i * (hi - lo) / (count - 1)
                                    for i in range(count)]


def phase_diagram(alpha_range=(2.0, 6.0), beta_range=(-1.0, 3.0),
                  resolution=(100, 100)) -> list[DiagramCell]:
    """Row-major classification grid: alpha varies in the outer loop.

    Endpoints are included; ``resolution`` is (alpha cells, beta cells).
    """
    n_alpha, n_beta = resolution
    if n_alpha < 1 or n_beta < 1:
        raise ValueError("resolution entries must be >= 1")
    if alpha_range[0] < 2:
        raise ValueError("alpha range must stay within alpha >= 2")
    betas = _axis(beta_range, n_beta)
    cells = []
    for a in _axis(alpha_range, n_alpha):
        for b in betas:
            cells.append(DiagramCell(classify(a, b), scheme_exponents(a, b)))
    return cells


PHASE_DIAGRAM_HEADER = "alpha,beta,regime,exponent,e_multihop,e_hc,e_hybrid,optimal_scheme"


def phase_diagram_csv_rows(cells: list[DiagramCell]) -> list[str]:
    rows = []
    for cell in cells:
        p, s = cell.point, cell.schemes
        hyb = f"{s.hybrid:.17g}" if s.hybrid_valid else "nan"
        rows.append(f"{p.alpha:.17g},{p.beta:.17g},{p.regime},{p.exponent:.17g},"
                    f"{s.multihop:.17g},{s.hierarchical:.17g},{hyb},{s.optimal}")
    return rows
