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

from .network import PhysicalParams, beta_of, snr_short


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


# regime -> (optimal scheme, the RegimePoint field holding its exponent)
_OPTIMAL = {
    Regime.I: (Scheme.HC, "hierarchical"),
    Regime.II: (Scheme.BURSTY_HC, "hierarchical"),
    Regime.III: (Scheme.MULTIHOP, "multihop"),
    Regime.IV: (Scheme.HYBRID, "hybrid"),
}


@dataclass(frozen=True)
class RegimePoint:
    """The regime of one (alpha, beta) point and each scheme's exponent there.

    ``hybrid`` is only derived for 0 < beta <= alpha/2 - 1 (and alpha > 2);
    outside that range it is NaN rather than an extrapolation.
    """

    alpha: float
    beta: float
    regime: Regime
    multihop: float
    hierarchical: float
    hybrid: float

    @property
    def optimal(self) -> Scheme:
        return _OPTIMAL[self.regime][0]

    @property
    def exponent(self) -> float:
        """The capacity scaling exponent: the optimal scheme's exponent."""
        return getattr(self, _OPTIMAL[self.regime][1])


def classify(alpha: float, beta: float) -> RegimePoint:
    """Classify an (alpha, beta) operating point; the one regime decision.

    The regime row inequalities are applied verbatim: regime I is closed
    at beta = alpha/2 - 1, regime III is closed at beta = 0, and alpha = 3
    belongs to regime II.  At alpha = 3 the regime II and III/IV formulas
    coincide in value, so the closure convention never changes the
    exponent.
    """
    if alpha < 2:
        raise ValueError(f"alpha must be >= 2, got {alpha}")
    mh = 0.5 if beta > 0 else 0.5 + beta
    edge = alpha / 2.0 - 1.0
    hc = 1.0 if beta >= edge else 2.0 - alpha / 2.0 + beta
    hybrid_valid = alpha > 2 and 0.0 < beta <= edge
    hyb = 0.5 + beta / (alpha - 2.0) if hybrid_valid else math.nan
    if beta >= edge:
        regime = Regime.I
    elif alpha <= 3.0:
        regime = Regime.II
    elif beta <= 0.0:
        regime = Regime.III
    else:
        regime = Regime.IV
    return RegimePoint(alpha, beta, regime, mh, hc, hyb)


def capacity_estimate(params: PhysicalParams, n: int, area_A: float):
    """Order-of-magnitude total capacity in bits/s and the regime used.

    The regime is ``classify(alpha, beta_of(snr_short, n))``, so n must be
    at least 2.  With P_r the received power over the nearest-neighbor
    distance:

        regime I:    n * W
        regime II:   n^(2 - alpha/2) * P_r / N0
        regime III:  sqrt(n) * P_r / N0
        regime IV:   sqrt(n) * W^((a-3)/(a-2)) * (P_r/N0)^(1/(a-2))

    These are order estimates; constants are not calibrated.
    """
    alpha = params.alpha
    regime = classify(alpha, beta_of(snr_short(params, n, area_A), n)).regime
    p_r = params.gain_G * params.power_P * (area_A / n) ** (-alpha / 2.0)
    p_over_n0 = p_r / params.noise_N0
    w = params.bandwidth_W
    if regime is Regime.I:
        return n * w, regime
    if regime is Regime.II:
        return n ** (2.0 - alpha / 2.0) * p_over_n0, regime
    if regime is Regime.III:
        return math.sqrt(n) * p_over_n0, regime
    return (math.sqrt(n) * w ** ((alpha - 3.0) / (alpha - 2.0))
            * p_over_n0 ** (1.0 / (alpha - 2.0))), regime


def _axis(bounds, count: int) -> list[float]:
    """``count`` evenly spaced values from bounds[0] to bounds[1], both included."""
    lo, hi = bounds
    return [lo] if count == 1 else [lo + i * (hi - lo) / (count - 1)
                                    for i in range(count)]


def phase_diagram(alpha_range=(2.0, 6.0), beta_range=(-1.0, 3.0),
                  resolution=(100, 100)) -> list[RegimePoint]:
    """Row-major classification grid: alpha varies in the outer loop.

    Endpoints are included; ``resolution`` is (alpha cells, beta cells).
    """
    n_alpha, n_beta = resolution
    if n_alpha < 1 or n_beta < 1:
        raise ValueError("resolution entries must be >= 1")
    if alpha_range[0] < 2:
        raise ValueError("alpha range must stay within alpha >= 2")
    betas = _axis(beta_range, n_beta)
    return [classify(a, b) for a in _axis(alpha_range, n_alpha) for b in betas]


PHASE_DIAGRAM_HEADER = "alpha,beta,regime,exponent,e_multihop,e_hc,e_hybrid,optimal_scheme"


def phase_diagram_csv_rows(points: list[RegimePoint]) -> list[str]:
    return [f"{p.alpha:.17g},{p.beta:.17g},{p.regime},{p.exponent:.17g},"
            f"{p.multihop:.17g},{p.hierarchical:.17g},{p.hybrid:.17g},{p.optimal}"
            for p in points]


_GRID_ID = {Regime.I: 1, Regime.II: 2, Regime.III: 3, Regime.IV: 4}


def phase_diagram_grid_rows(points: list[RegimePoint], n_beta: int) -> list[str]:
    """One row per alpha value of a row-major grid, one regime id (1..4) per beta value."""
    ids = [str(_GRID_ID[p.regime]) for p in points]
    return [" ".join(ids[i:i + n_beta]) for i in range(0, len(ids), n_beta)]
