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


@dataclass(frozen=True, slots=True)
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


def _axis(bounds, count: int):
    """``count`` evenly spaced values from bounds[0] to bounds[1], both
    included, each made as it is read."""
    lo, hi = bounds
    if count == 1:
        return iter([lo])
    return (lo + i * (hi - lo) / (count - 1) for i in range(count))


def phase_diagram_rows(alpha_range=(2.0, 6.0), beta_range=(-1.0, 3.0),
                       resolution=(100, 100)):
    """The classification grid one alpha value at a time: an iterator over
    the alpha values (ascending) that yields each one's list of beta cells
    (ascending), classified when it is drawn.

    Endpoints are included; ``resolution`` is (alpha cells, beta cells).
    :class:`harness.ExperimentConfig` checks the arguments before they get
    here.
    """
    n_alpha, n_beta = resolution
    betas = list(_axis(beta_range, n_beta))
    return ([classify(a, b) for b in betas] for a in _axis(alpha_range, n_alpha))
