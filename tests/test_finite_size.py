"""Finite-size diagnostics next to the acceptance gates.

These do not test the gates in ``test_acceptance.py``; they show how a
gated quantity moves as the range of ``n`` grows: C6b's fit, C8's relay
load concentration, and C11's crossing failure rate against its analytic
bound.
"""

import math

import numpy as np
import pytest

from netregime import crossing_probability, multihop_throughput
from netregime.harness import fit_exponent
from netregime.percolation import analytic_failure_bound, decay_condition_holds

import criteria
from helpers import fit_full_and_tail


def test_c6b_slope_falls_toward_the_exponent():
    # For snr < 1 the hop rate log2(1 + snr/(1 + snr)) is concave in snr
    # and its curvature decays like n^(-1/4), so the tail slope at
    # beta = -0.25 overshoots 0.25 and the overshoot shrinks with n.
    slopes = {k: fit_full_and_tail(criteria.multihop_table(-0.25, k))[1].slope
              for k in range(14, 41)}
    assert [slopes[k] for k in (14, 20, 30, 40)] == pytest.approx(
        [0.2959, 0.2687, 0.2535, 0.2506], abs=5e-5)
    assert all(slopes[k] > slopes[k + 1] > 0.25 for k in range(14, 40))
    assert abs(slopes[20] - 0.25) <= 0.02


def load_ratio_and_rate(estimate, plan):
    """Mean over lines of the peak node load on the path, over the mean load
    of the nodes that relay; and the aggregate rate."""
    load = plan.node_load
    peak = np.maximum.reduceat(load[plan.nodes], plan.node_start[:-1])
    return peak.mean() / load[load > 0].mean(), estimate.aggregate_T


def test_c8_peak_load_ratio_grows_with_n():
    # C8's hybrid rate at M = 1 is each line's relay budget over the peak
    # node load on its path.  Over n = 2^9 ... 2^14 (C8's parameters and
    # seed path, 4 instances each) the load ratio reads 3.65, 3.82, 4.17,
    # 4.20, 4.53 and 4.67, about +0.30 per unit of ln n (4.89 at 2^15): the
    # growth C8's failure message calls logarithmic, which keeps the
    # simulated slope below multihop's.  The same runs put C8's slope gap at
    # 0.065 (C8: 0.055 on 512 ... 4096); it does not shrink.  Only the rise
    # is asserted.
    points = criteria.hybrid("C8", [2 ** k for k in range(9, 15)], 4, load_ratio_and_rate)
    means = {n: [math.fsum(v) / len(v) for v in zip(*values)] for n, _, values in points}
    ratios = {n: ratio for n, (ratio, _) in means.items()}
    slope = np.polyfit(np.log(list(ratios)), list(ratios.values()), 1)[0]
    gap = abs(fit_exponent([(n, rate) for n, (_, rate) in means.items()]).slope
              - fit_exponent([(n, multihop_throughput(n, 1.0).aggregate_T) for n in means]).slope)
    print("C8 peak/mean relay load: " + ", ".join(
        f"n={n}: {r:.2f}" for n, r in ratios.items()) + f"; slope {slope:.3f} per ln n")
    print(f"C8 |slope difference| to multihop over n = 2^9 ... 2^14: {gap:.4f}")
    assert ratios[2 ** 14] > ratios[2 ** 9]


@pytest.mark.parametrize("criterion", ["C7", "C8"])
def test_hybrid_points_keyed_by_index(criterion):
    # A list that starts at the same n reuses the instances of its leading
    # points, which the C8 diagnostic's wider range relies on.
    short = criteria.hybrid(criterion, [64, 128, 256], 2)
    assert criteria.hybrid(criterion, [64, 128, 256, 512], 2)[:3] == short


@pytest.mark.parametrize("c", [0.25, 0.35])
def test_crossing_failure_against_the_bound_up_to_2_24(c):
    # The bound (5/(7c)) sqrt(n) (7c^2)^(ln n) decays with n only below
    # c^2 = 1/(7 sqrt(e)), c ~ 0.294.  Slab-only trials reach n = 2^24 (about
    # 17k slab nodes per trial at c = 0.25; a full draw would hold 512 MB of
    # positions).  At seed 24 and 100 trials no trial fails at c = 0.25, and
    # at c = 0.35 one fails at 2^12 and none after, while the bound there
    # exceeds 1 and grows: past the threshold the bound says nothing, the
    # crossing still gets likelier.
    trials = 100
    assert decay_condition_holds(c) == (c < 0.294)
    for k in (12, 16, 20, 24):
        n = 2 ** k
        failure = 1.0 - crossing_probability(n, c, trials, seed=24).empirical_rate
        bound = min(1.0, analytic_failure_bound(n, c))
        se = math.sqrt(bound * (1.0 - bound) / trials)
        print(f"n=2^{k} c={c}: failure rate {failure:.3f}, "
              f"bound {analytic_failure_bound(n, c):.4g}")
        assert failure <= bound + 3 * se
