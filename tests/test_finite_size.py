"""Finite-size diagnostics next to the acceptance gates.

These do not test the gates in ``test_acceptance.py``; they show, with
the same fit, how a gated quantity moves as the range of ``n`` grows.
"""

import pytest

from netregime import multihop_throughput

from helpers import fit_full_and_tail


def multihop_tail_slope(beta, k):
    """C6b's tail fit over n = 2^(k-8) ... 2^k; C6b itself is k = 14."""
    table = [(n, multihop_throughput(n, float(n) ** beta, K2=1.0).aggregate_T)
             for n in (2 ** i for i in range(k - 8, k + 1))]
    return fit_full_and_tail(table)[1].slope


def test_c6b_slope_falls_toward_the_exponent():
    # For snr < 1 the hop rate log2(1 + snr/(1 + snr)) is concave in snr
    # and its curvature decays like n^(-1/4), so the tail slope at
    # beta = -0.25 overshoots 0.25 and the overshoot shrinks with n.
    slopes = {k: multihop_tail_slope(-0.25, k) for k in range(14, 41)}
    assert [slopes[k] for k in (14, 20, 30, 40)] == pytest.approx(
        [0.2959, 0.2687, 0.2535, 0.2506], abs=5e-5)
    assert all(slopes[k] > slopes[k + 1] > 0.25 for k in range(14, 40))
    assert abs(slopes[20] - 0.25) <= 0.02
