import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netregime import Regime, Scheme, classify, regimes

from helpers import phase_diagram


def reference_exponent(alpha, beta):
    """Independently coded inequality table for the four regimes."""
    if beta >= alpha / 2 - 1:
        return "I", 1.0
    if 2 <= alpha <= 3:
        return "II", 2 - alpha / 2 + beta
    if beta <= 0 and alpha > 3:
        return "III", 0.5 + beta
    return "IV", 0.5 + beta / (alpha - 2)


class TestClassify:
    @pytest.mark.parametrize("alpha,beta,regime,exponent", [
        (3.0, 2.0, Regime.I, 1.0),
        (2.5, 0.0, Regime.II, 0.75),
        (4.0, -0.5, Regime.III, 0.0),
        (4.0, 0.5, Regime.IV, 0.75),
    ])
    def test_examples(self, alpha, beta, regime, exponent):
        point = classify(alpha, beta)
        assert point.regime is regime
        assert point.exponent == pytest.approx(exponent, abs=1e-12)

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            classify(1.9, 0.0)

    @given(st.floats(2.0, 6.0), st.floats(-2.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_total_and_matches_reference(self, alpha, beta):
        point = classify(alpha, beta)
        name, expo = reference_exponent(alpha, beta)
        assert point.regime.value == name
        assert point.exponent == pytest.approx(expo, abs=1e-12)

    def test_dense_and_extended_special_cases(self):
        for alpha in np.linspace(2.0, 6.0, 21):
            assert classify(alpha, alpha / 2).exponent == pytest.approx(1.0)
            expected = 2 - alpha / 2 if alpha <= 3 else 0.5
            assert classify(alpha, 0.0).exponent == pytest.approx(expected)

    @given(st.floats(2.0, 6.0))
    @settings(max_examples=200, deadline=None)
    def test_continuity_at_dof_power_edge(self, alpha):
        edge = alpha / 2 - 1
        inner = (2 - alpha / 2 + edge if alpha <= 3
                 else 0.5 + edge / (alpha - 2))
        assert abs(1.0 - inner) < 1e-9

    @given(st.floats(3.0, 6.0, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_continuity_at_zero_beta(self, alpha):
        assert abs((0.5 + 0.0) - (0.5 + 0.0 / (alpha - 2))) < 1e-9

    @given(st.floats(-1.0, 0.499))
    @settings(max_examples=200, deadline=None)
    def test_continuity_at_alpha_three(self, beta):
        row2 = 2 - 3.0 / 2 + beta
        row34 = 0.5 + beta if beta <= 0 else 0.5 + beta / (3.0 - 2)
        assert abs(row2 - row34) < 1e-9


class TestSchemeExponents:
    def test_tie_at_dof_power_edge(self):
        s = classify(4.0, 1.0)
        assert s.multihop == pytest.approx(0.5)
        assert s.hierarchical == pytest.approx(1.0)
        assert s.hybrid == pytest.approx(1.0)

    def test_negative_beta_multihop(self):
        s = classify(4.0, -1.0)
        assert s.multihop == pytest.approx(-0.5)
        assert math.isnan(s.hybrid)

    def test_hc_at_low_alpha(self):
        s = classify(2.0, 0.0)
        assert s.hierarchical == pytest.approx(1.0)

    def test_optimal_label_matches_regime(self):
        assert classify(2.5, 2.0).optimal is Scheme.HC
        assert classify(2.5, -0.5).optimal is Scheme.BURSTY_HC
        assert classify(4.0, -0.5).optimal is Scheme.MULTIHOP
        assert classify(4.0, 0.5).optimal is Scheme.HYBRID

    def test_optimality_consistency_grid(self):
        # interior points: best valid scheme exponent equals the theory value
        for alpha in np.linspace(2.05, 5.95, 14):
            for beta in np.linspace(-0.95, 2.95, 14):
                if (abs(beta - (alpha / 2 - 1)) <= 1e-12 or abs(beta) <= 1e-12
                        or abs(alpha - 3) <= 1e-12):
                    continue
                s = classify(alpha, beta)
                candidates = [s.multihop, s.hierarchical]
                if not math.isnan(s.hybrid):
                    candidates.append(s.hybrid)
                assert max(candidates) == pytest.approx(s.exponent, abs=1e-12)


class TestPhaseDiagram:
    def test_known_cells(self):
        cells = phase_diagram((2.0, 6.0), (-1.0, 3.0), (9, 9))
        by_pt = {(round(c.alpha, 6), round(c.beta, 6)): c for c in cells}
        assert by_pt[(2.5, 2.0)].regime is Regime.I
        assert by_pt[(4.0, 0.5)].regime is Regime.IV
        assert by_pt[(4.0, -0.5)].regime is Regime.III
        assert by_pt[(2.5, 0.0)].regime is Regime.II

    def test_row_major_order(self):
        cells = phase_diagram((2.0, 3.0), (0.0, 1.0), (2, 3))
        alphas = [c.alpha for c in cells]
        betas = [c.beta for c in cells]
        assert alphas == [2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        assert betas == [0.0, 0.5, 1.0, 0.0, 0.5, 1.0]

    def test_boundaries_match_direct_inequalities(self):
        cells = phase_diagram((2.0, 6.0), (-1.0, 3.0), (100, 100))
        for c in cells:
            name, _ = reference_exponent(c.alpha, c.beta)
            assert c.regime.value == name
        # region IV exists only where alpha > 3
        for c in cells:
            if c.regime is Regime.IV:
                assert c.alpha > 3

    def test_one_classify_per_cell(self, monkeypatch):
        calls = []

        def counted(alpha, beta):
            calls.append((alpha, beta))
            return classify(alpha, beta)
        monkeypatch.setattr(regimes, "classify", counted)
        phase_diagram((2.0, 6.0), (-1.0, 3.0), (10, 10))
        assert len(calls) == 100
