"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Every tolerance is fixed here; nothing is calibrated at
run time.  Criteria 5, 6b and 8 measure finite-size slope corrections that
exceed their gates at desk scale; they are asserted at the stated
tolerances anyway and fail honestly (see the assertion messages).
Criteria 5-8 draw their values through ``criteria.py``, which the
finite-size diagnostics share.
"""

import itertools
import math
import os
import threading
import time
from collections import Counter

import numpy as np

from netregime import (ExperimentConfig, Constants, classify, dof_term_realized,
                       emit_phase_diagram, emit_sweep, generate_network,
                       mc_cutset_logdet, multihop_throughput, partition_nodes,
                       select_cut_width, snr_total, build_cell_grid,
                       route_sd_lines, build_occupancy_grid, certified_cut,
                       has_open_crossing)
from netregime import cutset as cutset_module
from netregime.harness import fit_exponent, operating_point
from netregime.percolation import analytic_failure_bound, split_by_cut
from netregime.rng import derived_seed

import criteria
from helpers import (brute_dhat, brute_snr_total, exists_closed_lr_crossing,
                     fit_full_and_tail, hybrid_analytic_per_pair, pin_cpus,
                     power_profile)

LN2 = math.log(2.0)


def report(cid, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. Classifier exactness on a 200 x 200 grid
# --------------------------------------------------------------------------

def test_c1_classifier_exactness():
    def table(alpha, beta):
        # hand-coded inequality table, kept deliberately separate from the
        # library implementation
        if beta >= alpha / 2.0 - 1.0:
            return "I", 1.0
        if alpha <= 3.0:
            return "II", 2.0 - alpha / 2.0 + beta
        if beta <= 0.0:
            return "III", 0.5 + beta
        return "IV", 0.5 + beta / (alpha - 2.0)

    t0 = time.time()
    agree = total = 0
    for alpha in np.linspace(2.0, 6.0, 200):
        for beta in np.linspace(-1.0, 3.0, 200):
            point = classify(float(alpha), float(beta))
            name, expo = table(float(alpha), float(beta))
            total += 1
            agree += (point.regime.value == name
                      and abs(point.exponent - expo) <= 1e-12)
    elapsed = time.time() - t0
    ok = agree == total
    assert report("C1 classifier exactness",
                  ok, f"{agree}/{total} grid points agree ({elapsed:.2f} s)")


# --------------------------------------------------------------------------
# 2. Exponent continuity across every regime boundary
# --------------------------------------------------------------------------

def test_c2_boundary_continuity():
    gen = np.random.default_rng(2)
    worst = 0.0
    m = 10 ** 4
    # beta = alpha/2 - 1: row I against rows II (alpha <= 3) and IV
    for alpha in gen.uniform(2.0, 6.0, m):
        edge = alpha / 2.0 - 1.0
        inner = (2.0 - alpha / 2.0 + edge if alpha <= 3.0
                 else 0.5 + edge / (alpha - 2.0))
        worst = max(worst, abs(1.0 - inner))
    # beta = 0, alpha > 3: row III against row IV
    for alpha in gen.uniform(3.0, 6.0, m):
        worst = max(worst, abs((0.5 + 0.0) - (0.5 + 0.0 / (alpha - 2.0))))
    # alpha = 3: row II against rows III / IV
    for beta in gen.uniform(-1.0, 0.5, m):
        row2 = 2.0 - 1.5 + beta
        row34 = 0.5 + beta if beta <= 0 else 0.5 + beta / 1.0
        worst = max(worst, abs(row2 - row34))
    assert report("C2 boundary continuity", worst < 1e-9,
                  f"max |row difference| = {worst:.2e} over 3x{m} boundary points")


# --------------------------------------------------------------------------
# 3. Hadamard/trace chain on every Monte-Carlo realization
# --------------------------------------------------------------------------

def test_c3_cutset_inequality_chain():
    t0 = time.time()
    violations = trials = instances = 0
    combos = list(itertools.product((2.0, 2.5, 3.0, 4.0),
                                    (-0.5, 0.0, 0.5, 1.0)))
    per_combo = 63                                   # 16 x 63 = 1008 instances
    for ci, (alpha, beta) in enumerate(combos):
        for t in range(per_combo):
            n = 8 + derived_seed(300, ci, t) % 57    # 2n in [16, 128]
            snr, area = operating_point(n, alpha, beta)
            inst = generate_network(n, area, derived_seed(301, ci, t))
            part = partition_nodes(inst, select_cut_width(snr, n, alpha))
            mc = mc_cutset_logdet(inst, part, snr, alpha, trials=2,
                                  phase_seed=derived_seed(302, ci, t))
            envelope = (dof_term_realized(inst, part, snr, alpha)
                        + snr_total(inst, part, snr, alpha) / LN2)
            instances += 1
            for value in mc.values:
                trials += 1
                if value > envelope + 1e-9:
                    violations += 1
    ok = violations == 0 and instances == 1008
    assert report("C3 cutset inequality chain", ok,
                  f"{violations} violations over {trials} realizations of "
                  f"{instances} instances ({time.time() - t0:.1f} s)")


# --------------------------------------------------------------------------
# 4. Brute-force oracle equivalence for power sums
# --------------------------------------------------------------------------

def test_c4_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    cases = 0
    for ci, alpha in enumerate((2.0, 2.5, 3.0, 4.0)):
        for t in range(6):
            n = 4 + derived_seed(400, ci, t) % 29    # 2n <= 64
            snr, area = operating_point(n, alpha, math.log(1.7) / math.log(n))
            inst = generate_network(n, area, derived_seed(401, ci, t))
            part = partition_nodes(inst, select_cut_width(snr, n, alpha))
            got = snr_total(inst, part, snr, alpha)
            want = brute_snr_total(inst, alpha, snr, list(part.far_D),
                                   list(part.left_S))
            if want:
                worst = max(worst, abs(got - want) / want)
            targets = np.sort(np.concatenate([part.strip_VD, part.far_D]))
            prof = power_profile(inst, alpha, targets, source_ids=part.left_S)
            brute = brute_dhat(inst, alpha, [p.node for p in prof],
                               list(part.left_S))
            for entry, expected in zip(prof, brute):
                worst = max(worst, abs(entry.d_hat - expected) / expected)
            cases += 1
    assert report("C4 oracle equivalence", worst < 1e-9,
                  f"max relative deviation {worst:.2e} over {cases} instances "
                  f"({time.time() - t0:.1f} s)")


# --------------------------------------------------------------------------
# 5. Dense-regime Monte-Carlo slope (alpha = 2, beta = 1)
# --------------------------------------------------------------------------

def test_c5_dense_regime_slope():
    t0 = time.time()
    table = [(n, math.fsum(vals) / len(vals))
             for n, vals in criteria.dense_cutset((16, 32, 64, 128, 256), 3)]
    full, tail = fit_full_and_tail(table, 1.0)
    ok = 0.8 <= tail.slope <= 1.15
    report("C5 dense-regime slope", ok,
           f"tail slope {tail.slope:.3f} (full {full.slope:.3f}) vs gate "
           f"[0.8, 1.15] ({time.time() - t0:.1f} s)")
    assert ok, (
        f"fitted slope {tail.slope:.3f} exceeds the [0.8, 1.15] gate: at "
        f"n <= 256 the dense-regime log-det value carries a multiplicative "
        f"log2(n) factor (per-eigenmode bits grow with n), adding about "
        f"1/ln(n) = 0.18..0.36 to any finite-range fit")


# --------------------------------------------------------------------------
# 6. Multihop closed-form slopes
# --------------------------------------------------------------------------

def test_c6a_multihop_slope_positive_beta():
    slope = fit_full_and_tail(criteria.multihop_table(0.5, 14))[1].slope
    ok = abs(slope - 0.5) <= 0.02
    assert report("C6a multihop slope (beta=0.5)", ok,
                  f"tail slope {slope:.4f} vs 0.5 +/- 0.02")


def test_c6b_multihop_slope_negative_beta():
    slope = fit_full_and_tail(criteria.multihop_table(-0.25, 14))[1].slope
    ok = abs(slope - 0.25) <= 0.02
    report("C6b multihop slope (beta=-0.25)", ok,
           f"tail slope {slope:.4f} vs 0.25 +/- 0.02")
    assert ok, (
        f"fitted slope {slope:.4f} misses 0.25 +/- 0.02: for snr < 1 the "
        f"hop rate log2(1 + snr/(1 + snr)) is concave in snr and its "
        f"curvature decays only like n^(-1/4), so every fit over "
        f"n <= 2^14 overshoots the asymptotic exponent by 0.03..0.05")


# --------------------------------------------------------------------------
# 7. Hybrid-regime slope (alpha = 4, beta = 0.5)
# --------------------------------------------------------------------------

def test_c7_hybrid_regime_slope():
    t0 = time.time()
    epsilon = 0.05
    points = criteria.hybrid("C7", [2 ** k for k in range(8, 14)], 20)
    sim = [(n, math.fsum(vals) / len(vals)) for n, _, vals in points]
    analytic = [(n, hybrid_analytic_per_pair(n, m, epsilon) * n) for n, m, _ in points]
    _, sim_tail = fit_full_and_tail(sim, 0.75)
    ana_fit = fit_exponent(analytic, 0.75)
    ok_sim = 0.60 <= sim_tail.slope <= 0.90
    ok_ana = abs(ana_fit.slope - 0.75) <= 0.05 + epsilon
    ok = ok_sim and ok_ana
    assert report("C7 hybrid-regime slope", ok,
                  f"simulated tail slope {sim_tail.slope:.3f} in [0.60, 0.90]: "
                  f"{ok_sim}; analytic slope {ana_fit.slope:.3f} within "
                  f"{0.05 + epsilon:.2f} of 0.75: {ok_ana} "
                  f"({time.time() - t0:.1f} s)")


# --------------------------------------------------------------------------
# 8. Degenerate hybrid (M = 1) against multihop
# --------------------------------------------------------------------------

def test_c8_hybrid_degenerate_check():
    t0 = time.time()
    ns = (512, 1024, 2048, 4096)
    hyb = [(n, math.fsum(vals) / len(vals)) for n, _, vals in criteria.hybrid("C8", ns, 16)]
    mh = [(n, multihop_throughput(n, 1.0).aggregate_T) for n in ns]
    diff = abs(fit_exponent(hyb).slope - fit_exponent(mh).slope)
    ok = diff < 0.05
    report("C8 hybrid degenerate check", ok,
           f"|slope difference| = {diff:.3f} vs gate 0.05 over n in {ns} "
           f"({time.time() - t0:.1f} s)")
    assert ok, (
        f"slope difference {diff:.3f} exceeds 0.05: the per-pair rate is the "
        f"minimum relay share along a path of ~sqrt(2n) cells, and the "
        f"maximum load along such a path exceeds the mean load by a factor "
        f"that still grows logarithmically at n <= 4096, dragging the "
        f"simulated slope ~0.06 below the multihop closed form")


# --------------------------------------------------------------------------
# 9. Relay load concentration
# --------------------------------------------------------------------------

def test_c9_load_concentration():
    t0 = time.time()
    n, m = 4096, 16
    bound = 4.0 * math.sqrt(n * m)
    hits = 0
    seeds = 50
    for t in range(seeds):
        inst = generate_network(n, float(n), derived_seed(900, t))
        plan = route_sd_lines(build_cell_grid(inst, m), inst,
                              seed=derived_seed(901, t))
        hits += plan.max_cell_load <= bound
    ok = hits >= 0.95 * seeds
    assert report("C9 load concentration", ok,
                  f"{hits}/{seeds} seeds with max cell load <= {bound:.0f} "
                  f"({time.time() - t0:.1f} s)")


# --------------------------------------------------------------------------
# 10. Percolation duality
# --------------------------------------------------------------------------

def test_c10_percolation_duality():
    t0 = time.time()
    n = 1024
    violations = 0
    slabs = 0
    branches = {True: 0, False: 0}
    for ci, c in enumerate((0.15, 0.25)):
        for t in range(5000):
            inst = generate_network(n, float(n), derived_seed(1000, ci, t))
            grid = build_occupancy_grid(inst, c)
            open_tb = has_open_crossing(grid)
            closed_lr = exists_closed_lr_crossing(grid)
            slabs += 1
            branches[open_tb] += 1
            if open_tb == closed_lr:
                violations += 1
    ok = violations == 0 and slabs == 10 ** 4
    assert report("C10 percolation duality", ok,
                  f"{violations} violations over {slabs} slabs "
                  f"(crossing present {branches[True]}, absent "
                  f"{branches[False]}) ({time.time() - t0:.1f} s)")


# --------------------------------------------------------------------------
# 11. Crossing probability against the analytic bound, with certified cuts
# --------------------------------------------------------------------------

def test_c11_percolation_probability():
    t0 = time.time()
    n, c, seeds = 10 ** 4, 0.25, 500
    assert c * c < 1.0 / (7.0 * math.sqrt(math.e))
    failures = 0
    certified = 0
    clearance_ok = True
    for t in range(seeds):
        inst = generate_network(n, float(n), derived_seed(1100, t))
        cut = certified_cut(inst, c)     # raises if uncertifiable
        if cut is None:
            failures += 1
            continue
        certified += 1
        if cut.clearance < 0.5 * c * inst.nn_scale:
            clearance_ok = False
    bound = analytic_failure_bound(n, c)
    rate = failures / seeds
    se = math.sqrt(max(bound * (1 - bound), 1e-12) / seeds)
    ok = rate <= bound + 3 * se and clearance_ok
    assert report("C11 percolation probability", ok,
                  f"failure rate {rate:.4f} <= bound {bound:.4f} + 3se; "
                  f"{certified} cuts certified at clearance >= (c/2)sqrt(A/n) "
                  f"({time.time() - t0:.1f} s)")


# --------------------------------------------------------------------------
# 12. B-set size and power under the node-free cut
# --------------------------------------------------------------------------

def test_c12_percolation_mode_cutset():
    t0 = time.time()
    n, c, alpha, k1, snr = 4096, 0.25, 4.0, 8.0, 1.0
    count_bound = math.sqrt(n) * math.log(n)
    snr_bound = k1 * snr * math.sqrt(n) * math.log(n) ** 2
    seeds = 100
    count_ok = snr_ok = usable = 0
    for t in range(seeds):
        inst = generate_network(n, float(n), derived_seed(1200, t))
        cut = certified_cut(inst, c)
        if cut is None:
            continue
        left, b, _ = split_by_cut(cut, inst)
        usable += 1
        count_ok += len(b) <= count_bound
        if len(b):
            diff = (inst.positions[b][:, None, :]
                    - inst.positions[left][None, :, :])
            rhat = np.sqrt((diff ** 2).sum(axis=2)) / inst.nn_scale
            b_snr = snr * float((rhat ** -alpha).sum())
        else:
            b_snr = 0.0
        snr_ok += b_snr <= snr_bound
    ok = (usable >= 0.95 * seeds and count_ok >= 0.95 * usable
          and snr_ok >= 0.95 * usable)
    assert report("C12 percolation-mode cutset", ok,
                  f"B-count bound met {count_ok}/{usable}, B-SNR bound met "
                  f"{snr_ok}/{usable} (bounds {count_bound:.0f} nodes, "
                  f"{snr_bound:.0f} SNR) ({time.time() - t0:.1f} s)")


# --------------------------------------------------------------------------
# 13. Byte-identical outputs at different parallelism levels
# --------------------------------------------------------------------------

def test_c13_reproducibility(tmp_path, monkeypatch):
    t0 = time.time()
    real_start, started = threading.Thread.start, []

    def start(thread):   # record the usable CPU count at each started thread
        started.append(len(os.sched_getaffinity(0)))
        real_start(thread)
    monkeypatch.setattr(threading.Thread, "start", start)
    real_channel, builds = cutset_module.channel_matrix, Counter()

    def channel_matrix(instance, *args, phase_seed, **kw):   # count each trial's chunks
        builds[len(os.sched_getaffinity(0)), instance.n_pairs, phase_seed] += 1
        return real_channel(instance, *args, phase_seed=phase_seed, **kw)
    monkeypatch.setattr(cutset_module, "channel_matrix", channel_matrix)
    outputs = []
    for cpus in (1, 3):
        pin_cpus(monkeypatch, cpus)
        tag = f"c{cpus}"
        paths = {}
        # each n = 512 trial builds H in chunks of 256 rows, four row
        # blocks each
        cutset = ExperimentConfig(kind="cutset", n_list=[16, 32, 64, 512],
                                  alpha=2.0, beta=1.0, trials=5, instances=2,
                                  master_seed=13, out=str(tmp_path / f"cut_{tag}.csv"))
        emit_sweep(cutset)
        paths["cutset"] = cutset.out
        hybrid = ExperimentConfig(kind="scheme", scheme="hybrid",
                                  n_list=[64, 128], alpha=4.0, beta=0.5,
                                  trials=4, master_seed=13,
                                  out=str(tmp_path / f"hyb_{tag}.csv"))
        emit_sweep(hybrid)
        paths["hybrid"] = hybrid.out
        perc = ExperimentConfig(kind="percolation", n_list=[256, 1024],
                                trials=10, master_seed=13,
                                constants=Constants(c=0.25),
                                out=str(tmp_path / f"perc_{tag}.csv"))
        emit_sweep(perc)
        paths["percolation"] = perc.out
        pd = ExperimentConfig(kind="phase-diagram", resolution=(20, 20),
                              out=str(tmp_path / f"pd_{tag}.csv"))
        emit_phase_diagram(pd)
        paths["phase-diagram"] = pd.out
        outputs.append({k: open(v, "rb").read() for k, v in paths.items()})
    same = {k: outputs[0][k] == outputs[1][k] for k in outputs[0]}
    threads = {w: started.count(w) for w in (1, 3)}
    chunks = min(count for (_, n, _), count in builds.items() if n == 512)
    ok = all(same.values()) and not started and chunks >= 2
    assert report("C13 reproducibility", ok,
                  f"byte-identical across 1 vs 3 usable CPUs: {same}; "
                  f"threads started {threads}; n = 512 trials in >= {chunks} chunks "
                  f"({time.time() - t0:.1f} s)")
