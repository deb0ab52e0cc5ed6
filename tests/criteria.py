"""The computations behind acceptance criteria C5-C8, each written once.

The gates in ``test_acceptance.py`` and the finite-size diagnostics in
``test_finite_size.py`` both call these.  A function returns one entry per
point of its n list, holding n and the point's per-instance values in
seed-path order; callers average them with ``math.fsum(values) / len(values)``.
"""

from netregime import (generate_network, hybrid_cell_size, mc_cutset_logdet,
                       multihop_throughput, partition_nodes, select_cut_width,
                       simulate_hybrid)
from netregime.harness import operating_point
from netregime.rng import derived_seed


def dense_cutset(ns, instances):
    """C5: (n, values), each value one instance's 20-trial Monte-Carlo cutset
    mean at alpha = 2, beta = 1, drawn on seed (500, i, j) with phases on
    (501, i, j) for the i-th n and j-th instance."""
    points = []
    for i, n in enumerate(ns):
        snr, area = operating_point(n, 2.0, 1.0)
        values = []
        for j in range(instances):
            inst = generate_network(n, area, derived_seed(500, i, j))
            part = partition_nodes(inst, select_cut_width(snr, n, 2.0))
            values.append(mc_cutset_logdet(inst, part, snr, 2.0, trials=20,
                                           phase_seed=derived_seed(501, i, j)).mean)
        points.append((n, values))
    return points


def multihop_table(beta, k):
    """C6: (n, closed-form multihop aggregate_T) at K2 = 1 over
    n = 2^(k-8) ... 2^k; C6a and C6b use k = 14."""
    return [(n, multihop_throughput(n, float(n) ** beta, K2=1.0).aggregate_T)
            for n in (2 ** i for i in range(k - 8, k + 1))]


def hybrid(criterion, ns, instances, read=lambda estimate, plan: estimate.aggregate_T):
    """C7 or C8: (n, M, values), each value ``read(estimate, plan)`` of one
    simulated hybrid instance at alpha = 4, epsilon = 0.05 (by default its
    aggregate_T).

    C7 runs beta = 0.5 with M = hybrid_cell_size on seed (700, i, t); C8
    runs beta = 0 (snr_s = 1) with M = 1 on seed (800, i, t), for the i-th
    n and t-th instance.  Seeds are keyed by the index in ``ns``, so a list
    that starts at the same n reuses the instances of its leading points: the
    C8 diagnostic's 2^9 ... 2^14 holds C8's own at n = 512 ... 4096.
    """
    seed, beta = {"C7": (700, 0.5), "C8": (800, 0.0)}[criterion]
    points = []
    for i, n in enumerate(ns):
        snr, area = operating_point(n, 4.0, beta)
        m = hybrid_cell_size(snr, 4.0, n) if criterion == "C7" else 1
        values = []
        for t in range(instances):
            inst = generate_network(n, area, derived_seed(seed, i, t))
            est, plan = simulate_hybrid(inst, snr, 4.0, M=m)
            values.append(read(est, plan))
        points.append((n, m, values))
    return points
