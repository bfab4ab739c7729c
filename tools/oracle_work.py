"""Counted work of the oracle's two engines, per family: quadrature, then series.

Each continuous oracle value is one adaptive Gauss-Kronrod run, and each
pass of a run is one call of the oracle's panel rule on 15 nodes a panel.
The first table prints, per family, the number of oracle values, the mean
passes and the mean integrand points per value, and the share of values
done in one pass, over the draws selftest makes at seed 42 (60 per family
and measure).  The second table prints, per discrete family, the number
of Shannon sums (discrete_entropy_sum's p log p) on a seeded grid of 40
records over the benchmark's parameter ranges, and the mean log-pmf calls
and points (indices) per sum.  Counts, not times: they repeat exactly on
any machine.

    python tools/oracle_work.py               # the package under src/ of this checkout
    python tools/oracle_work.py DIR/src       # the package under another source tree

Another revision's tree comes from `git archive REV src | tar -x -C DIR`.
"""

import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED, DRAWS = 42, 60  # selftest's --seed 42 and its default --draws
SERIES_SEED, RECORDS = 7, 40  # the series grid: records per discrete family


def work() -> dict[str, list[tuple[int, int]]]:
    """Family -> (passes, points) of each oracle value on the selftest draws."""
    from entrokit import cli, oracle  # the selftest command reads alike in every tree

    gk_apply, estimate = oracle._gk_apply, oracle.entropy_estimate
    passes = points = 0
    values = defaultdict(list)

    def counted_gk_apply(f, ends):
        nonlocal passes, points
        passes, points = passes + 1, points + 15 * (ends.size // 2)
        return gk_apply(f, ends)

    def counted_estimate(d, *args):
        nonlocal passes, points
        passes = points = 0
        value = estimate(d, *args)
        values[d.spec_name].append((passes, points))
        return value

    oracle._gk_apply, oracle.entropy_estimate = counted_gk_apply, counted_estimate
    try:
        cli.main(["selftest", "--seed", str(SEED), "--draws", str(DRAWS), "--out", os.devnull])
    finally:
        oracle._gk_apply, oracle.entropy_estimate = gk_apply, estimate
    return dict(values)


def series_records():
    """RECORDS records per discrete family, log-uniform over the benchmark's series ranges."""
    import numpy as np
    from entrokit import Binomial, Logarithmic, NegBinomialConditional, Poisson

    rng = np.random.default_rng(SERIES_SEED)
    draws = [
        lambda: Poisson(10 ** rng.uniform(-1.0, 4.0)),
        lambda: Binomial(int(round(10 ** rng.uniform(1.0, 6.0))), rng.uniform(0.02, 0.98)),
        lambda: NegBinomialConditional(rng.uniform(0.05, 0.95), 10 ** rng.uniform(-6.0, -0.3)),
        lambda: Logarithmic(10 ** rng.uniform(-3.0, -0.05)),
    ]
    return [draw() for draw in draws for _ in range(RECORDS)]


def series_work() -> dict[str, list[tuple[int, int]]]:
    """Family -> (logpmf calls, points) of each Shannon sum on the series grid."""
    from entrokit import oracle

    logpmf = oracle.logpmf
    calls = points = 0
    values = defaultdict(list)

    def counted_logpmf(d, ks):
        nonlocal calls, points
        calls, points = calls + 1, points + len(ks)
        return logpmf(d, ks)

    oracle.logpmf = counted_logpmf
    try:
        for d in series_records():
            calls = points = 0
            oracle.discrete_entropy_sum(d, "p_log_p", 1.0)
            values[d.spec_name].append((calls, points))
    finally:
        oracle.logpmf = logpmf
    return dict(values)


def pooled(rows):
    """rows with an "all" row that pools every family's values."""
    return {**rows, "all": [v for values in rows.values() for v in values]}


def main(argv) -> int:
    sys.path.insert(0, argv[0] if argv else str(ROOT / "src"))
    print(f"{'family':<10} {'values':>6} {'passes':>7} {'points':>8} {'one_pass':>8}")
    for family, values in pooled(work()).items():
        n = len(values)
        print(f"{family:<10} {n:>6} {sum(p for p, _ in values) / n:>7.3f} "
              f"{sum(q for _, q in values) / n:>8.1f} {sum(p == 1 for p, _ in values) / n:>8.3f}")
    print()
    print(f"{'family':<12} {'values':>6} {'calls':>7} {'points':>9}")
    for family, values in pooled(series_work()).items():
        n = len(values)
        print(f"{family:<12} {n:>6} {sum(c for c, _ in values) / n:>7.3f} "
              f"{sum(q for _, q in values) / n:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
