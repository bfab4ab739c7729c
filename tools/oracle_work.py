"""Counted quadrature work of the oracle on the `selftest --seed 42` draws, per family.

Each continuous oracle value is one adaptive Gauss-Kronrod run, and each
pass of a run is one call of the oracle's panel rule on 15 nodes a panel.
Per family this prints the number of oracle values, the mean passes and
the mean integrand points per value, and the share of values done in one
pass, over the draws selftest makes at seed 42 (60 per family and measure).
Counts, not times: they repeat exactly on any machine.

    python tools/oracle_work.py               # the package under src/ of this checkout
    python tools/oracle_work.py DIR/src       # the package under another source tree

Another revision's tree comes from `git archive REV src | tar -x -C DIR`.
"""

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED, DRAWS = 42, 60  # selftest's --seed 42 and its default --draws


def work() -> dict[str, list[tuple[int, int]]]:
    """Family -> (passes, points) of each oracle value on the selftest draws."""
    from entrokit import oracle, verification

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
        verification.oracle_equivalence(verification.ORACLE_FAMILIES,
                                        verification.ORACLE_MEASURES, DRAWS, SEED)
    finally:
        oracle._gk_apply, oracle.entropy_estimate = gk_apply, estimate
    return dict(values)


def main(argv) -> int:
    sys.path.insert(0, argv[0] if argv else str(ROOT / "src"))
    rows = work()
    rows["all"] = [v for values in rows.values() for v in values]
    print(f"{'family':<10} {'values':>6} {'passes':>7} {'points':>8} {'one_pass':>8}")
    for family, values in rows.items():
        n = len(values)
        print(f"{family:<10} {n:>6} {sum(p for p, _ in values) / n:>7.3f} "
              f"{sum(q for _, q in values) / n:>8.1f} {sum(p == 1 for p, _ in values) / n:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
