"""Counted work of the oracle's two engines, per family: quadrature, then series.

Each continuous oracle value is one adaptive Gauss-Kronrod run, and each
pass of a run is one call of the oracle's panel rule on 15 nodes a panel;
its points are counted where the rule hands them to the integrand, so the
tool reads any revision's panel rule alike.  Five tables follow, each
named by the first word of its header and ended by a blank line:

* continuous: per family, the number of oracle values, the mean passes
  and the mean integrand points per value, the share of values done in
  one pass and a digest of the values (float.hex), over the draws
  selftest makes at seed 42 (60 per family and measure);
* kl: the same for kl_integral on seeded same-family pairs (40 desk
  draws per family, and for laplace and normal 10 more pairs whose
  centres lie 1e3 to 1e5 of p's scale units apart), which take the real
  line's split-point pass that selftest never runs;
* discrete: per discrete family, the number of Shannon sums
  (discrete_entropy_sum's p log p) on a seeded grid of 40 records over
  the benchmark's parameter ranges, the mean log-pmf calls, points
  (indices evaluated) and terms (indices summed, from the series
  engine's count) per sum, and a digest of the sums' values and tail
  bounds (float.hex); then the same counts for the two Poisson series of
  limits, the discrete_expectation weights log k! (poisson_h:
  poisson_entropy) and log(k + 1) (poisson_dh: poisson_entropy_derivative),
  at 10 seeded rates, with a digest of the values they return;
* closed: per family, the number of closed-form values and their digest:
  every closed_form.evaluate result of the selftest run above, then
  kl_divergence on the KL pairs (an error, as for a normal pair, which
  has no closed form, counts by its class name);
* gaussian: per class of covariance, the number of matrices and a digest
  of det, the singular flag, the entropy (or its error's class name),
  hadamard_gap and cholesky_pivots (float.hex), at n = 64, 128, 256 and
  512 over Hurst indices 0, 1/2, 1 and seeded ones: toeplitz is
  fgn_covariance, general a rescaled, exactly symmetrized fGn matrix,
  then per size one more whose asymmetry lies inside the tolerance.

Counts, not times: they repeat exactly on any machine, and a digest
changes when any bit of a value (or of a sum or its bound) moves.

    python tools/oracle_work.py               # the package under src/ of this checkout
    python tools/oracle_work.py DIR/src       # the package under another source tree
    python tools/oracle_work.py --dump FILE   # also write each value to FILE
    python tools/oracle_work.py --compare OLD NEW   # two saved outputs, or two dumps

Another revision's tree comes from `git archive REV src | tar -x -C DIR`.
--compare prints two lines per table: whether its digests moved, and
whether its work did (passes or calls, and points per value); a table
without work columns (closed, gaussian) gets the first line only:

    discrete values identical
    discrete work moved: poisson calls 1.375 -> 1.000, points 452.5 -> 420.5

A dump holds one line per value, `table family field...`, the fields
its digest reads (float.hex, or an error's class name), after a header
line.  --compare on two dumps prints one line per table whose values
are identical, and otherwise one per moved family: how many of its
values moved and the largest |new - old| / (1 + |old|) over their
floats (inf where a field that is no float changed):

    closed values identical
    continuous exp: 176 of 360 values moved, largest 3.3e-15
"""

import contextlib
import hashlib
import math
import os
import sys
from collections import defaultdict
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED, DRAWS = 42, 60  # selftest's --seed 42 and its default --draws
SERIES_SEED, RECORDS = 7, 40  # the series grid: records per discrete family
POISSON_SEED, RATES = 13, 10  # the rates of the limits' Poisson series
KL_SEED, KL_PAIRS = 11, 40  # the KL pairs: desk draws per family
KL_FAMILIES = ("gamma", "exp", "chisq", "laplace", "lognormal", "normal")
FAR_UNITS = (1e3, 1e4, 1e5, 3e3, 3e4)  # of p's scale, between the centres of a far pair
GAUSS_SEED, GAUSS_HURST = 17, 5  # the Gaussian inputs: seeded Hurst indices per size
GAUSS_SIZES = (64, 128, 256, 512)


@contextlib.contextmanager
def counted_passes():
    """[passes, points] of the oracle's panel rule, counted while the block runs."""
    from entrokit import oracle

    gk_apply, count = oracle._gk_apply, [0, 0]

    def counted_gk_apply(f, *args):  # a pass, whatever else the panel rule takes
        count[0] += 1

        def counted(x):  # the integrand's points, read from its argument
            count[1] += x.size
            return f(x)

        return gk_apply(counted, *args)

    oracle._gk_apply = counted_gk_apply
    try:
        yield count
    finally:
        oracle._gk_apply = gk_apply


def work() -> tuple[dict[str, list[tuple[int, int, str]]], dict[str, list[tuple[str]]]]:
    """Family -> (passes, points, value in hex) of each oracle value on the selftest draws, and
    family -> (value in hex,) of each closed_form.evaluate result of the same run."""
    from entrokit import cli, closed_form, oracle  # the selftest command reads alike in every tree

    estimate, evaluate = oracle.entropy_estimate, closed_form.evaluate
    values, closed = defaultdict(list), defaultdict(list)
    with counted_passes() as count:
        def counted_estimate(d, *args):
            count[:] = 0, 0
            value = estimate(d, *args)
            values[d.spec_name].append((*count, float(value).hex()))
            return value

        def recorded_evaluate(spec, d):
            value = evaluate(spec, d)
            closed[d.spec_name].append((float(value).hex(),))
            return value

        oracle.entropy_estimate, closed_form.evaluate = counted_estimate, recorded_evaluate
        try:
            cli.main(["selftest", "--seed", str(SEED), "--draws", str(DRAWS), "--out", os.devnull])
        finally:
            oracle.entropy_estimate, closed_form.evaluate = estimate, evaluate
    return dict(values), dict(closed)


def kl_pairs():
    """(p, q) of each KL pair: KL_PAIRS seeded desk draws per family, then far laplace and
    normal pairs, q's centre FAR_UNITS of p's scale (1/lambda, the sd) above and below p's."""
    import numpy as np
    from entrokit import Laplace, Normal
    from entrokit.verification import random_distribution

    rng = np.random.default_rng(KL_SEED)
    pairs = [(random_distribution(family, rng), random_distribution(family, rng))
             for family in KL_FAMILIES for _ in range(KL_PAIRS)]
    for units in FAR_UNITS:
        for sign in (1.0, -1.0):
            centre, lam_p, lam_q = rng.uniform(-3.0, 3.0), *10 ** rng.uniform(-1.0, 1.0, 2)
            pairs.append((Laplace(centre, lam_p), Laplace(centre + sign * units / lam_p, lam_q)))
            centre, var_p, var_q = rng.uniform(-3.0, 3.0), *10 ** rng.uniform(-1.0, 1.0, 2)
            pairs.append((Normal(centre, var_p),
                          Normal(centre + sign * units * var_p**0.5, var_q)))
    return pairs


def kl_work() -> dict[str, list[tuple[int, int, str]]]:
    """Family -> (passes, points, value in hex) of kl_integral on each pair of kl_pairs()."""
    from entrokit import oracle

    values = defaultdict(list)
    with counted_passes() as count:
        for p, q in kl_pairs():
            count[:] = 0, 0
            value = oracle.kl_integral(p, q).value
            values[p.spec_name].append((*count, value.hex()))
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


@contextlib.contextmanager
def counted_series():
    """[logpmf calls, points, terms] of the series engine, counted while the block runs.

    terms adds the third value each direction's oracle._series returns:
    the terms it summed.
    """
    from entrokit import oracle

    logpmf, series, count = oracle.logpmf, oracle._series, [0, 0, 0]

    def counted_logpmf(d, ks):
        count[0] += 1
        count[1] += len(ks)
        return logpmf(d, ks)

    def counted_series(*args):
        out = series(*args)
        count[2] += out[2]
        return out

    oracle.logpmf, oracle._series = counted_logpmf, counted_series
    try:
        yield count
    finally:
        oracle.logpmf, oracle._series = logpmf, series


def series_work() -> dict[str, list[tuple[int, int, int, str]]]:
    """Family -> (logpmf calls, points, terms, value and bound in hex) of each Shannon sum."""
    from entrokit import oracle

    values = defaultdict(list)
    with counted_series() as count:
        for d in series_records():
            count[:] = 0, 0, 0
            res = oracle.discrete_entropy_sum(d, "p_log_p", 1.0)
            values[d.spec_name].append((*count, f"{res.value.hex()} {res.tail_bound.hex()}"))
    return dict(values)


def poisson_rates() -> list[float]:
    """RATES rates, log-uniform over the Poisson records' range."""
    import numpy as np

    rng = np.random.default_rng(POISSON_SEED)
    return [float(lam) for lam in 10 ** rng.uniform(-1.0, 4.0, RATES)]


def poisson_series_work() -> dict[str, list[tuple[int, int, int, str]]]:
    """poisson_h and poisson_dh -> (logpmf calls, points, terms, value in hex) of
    limits.poisson_entropy and poisson_entropy_derivative at each of poisson_rates()."""
    from entrokit import limits

    values = {}
    with counted_series() as count:
        for name, fn in (("poisson_h", limits.poisson_entropy),
                         ("poisson_dh", limits.poisson_entropy_derivative)):
            values[name] = []
            for lam in poisson_rates():
                count[:] = 0, 0, 0
                value = fn(lam)
                values[name].append((*count, value.hex()))
    return values


def closed_kl() -> dict[str, list[tuple[str]]]:
    """Family -> (kl_divergence in hex, or the class name of its error,) on each of kl_pairs()."""
    from entrokit import closed_form
    from entrokit.errors import EntrokitError

    values = defaultdict(list)
    for p, q in kl_pairs():
        try:
            value = closed_form.kl_divergence(p, q).hex()
        except EntrokitError as error:
            value = type(error).__name__
        values[p.spec_name].append((value,))
    return dict(values)


def gaussian_inputs():
    """(class, n, hurst, build) of each Gaussian input; build() makes its covariance, a
    partial of fgn_covariance (toeplitz) or of CovMatrix on the entries it is handed (general).

    Per size in GAUSS_SIZES and Hurst index (0, 1/2, 1, then GAUSS_HURST
    uniform draws): fgn_covariance (toeplitz), and D^1/2 R D^1/2 of its
    entries R with variances D log-uniform over [0.1, 10], symmetrized
    exactly (general).  Then per size one general input at a seeded Hurst
    index whose upper triangle is raised by up to 0.5e-14 max |a_ij|.
    """
    import numpy as np
    from entrokit import CovMatrix, fgn_covariance

    rng = np.random.default_rng(GAUSS_SEED)
    inputs = []
    for n in GAUSS_SIZES:
        for h in (0.0, 0.5, 1.0, *(float(h) for h in rng.uniform(0.0, 1.0, GAUSS_HURST))):
            sd = np.sqrt(10.0 ** rng.uniform(-1.0, 1.0, n))
            m = sd[:, None] * fgn_covariance(n, h).entries * sd[None, :]
            m = 0.5 * (m + m.T)
            inputs.append(("toeplitz", n, h, partial(fgn_covariance, n, h)))
            inputs.append(("general", n, h, partial(CovMatrix, m)))
        h, sd = float(rng.uniform(0.0, 1.0)), np.sqrt(10.0 ** rng.uniform(-1.0, 1.0, n))
        m = sd[:, None] * fgn_covariance(n, h).entries * sd[None, :]
        m = m + np.triu(rng.uniform(0.0, 0.5e-14 * float(np.abs(m).max()), (n, n)), 1)
        inputs.append(("general", n, h, partial(CovMatrix, m)))
    return inputs


def gaussian_values(build) -> str:
    """det, singular flag, entropy (or its error's class name), hadamard_gap and the pivots
    of build()'s covariance in float.hex, or the class name of the error building it raised."""
    from entrokit import cholesky_pivots, det_psd, gaussian_entropy, hadamard_gap
    from entrokit.errors import EntrokitError

    try:
        a = build()
    except EntrokitError as error:
        return type(error).__name__
    det = det_psd(a)
    try:
        entropy = gaussian_entropy(a).hex()
    except EntrokitError as error:
        entropy = type(error).__name__
    pivots = " ".join(p.hex() for p in cholesky_pivots(a).tolist())
    return f"{det.value.hex()} {det.singular} {entropy} {hadamard_gap(a).hex()} {pivots}"


def gaussian_work() -> dict[str, list[tuple[str]]]:
    """Class -> (gaussian_values,) of each of gaussian_inputs(), in order."""
    values = defaultdict(list)
    for kind, _, _, build in gaussian_inputs():
        values[kind].append((gaussian_values(build),))
    return dict(values)


def digest(values) -> str:
    """The first 12 hex digits of the SHA-256 of each row's last field, one line each.

    That field is an oracle value, a sum and its bound, or a Gaussian matrix's values, in
    float.hex.
    """
    return hashlib.sha256("".join(f"{v[-1]}\n" for v in values).encode()).hexdigest()[:12]


def pooled(rows):
    """rows with an "all" row that pools every family's values."""
    return {**rows, "all": [v for values in rows.values() for v in values]}


def print_quadrature(name, rows):
    """The quadrature table `name`: values, passes and points per value, one-pass share, digest."""
    print(f"{name:<10} {'values':>6} {'passes':>7} {'points':>8} {'one_pass':>8} {'digest':>12}")
    for family, values in pooled(rows).items():
        n = len(values)
        print(f"{family:<10} {n:>6} {sum(v[0] for v in values) / n:>7.3f} "
              f"{sum(v[1] for v in values) / n:>8.1f} {sum(v[0] == 1 for v in values) / n:>8.3f} "
              f"{digest(values):>12}")
    print()


def tables(text) -> list[tuple[str, list[str], dict[str, list[str]]]]:
    """(name, column names, family -> cells) of each table of a saved output, in order."""
    out = []
    for block in text.strip().split("\n\n"):
        (name, *columns), *rows = (line.split() for line in block.splitlines())
        out.append((name, columns, {family: cells for family, *cells in rows}))
    return out


def compare(old: str, new: str) -> list[str]:
    """Per table of two saved outputs: the families whose digest moved, then, for a table with
    work columns, those whose work (the two columns after values: passes or calls, then
    points) moved, old -> new."""
    lines = []
    for (name, columns, before), (_, _, after) in zip(tables(old), tables(new)):
        moved = [family for family, cells in after.items()
                 if cells[-1] != before.get(family, [None])[-1]]
        lines.append(f"{name} values " + ("moved: " + " ".join(moved) if moved else "identical"))
        if len(columns) == 2:  # values and digest only
            continue
        work = [f"{family} " + ", ".join(f"{column} {a} -> {b}" for column, a, b in
                                         zip(columns[1:3], before[family][1:3], cells[1:3]))
                for family, cells in after.items()
                if family in before and cells[1:3] != before[family][1:3]]
        lines.append(f"{name} work " + ("moved: " + "; ".join(work) if work else "identical"))
    return lines


DUMP_HEADER = "# oracle_work values: table family field..."


def dump_lines(all_tables) -> list[str]:
    """A dump of all_tables (table -> family -> rows): one line per value, its digest's field."""
    return [DUMP_HEADER] + [f"{table} {family} {row[-1]}" for table, rows in all_tables.items()
                            for family, values in rows.items() for row in values]


def moved_by(old: str, new: str) -> float:
    """The largest |new - old| / (1 + |old|) over the fields of a value; inf where a field that
    is no float changed, or the number of fields did."""
    before, after = old.split(), new.split()
    if len(before) != len(after):
        return math.inf
    worst = 0.0
    for a, b in zip(before, after):
        if a == b:
            continue
        try:
            x, y = float.fromhex(a), float.fromhex(b)
        except ValueError:
            return math.inf
        worst = max(worst, abs(y - x) / (1.0 + abs(x)) if math.isfinite(y - x) else math.inf)
    return worst


def compare_dumps(old: str, new: str) -> list[str]:
    """Per table of two dumps: `identical`, or per moved family its moved values and the
    largest move (moved_by)."""
    def values(text):
        rows = defaultdict(lambda: defaultdict(list))
        for line in text.splitlines()[1:]:
            table, family, fields = line.split(" ", 2)
            rows[table][family].append(fields)
        return rows

    before, after = values(old), values(new)
    lines = []
    for table, families in after.items():
        moved = []
        for family, rows in families.items():
            old_rows = before[table][family]
            if len(old_rows) != len(rows):
                moved.append(f"{table} {family}: {len(old_rows)} -> {len(rows)} values")
                continue
            moves = [moved_by(a, b) for a, b in zip(old_rows, rows) if a != b]
            if moves:
                moved.append(f"{table} {family}: {len(moves)} of {len(rows)} values moved, "
                             f"largest {max(moves):.2g}")
        lines += moved or [f"{table} values identical"]
    return lines


def main(argv) -> int:
    if argv[:1] == ["--compare"]:
        old, new = (Path(path).read_text() for path in argv[1:3])
        dumps = old.startswith(DUMP_HEADER) and new.startswith(DUMP_HEADER)
        print("\n".join((compare_dumps if dumps else compare)(old, new)))
        return 0
    dump = None
    if "--dump" in argv:
        i = argv.index("--dump")
        dump, argv = argv[i + 1], argv[:i] + argv[i + 2:]
    sys.path.insert(0, argv[0] if argv else str(ROOT / "src"))
    quadrature, closed = work()
    kl = kl_work()
    series = {**series_work(), **poisson_series_work()}
    for family, values in closed_kl().items():
        closed[family] = closed.get(family, []) + values
    gaussian = gaussian_work()
    print_quadrature("continuous", quadrature)
    print_quadrature("kl", kl)
    print(f"{'discrete':<12} {'values':>6} {'calls':>7} {'points':>9} {'terms':>9} {'digest':>12}")
    for family, values in pooled(series).items():
        n = len(values)
        print(f"{family:<12} {n:>6} {sum(v[0] for v in values) / n:>7.3f} "
              f"{sum(v[1] for v in values) / n:>9.1f} {sum(v[2] for v in values) / n:>9.1f} "
              f"{digest(values):>12}")
    print()
    print(f"{'closed':<12} {'values':>6} {'digest':>12}")
    for family, values in pooled(closed).items():
        print(f"{family:<12} {len(values):>6} {digest(values):>12}")
    print()
    print(f"{'gaussian':<12} {'values':>6} {'digest':>12}")
    for kind, values in pooled(gaussian).items():
        print(f"{kind:<12} {len(values):>6} {digest(values):>12}")
    if dump is not None:
        tables = {"continuous": quadrature, "kl": kl, "discrete": series, "closed": closed,
                  "gaussian": gaussian}
        Path(dump).write_text("\n".join(dump_lines(tables)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
