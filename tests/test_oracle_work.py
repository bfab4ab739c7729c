"""tools/oracle_work.py, the oracle's counted work on the selftest draws, loaded by its path."""

import importlib.util
import math
from pathlib import Path

from entrokit.verification import ORACLE_FAMILIES, ORACLE_MEASURES

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("oracle_work", ROOT / "tools" / "oracle_work.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_row_per_family_and_the_all_row_pools_them(capsys, tmp_path):
    """The tool wraps the oracle's panel rule, estimate, log-pmf and series, and the closed
    forms' evaluate, then puts them back; --dump writes one line per value of each table."""
    from entrokit import closed_form, oracle

    tool = load_tool()
    def wrapped():
        return (oracle._gk_apply, oracle.entropy_estimate, oracle.logpmf, oracle._series,
                closed_form.evaluate)

    before = wrapped()
    assert tool.main(["--dump", str(tmp_path / "values.txt")]) == 0
    assert wrapped() == before
    out = capsys.readouterr().out
    continuous, kl, series, closed, gauss = out.split("\n\n")
    header, *lines = (tmp_path / "values.txt").read_text().splitlines()
    assert header == tool.DUMP_HEADER
    counts = {}
    for line in lines:
        table, family, *fields = line.split(" ")
        counts[table, family] = counts.get((table, family), 0) + 1
        assert fields
    for name, _, rows in tool.tables(out):
        assert {family: int(cells[0]) for family, cells in rows.items() if family != "all"} == {
            family: n for (table, family), n in counts.items() if table == name}
    per_family = 60 * len(ORACLE_MEASURES)  # selftest's draws per family at its default
    check_quadrature_table(continuous, "continuous", {f: per_family for f in ORACLE_FAMILIES})
    far = 2 * len(tool.FAR_UNITS)
    kl_counts = {f: tool.KL_PAIRS + far * (f in ("laplace", "normal")) for f in tool.KL_FAMILIES}
    check_quadrature_table(kl, "kl", kl_counts)
    check_series_table(series, tool.RATES)
    check_closed_table(closed, {f: kl_counts.get(f, 0) for f in ORACLE_FAMILIES})
    check_gaussian_table(gauss, tool)


def check_quadrature_table(text, name, counts):
    """Per family: values, mean passes and points per value, one-pass share, digest.

    The header's first word names the table; counts maps each family, in
    order, to its number of values.
    """
    header, *rows, total = text.splitlines()
    assert header.split() == [name, "values", "passes", "points", "one_pass", "digest"]
    cells = {row.split()[0]: [float(v) for v in row.split()[1:-1]] for row in rows}
    assert tuple(cells) == tuple(counts)
    for family, (values, passes, points, one_pass) in cells.items():
        assert values == counts[family]
        assert passes >= 1.0 and points >= 15.0 and 0.0 <= one_pass <= 1.0
        assert (one_pass == 1.0) == (passes == 1.0)
    name, values, passes, points, one_pass, digest = total.split()
    assert (name, int(values)) == ("all", sum(counts.values()))
    assert abs(float(passes) - sum(c[1] * c[0] for c in cells.values()) / int(values)) <= 1e-3
    assert abs(float(one_pass) - sum(c[3] * c[0] for c in cells.values()) / int(values)) <= 1e-3
    digests = [row.split()[-1] for row in rows] + [digest]
    assert all(len(d) == 12 and int(d, 16) >= 0 for d in digests)
    assert len(set(digests)) == len(counts) + 1


def check_series_table(text, rates):
    """Per discrete family, then per Poisson series of limits: values, mean log-pmf calls,
    points and terms per value, digest."""
    header, *rows, total = text.splitlines()
    assert header.split() == ["discrete", "values", "calls", "points", "terms", "digest"]
    cells = {row.split()[0]: [float(v) for v in row.split()[1:-1]] for row in rows}
    assert tuple(cells) == ("poisson", "binomial", "nbcond", "logarithmic",
                            "poisson_h", "poisson_dh")
    for family, (values, calls, points, terms) in cells.items():
        assert values == (rates if family.startswith("poisson_") else 40)
        assert 1.0 <= calls <= terms <= points
    name, values, calls, points, terms, digest = total.split()
    assert (name, int(values)) == ("all", sum(c[0] for c in cells.values()))
    for column, mean, tol in ((1, calls, 1e-3), (2, points, 0.1), (3, terms, 0.1)):
        pooled = sum(c[0] * c[column] for c in cells.values()) / int(values)
        assert abs(float(mean) - pooled) <= tol
    digests = [row.split()[-1] for row in rows] + [digest]
    assert all(len(d) == 12 and int(d, 16) >= 0 for d in digests) and len(set(digests)) == 7


def check_closed_table(text, kl_counts):
    """Per family: closed-form values (selftest's evaluate results, then KL pairs), digest."""
    header, *rows, total = text.splitlines()
    assert header.split() == ["closed", "values", "digest"]
    cells = {row.split()[0]: row.split()[1:] for row in rows}
    assert tuple(cells) == tuple(kl_counts)
    for family, (values, _) in cells.items():
        assert int(values) >= 60 * len(ORACLE_MEASURES) + kl_counts[family]
    name, values, digest = total.split()
    assert (name, int(values)) == ("all", sum(int(c[0]) for c in cells.values()))
    assert len({c[1] for c in cells.values()} | {digest}) == len(cells) + 1


def check_gaussian_table(text, tool):
    """Per class of covariance: matrices, digest; one row per size and Hurst index, and one more
    per size for general."""
    header, *rows, total = text.splitlines()
    assert header.split() == ["gaussian", "values", "digest"]
    per_size = 3 + tool.GAUSS_HURST
    sizes = len(tool.GAUSS_SIZES)
    counts = {"toeplitz": per_size * sizes, "general": (per_size + 1) * sizes}
    cells = {row.split()[0]: row.split()[1:] for row in rows}
    assert {kind: int(c[0]) for kind, c in cells.items()} == counts
    name, values, digest = total.split()
    assert (name, int(values)) == ("all", sum(counts.values()))
    assert len({c[1] for c in cells.values()} | {digest}) == 3


def test_gaussian_values_are_the_packages_and_one_ulp_moves_their_digest():
    """Each gaussian row holds det, the singular flag, the entropy or its error's class,
    hadamard_gap and the pivots in float.hex, for fGn matrices, rescaled ones and rescaled ones
    inside the symmetry tolerance, at every size over H = 0, 1/2, 1 and seeded indices."""
    import numpy as np
    from entrokit import CovMatrix, cholesky_pivots, fgn_covariance, gaussian_entropy, hadamard_gap

    tool = load_tool()
    inputs = tool.gaussian_inputs()
    work = tool.gaussian_work()
    assert tuple(work) == ("toeplitz", "general")
    for kind in work:
        assert work[kind] == [(tool.gaussian_values(build),)
                              for k, _, _, build in inputs if k == kind]
    for kind in work:
        for n in tool.GAUSS_SIZES:
            hursts = [h for k, size, h, _ in inputs if (k, size) == (kind, n)]
            assert hursts[:3] == [0.0, 0.5, 1.0] and all(0.0 <= h <= 1.0 for h in hursts)
    inside = 0
    for kind, n, h, build in inputs:
        a = build()
        toeplitz = np.array_equal(a.entries[1:, 1:], a.entries[:-1, :-1])
        assert a.n == n and toeplitz == (kind == "toeplitz")
        if kind == "general":  # the entries handed to CovMatrix
            m = build.args[0]
            inside += not np.array_equal(m, m.T)
            assert np.abs(m - m.T).max() <= 1e-14 * np.abs(m).max()
    assert inside == len(tool.GAUSS_SIZES)
    a = fgn_covariance(64, 1.0)
    assert tool.gaussian_values(lambda: a) == (
        f"0x0.0p+0 True SingularCovarianceError {hadamard_gap(a).hex()} "
        + " ".join(p.hex() for p in cholesky_pivots(a).tolist()))
    a = CovMatrix(np.diag([2.0, 3.0]))
    assert tool.gaussian_values(lambda: a) == (
        f"{(6.0).hex()} False {gaussian_entropy(a).hex()} {(0.0).hex()} "
        f"{(3.0).hex()} {(2.0).hex()}")
    assert tool.gaussian_values(lambda: CovMatrix([[1.0, 0.5], [0.0, 1.0]])) == "ParameterError"
    values = work["general"]
    det, *rest = values[-1][0].split(" ")
    moved = [*values[:-1], (" ".join([math.nextafter(float.fromhex(det), 0.0).hex(), *rest]),)]
    assert tool.digest(values) == tool.digest(list(values)) != tool.digest(moved)


def test_series_counts_are_the_engines_calls(monkeypatch):
    """A sum's (calls, points, terms, value) are its logpmf calls and indices, the terms its
    series directions summed, and its value and bound in hex, seen at the engine."""
    from entrokit import oracle

    tool = load_tool()
    work = tool.series_work()
    assert [len(values) for values in work.values()] == [tool.RECORDS] * 4
    seen, summed, logpmf, series = [], [], oracle.logpmf, oracle._series

    def counted_series(*args):
        out = series(*args)
        summed.append(out[2])
        return out

    monkeypatch.setattr(oracle, "logpmf", lambda d, ks: seen.append(len(ks)) or logpmf(d, ks))
    monkeypatch.setattr(oracle, "_series", counted_series)
    for d, got in zip(tool.series_records()[::tool.RECORDS],
                      [values[0] for values in work.values()]):
        seen.clear()
        summed.clear()
        res = oracle.discrete_entropy_sum(d, "p_log_p", 1.0)
        assert got == (len(seen), sum(seen), sum(summed),
                       f"{res.value.hex()} {res.tail_bound.hex()}")


def test_poisson_series_counts_are_the_engines_calls(monkeypatch):
    """Each poisson_h and poisson_dh row holds the log-pmf calls and indices and the summed terms
    of limits.poisson_entropy and poisson_entropy_derivative at a seeded rate, and its value."""
    from entrokit import limits, oracle

    tool = load_tool()
    work = tool.poisson_series_work()
    rates = tool.poisson_rates()
    assert len(rates) == tool.RATES and all(0.1 <= lam <= 1e4 for lam in rates)
    seen, summed, logpmf, series = [], [], oracle.logpmf, oracle._series

    def counted_series(*args):
        out = series(*args)
        summed.append(out[2])
        return out

    monkeypatch.setattr(oracle, "logpmf", lambda d, ks: seen.append(len(ks)) or logpmf(d, ks))
    monkeypatch.setattr(oracle, "_series", counted_series)
    for name, fn in (("poisson_h", limits.poisson_entropy),
                     ("poisson_dh", limits.poisson_entropy_derivative)):
        assert len(work[name]) == tool.RATES
        for lam, got in zip(rates, work[name]):
            seen.clear()
            summed.clear()
            value = fn(lam)
            assert got == (len(seen), sum(seen), sum(summed), value.hex())


def test_closed_values_are_evaluate_then_kl_divergence(monkeypatch):
    """Each closed row holds, per family, the evaluate results of the selftest run in order,
    then kl_divergence on the KL pairs, a normal pair's by its error's class name."""
    from entrokit import closed_form

    seen, evaluate = {}, closed_form.evaluate

    def recorded(spec, d):
        value = evaluate(spec, d)
        seen.setdefault(d.spec_name, []).append((value.hex(),))
        return value

    tool = load_tool()
    monkeypatch.setattr(closed_form, "evaluate", recorded)
    _, closed = tool.work()
    assert closed == seen and tuple(closed) == ORACLE_FAMILIES
    want = {}
    for p, q in tool.kl_pairs():  # normal has no closed-form KL
        want.setdefault(p.spec_name, []).append(
            ("UnsupportedFamilyError",) if p.spec_name == "normal"
            else (closed_form.kl_divergence(p, q).hex(),))
    kl = tool.closed_kl()
    assert kl == want and tuple(kl) == tool.KL_FAMILIES
    values = kl["laplace"]
    moved = [*values[:-1], (math.nextafter(float.fromhex(values[-1][0]), 0.0).hex(),)]
    assert tool.digest(values) != tool.digest(moved)


def test_quadrature_values_are_the_oracles_and_one_ulp_moves_their_digest(monkeypatch):
    """Each quadrature row holds the value entropy_estimate returned, in float.hex, in order."""
    from entrokit import oracle

    seen, estimate = {}, oracle.entropy_estimate

    def recorded(d, *args):
        value = estimate(d, *args)
        seen.setdefault(d.spec_name, []).append(float(value).hex())
        return value

    monkeypatch.setattr(oracle, "entropy_estimate", recorded)
    tool = load_tool()
    work, _ = tool.work()
    assert {family: [v[2] for v in values] for family, values in work.items()} == seen
    assert tuple(seen) == ORACLE_FAMILIES
    values = work["lognormal"]
    passes, points, text = values[-1]
    moved = [*values[:-1], (passes, points, math.nextafter(float.fromhex(text), math.inf).hex())]
    assert tool.digest(values) == tool.digest(list(values)) != tool.digest(moved)


def test_digest_moves_with_one_bit():
    tool = load_tool()
    values = tool.series_work()["poisson"]
    calls, points, terms, text = values[0]
    value, bound = (float.fromhex(v) for v in text.split())
    moved = [(calls, points, terms, f"{math.nextafter(value, 0.0).hex()} {bound.hex()}"),
             *values[1:]]
    assert tool.digest(values) == tool.digest(list(values)) != tool.digest(moved)


def test_kl_values_are_the_oracles_on_same_family_pairs(monkeypatch):
    """Each KL row holds kl_integral's values on the seeded pairs, in order, with the far
    laplace and normal pairs 1e3 to 1e5 of p's scale units apart; one ulp moves a digest."""
    from entrokit import oracle

    tool = load_tool()
    pairs = tool.kl_pairs()
    assert all(p.spec_name == q.spec_name and p.support == q.support for p, q in pairs)
    far = pairs[len(tool.KL_FAMILIES) * tool.KL_PAIRS:]
    units = sorted(abs(q.mu - p.mu) * p.lam if p.spec_name == "laplace"
                   else abs(q.mean - p.mean) / math.sqrt(p.sigma2) for p, q in far)
    assert len(far) == 4 * len(tool.FAR_UNITS) and 0.999e3 <= units[0] <= units[-1] <= 1.001e5
    seen, kl_integral = {}, oracle.kl_integral

    def recorded(p, q, *args):
        res = kl_integral(p, q, *args)
        seen.setdefault(p.spec_name, []).append(res.value.hex())
        return res

    monkeypatch.setattr(oracle, "kl_integral", recorded)
    work = tool.kl_work()
    assert {family: [v[2] for v in values] for family, values in work.items()} == seen
    assert tuple(seen) == tool.KL_FAMILIES
    values = work["normal"]
    passes, points, text = values[-1]
    moved = [*values[:-1], (passes, points, math.nextafter(float.fromhex(text), 0.0).hex())]
    assert tool.digest(values) != tool.digest(moved)


def test_compare_names_the_families_whose_digest_or_work_moved(tmp_path, capsys):
    """--compare reads two saved outputs table by table: digests, then passes or calls and points
    for a table that has work columns."""
    tool = load_tool()
    old = ("discrete values calls points terms digest\n"
           "poisson 40 1.375 452.5 394.9 1e00d1d5e62b\n"
           "binomial 40 1.800 1980.2 1638.0 06d8c4b2cec4\n\n"
           "kl values passes points one_pass digest\n"
           "gamma 40 1.025 513.0 0.975 1a1831ae43aa\n\n"
           "closed values digest\n"
           "gamma 650 4a5e12961851\n"
           "normal 410 77c21ce03beb\n")
    new = (old.replace("1.375 452.5", "1.000 420.5")
           .replace("06d8c4b2cec4", "0123456789ab").replace("77c21ce03beb", "0123456789ab"))
    want = ["discrete values moved: binomial",
            "discrete work moved: poisson calls 1.375 -> 1.000, points 452.5 -> 420.5",
            "kl values identical", "kl work identical", "closed values moved: normal"]
    assert tool.compare(old, new) == want
    assert tool.compare(old, old) == [f"{table} {what} identical" for table in ("discrete", "kl")
                                      for what in ("values", "work")] + ["closed values identical"]
    (tmp_path / "old.txt").write_text(old)
    (tmp_path / "new.txt").write_text(new)
    assert tool.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")]) == 0
    assert capsys.readouterr().out.splitlines() == want


def test_compare_on_dumps_counts_each_familys_moved_values_and_its_largest_move(tmp_path, capsys):
    """A one-ulp move is one moved value, its size 2**-52 (1 + 1) / (1 + 1) relative to 1 + |old|;
    a field that is no float moves by inf; a table with no move reads identical."""
    tool = load_tool()
    tables = {"continuous": {"exp": [(1, 510, (1.0).hex()), (1, 510, (2.5).hex())],
                             "gamma": [(1, 510, (-3.0).hex())]},
              "kl": {"normal": [(2, 1035, (0.125).hex())]},
              "closed": {"normal": [("UnsupportedFamilyError",)]}}
    old = "\n".join(tool.dump_lines(tables)) + "\n"
    tables["continuous"]["exp"][1] = (1, 510, math.nextafter(2.5, 3.0).hex())
    tables["closed"]["normal"] = [((0.5).hex(),)]
    new = "\n".join(tool.dump_lines(tables)) + "\n"
    ulp = math.ulp(2.5) / 3.5
    want = [f"continuous exp: 1 of 2 values moved, largest {ulp:.2g}", "kl values identical",
            "closed normal: 1 of 1 values moved, largest inf"]
    assert tool.compare_dumps(old, new) == want
    assert tool.moved_by("0x1.0p+0 0x1.0p+1", "0x1.0p+0 0x1.8p+1") == 1.0 / 3.0
    (tmp_path / "old.txt").write_text(old)
    (tmp_path / "new.txt").write_text(new)
    assert tool.main(["--compare", str(tmp_path / "old.txt"), str(tmp_path / "new.txt")]) == 0
    assert capsys.readouterr().out.splitlines() == want
