"""tools/oracle_work.py, the oracle's counted work on the selftest draws, loaded by its path."""

import importlib.util
from pathlib import Path

from entrokit.verification import ORACLE_FAMILIES, ORACLE_MEASURES

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("oracle_work", ROOT / "tools" / "oracle_work.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_row_per_family_and_the_all_row_pools_them(capsys):
    """The tool wraps the oracle's panel rule, estimate and log-pmf for its run and puts them back."""
    from entrokit import oracle

    before = oracle._gk_apply, oracle.entropy_estimate, oracle.logpmf
    assert load_tool().main([]) == 0
    assert (oracle._gk_apply, oracle.entropy_estimate, oracle.logpmf) == before
    quadrature, series = capsys.readouterr().out.split("\n\n")
    check_quadrature_table(quadrature)
    check_series_table(series)


def check_quadrature_table(text):
    header, *rows, total = text.splitlines()
    assert header.split() == ["family", "values", "passes", "points", "one_pass"]
    cells = {row.split()[0]: [float(v) for v in row.split()[1:]] for row in rows}
    assert tuple(cells) == ORACLE_FAMILIES
    per_family = 60 * len(ORACLE_MEASURES)  # selftest's draws per family at its default
    for values, passes, points, one_pass in cells.values():
        assert values == per_family
        assert passes >= 1.0 and points >= 15.0 and 0.0 <= one_pass <= 1.0
        assert (one_pass == 1.0) == (passes == 1.0)
    name, values, passes, points, one_pass = total.split()
    assert (name, int(values)) == ("all", per_family * len(ORACLE_FAMILIES))
    assert abs(float(passes) - sum(c[1] for c in cells.values()) / len(cells)) <= 1e-3
    assert abs(float(one_pass) - sum(c[3] for c in cells.values()) / len(cells)) <= 1e-3


def check_series_table(text):
    """Per discrete family: Shannon sums, mean log-pmf calls and points per sum."""
    header, *rows, total = text.splitlines()
    assert header.split() == ["family", "values", "calls", "points"]
    cells = {row.split()[0]: [float(v) for v in row.split()[1:]] for row in rows}
    assert tuple(cells) == ("poisson", "binomial", "nbcond", "logarithmic")
    for values, calls, points in cells.values():
        assert values == 40
        assert 1.0 <= calls <= points
    name, values, calls, points = total.split()
    assert (name, int(values)) == ("all", 40 * len(cells))
    assert abs(float(calls) - sum(c[1] for c in cells.values()) / len(cells)) <= 1e-3
    assert abs(float(points) - sum(c[2] for c in cells.values()) / len(cells)) <= 0.1


def test_series_counts_are_the_engines_calls(monkeypatch):
    """A sum's (calls, points) are its logpmf calls and their indices, seen at the engine."""
    from entrokit import oracle

    tool = load_tool()
    work = tool.series_work()
    assert [len(values) for values in work.values()] == [tool.RECORDS] * 4
    seen, logpmf = [], oracle.logpmf
    monkeypatch.setattr(oracle, "logpmf", lambda d, ks: seen.append(len(ks)) or logpmf(d, ks))
    first = tool.series_records()[0]
    oracle.discrete_entropy_sum(first, "p_log_p", 1.0)
    assert work[first.spec_name][0] == (len(seen), sum(seen))
