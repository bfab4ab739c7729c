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
    """The tool wraps the oracle's panel rule and estimate for its run and puts them back."""
    from entrokit import oracle

    before = oracle._gk_apply, oracle.entropy_estimate
    assert load_tool().main([]) == 0
    assert (oracle._gk_apply, oracle.entropy_estimate) == before
    header, *rows, total = capsys.readouterr().out.splitlines()
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
