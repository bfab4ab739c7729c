"""The README's examples run as written: each `entrokit` command and the library sketch."""

import math
import re
import shlex
from pathlib import Path

import pytest

from entrokit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


COMMANDS = [shlex.split(line)[1:] for block in blocks("sh") for line in block.splitlines()
            if line.startswith("entrokit ")]

# the first line each README command prints (None: one bare value), and how README documents it
HEADERS = {
    "entropy": (None, "print one bare value"),
    "entropy --verify": ("closed_form,oracle,abs_error", "`closed_form,oracle,abs_error`"),
    "kl": (None, "print one bare value"),
    "modified": (None, "print one bare value"),
    "sweep": ("lambda,shannon", "`<param>,<measure>`"),
    "converge --n": ("n,approx,limit,abs_error", "`n,approx,limit,abs_error`"),
    "converge --r-grid": ("r,approx,limit,abs_error", "`r,approx,limit,abs_error`"),
    "gauss": ("hurst,det,entropy", "`hurst,det,entropy`"),
    "selftest": ("family,measure,draws,max_scaled_error,status",
                 "`family,measure,draws,max_scaled_error,status`"),
}


def header_key(argv) -> str:
    verb = argv[0]
    for flag in ("--verify", "--n", "--r-grid"):
        if f"{verb} {flag}" in HEADERS and flag in argv:
            return f"{verb} {flag}"
    return verb


def test_readme_has_commands_and_a_sketch():
    assert len(COMMANDS) >= 9 and len(blocks("python")) >= 1


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_runs_as_documented(argv, capsys, monkeypatch, tmp_path):
    """Exit 0, empty stderr and the documented first line; an --out file, empty stdout.

    Digits are not pinned: their last places depend on numpy's SIMD kernels.
    """
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if "--out" in argv:
        assert out == ""
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
    lines = out.splitlines()
    want, _ = HEADERS[header_key(argv)]
    if want is None:
        assert len(lines) == 1
        assert math.isfinite(float(lines[0]))
    else:
        assert lines[0] == want
        assert len(lines) >= 2


def test_readme_documents_each_header():
    readme = " ".join(README.split())
    assert {argv[0] for argv in COMMANDS} == {key.split()[0] for key in HEADERS}
    for key, (_, documented) in HEADERS.items():
        assert documented in readme, key


@pytest.mark.parametrize("source", blocks("python"))
def test_readme_library_sketch_runs(source):
    exec(compile(source, "README.md", "exec"), {})
