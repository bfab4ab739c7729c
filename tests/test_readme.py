"""The README's examples run as written: each `entrokit` command and the library sketch."""

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


def test_readme_has_commands_and_a_sketch():
    assert len(COMMANDS) >= 9 and len(blocks("python")) >= 1


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0_with_empty_stderr(argv, capsys, tmp_path):
    """Digits are not pinned: their last places depend on numpy's SIMD kernels."""
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, err) == (0, "")


@pytest.mark.parametrize("source", blocks("python"))
def test_readme_library_sketch_runs(source):
    exec(compile(source, "README.md", "exec"), {})
