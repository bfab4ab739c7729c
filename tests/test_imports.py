"""What each entry point loads, checked in a fresh interpreter per case.

`import entrokit` loads no submodule, and each CLI verb loads only the
modules it runs, so start-up pays for nothing a command does not use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entrokit

SRC = Path(entrokit.__file__).resolve().parents[1]
SHELL = {"entrokit", "entrokit.cli", "entrokit.errors", "entrokit.measures"}
SUBMODULES = ("closed_form", "distributions", "errors", "gaussian", "limits", "oracle",
              "special")


def fresh(code: str):
    """Run `code` in a new interpreter; return the JSON its last stdout line holds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_loads(*argv):
    """Exit code and the numpy/entrokit modules loaded by one CLI run."""
    code, loaded = fresh(f"""
import contextlib, io, json, sys
from entrokit import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main({list(argv)!r})
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "numpy" or m.startswith("entrokit"))]))
""")
    return code, set(loaded)


@pytest.mark.parametrize("argv", [
    ("--help",), ("entropy", "--help"), ("gauss", "--help"),
    ("entropy", "--dist", "exp:lambda=1"),
    ("entropy", "--dist", "exp:lambda=1", "--measure", "bogus"),
    ("frobnicate",),
])
def test_help_and_usage_errors_load_no_numeric_module(argv):
    _, loaded = cli_loads(*argv)
    assert loaded <= SHELL


def test_gauss_loads_only_gaussian():
    code, loaded = cli_loads("gauss", "--n", "5", "--hurst-grid", "0:1:3")
    assert code == 0
    assert loaded == SHELL | {"entrokit.gaussian", "numpy"}


@pytest.mark.parametrize("argv", [
    ("entropy", "--dist", "gamma:lambda=1,mu=2", "--measure", "shannon"),
    ("kl", "--p", "exp:lambda=2", "--q", "exp:lambda=1"),
    ("modified", "--dist", "normal:mean=0,sigma2=1"),
    ("sweep", "--dist", "exp:lambda=1", "--measure", "shannon", "--grid", "1:2:3"),
])
def test_closed_forms_without_verify_load_no_oracle(argv):
    code, loaded = cli_loads(*argv)
    assert code == 0
    assert "entrokit.closed_form" in loaded
    assert not loaded & {f"entrokit.{m}" for m in ("oracle", "gaussian", "limits",
                                                      "verification")}


def test_verify_loads_the_oracle():
    code, loaded = cli_loads("entropy", "--dist", "exp:lambda=1", "--measure", "renyi",
                             "--alpha", "2", "--verify")
    assert code == 0
    assert "entrokit.oracle" in loaded
    assert not loaded & {"entrokit.gaussian", "entrokit.limits", "entrokit.verification"}


def test_converge_loads_no_closed_form():
    code, loaded = cli_loads("converge", "--lambda", "2", "--n", "10,100")
    assert code == 0
    assert "entrokit.limits" in loaded
    assert not loaded & {"entrokit.closed_form", "entrokit.gaussian",
                         "entrokit.verification"}


@pytest.mark.parametrize("argv", [
    ("entropy", "--dist", "exp:lambda=1", "--measure", "renyi", "--alpha", "2", "--verify"),
    ("converge", "--lambda", "2", "--n", "10,100,1000,10000"),
    ("kl", "--p", "laplace:mu=0,lambda=1", "--q", "laplace:mu=2,lambda=3", "--verify"),
], ids=["entropy-verify", "converge", "kl-verify-realline-breakpoint"])
def test_the_oracle_loads_no_numpy_ma(argv):
    """The oracle builds its meshes without np.unique and np.union1d, which import numpy.ma."""
    assert fresh(f"""
import contextlib, io, json, sys
from entrokit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({list(argv)!r})
print(json.dumps([code, "entrokit.oracle" in sys.modules, "numpy.ma" in sys.modules]))
""") == [0, True, False]


def test_bare_import_loads_nothing_yet_resolves_everything():
    loaded, missing, same = fresh(f"""
import importlib, json, sys
import entrokit
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("entrokit."))
missing = [n for n in entrokit.__all__ + {list(SUBMODULES)!r} if not hasattr(entrokit, n)]
same = all(getattr(entrokit, m) is importlib.import_module("entrokit." + m)
           for m in {list(SUBMODULES)!r})
print(json.dumps([loaded, missing, same]))
""")
    assert loaded == []
    assert missing == []
    assert same


def test_star_import_binds_the_public_names():
    unbound, same = fresh("""
import json
from entrokit import *
import entrokit
names = entrokit.__all__
unbound = [n for n in names if n not in globals()]
same = all(globals()[n] is getattr(entrokit, n) for n in names if n in globals())
print(json.dumps([unbound, same]))
""")
    assert unbound == []
    assert same


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        entrokit.frobnicate  # noqa: B018


def test_dir_lists_names_and_submodules():
    listed = set(dir(entrokit))
    assert set(entrokit.__all__) <= listed
    assert set(SUBMODULES) <= listed
