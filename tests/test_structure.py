"""Package structure: the closed-form/oracle wall and the public name list."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import entrokit

SRC = Path(entrokit.__file__).parent


def sibling_imports(module: str) -> set[str]:
    """Names of the entrokit modules that `module` imports, read from its source."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("entrokit"):
            parts = node.module.split(".")
            found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("entrokit."))
    return found


def test_oracle_imports_nothing_from_closed_form():
    seen, todo = set(), ["oracle"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(sibling_imports(module))
    assert {"oracle", "distributions", "special", "errors"} <= seen
    assert "closed_form" not in seen


def private_reaches(path: Path) -> list[str]:
    """`<sibling module>._name` attributes and `from .module import _name` imports in a file."""
    siblings = {p.stem for p in SRC.glob("*.py")}
    tree = ast.parse(path.read_text())
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("entrokit"):
                continue
            inside = module.split(".")[node.level == 0:] if module else []
            for alias in node.names:
                if not inside and alias.name in siblings:
                    aliases.add(alias.asname or alias.name)
                elif inside and alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} from {module} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "entrokit" and len(parts) > 1 and parts[1] in siblings:
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__") and ast.unparse(node.value) in aliases):
            found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_module_uses_another_modules_private_names():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in private_reaches(path)]
    assert found == []


def test_every_public_import_is_exported():
    """Each name of the package's export table is in __all__ and is its home's object."""
    table = {name: module for module, names in entrokit._EXPORTS.items() for name in names}
    assert sum(map(len, entrokit._EXPORTS.values())) == len(table)  # one home per name
    assert set(table) <= set(entrokit.__all__)
    assert all(hasattr(entrokit, name) for name in entrokit.__all__)
    for name, module in table.items():
        home = importlib.import_module(f"entrokit.{module}")
        assert getattr(entrokit, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name
    assert "tsallis" in entrokit.__all__


def bench_trace_targets() -> list[tuple[str, str]]:
    """(module, attribute) of each entrokit attribute in `bench/spans.py`'s TARGETS."""
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans.read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return [(entry.elts[0].attr, entry.elts[1].value) for entry in targets.elts
            if isinstance(entry.elts[0], ast.Attribute)
            and getattr(entry.elts[0].value, "id", None) == "entrokit"]


def test_bench_trace_targets_exist():
    """Every entrokit attribute the benchmark's tracer wraps still exists."""
    named = bench_trace_targets()
    assert len(named) >= 20
    missing = [f"{module}.{attr}" for module, attr in named
               if not hasattr(importlib.import_module(f"entrokit.{module}"), attr)]
    assert missing == []


INTEGRATORS = ("integrate_interval", "integrate_halfline", "integrate_realline")


def names_in(source: str) -> set[str]:
    """Every identifier, attribute and imported name a module's source uses."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add((node.asname or node.name).split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_the_integrators_are_the_oracles_own():
    """The three integrators are the oracle's internal path: no other module names them,
    and the package does not export them; the bench tracer still finds them in the oracle."""
    from entrokit import oracle

    found = [f"{path.name} {name}" for path in sorted(SRC.glob("*.py")) if path.name != "oracle.py"
             for name in sorted(names_in(path.read_text()) & set(INTEGRATORS))]
    assert found == []
    assert set(INTEGRATORS).isdisjoint(entrokit.__all__)
    assert all(callable(getattr(oracle, name)) for name in INTEGRATORS)
    # the scan sees a call, an attribute, an import and a name in an export table
    for source in ("integrate_interval(f, first)\n", "oracle.integrate_halfline\n",
                   "from .oracle import integrate_realline\n", "names = ('integrate_interval',)\n"):
        assert names_in(source) & set(INTEGRATORS), source


def test_bench_traced_special_functions_are_specials_own():
    """Each traced log_gamma or digamma is entrokit.special's function, no wrapper or copy.

    Otherwise the tracer would book special's time to the importing
    module's layer.
    """
    from entrokit import special

    named = [(module, attr) for module, attr in bench_trace_targets()
             if attr in ("log_gamma", "digamma")]
    assert {module for module, _ in named} == {"closed_form", "distributions", "limits"}
    for module, attr in named:
        assert getattr(importlib.import_module(f"entrokit.{module}"), attr) is getattr(
            special, attr), f"{module}.{attr}"


def test_public_paths_unchanged_under_the_bench_tracer(monkeypatch):
    """The tracer rebinds every target, classes included, to a plain function.

    Code that reaches a target through its module's namespace (say
    `CovMatrix._toeplitz`) then meets the function, so each module's
    public paths must give the same results with every target wrapped.
    """
    from entrokit import (EntropySpec, Exponential, Normal, Poisson, closed_form, gaussian,
                          limits, oracle)

    cfg = oracle.OracleConfig()  # the benchmark's trailing argument

    def run():
        toeplitz = gaussian.fgn_covariance(8, 0.7)
        general = gaussian.CovMatrix(np.diag([1.0, 2.0, 3.0]) + 0.1)
        return [
            [(a.entries.tolist(), gaussian.cholesky_pivots(a).tolist()) for a in (toeplitz, general)],
            gaussian.det_psd(toeplitz), gaussian.gaussian_entropy(general),
            gaussian.fgn_det_sweep(8, [0.3, 1.0]),
            closed_form.shannon(Normal(0.0, 2.0)),
            closed_form.evaluate(EntropySpec("renyi", 2.0), Exponential(1.5)),
            oracle.entropy_estimate(Exponential(1.5), "shannon", None, None, cfg),
            oracle.kl_integral(Normal(0.0, 1.0), Normal(1.0, 2.0), cfg),
            oracle.discrete_entropy_sum(Poisson(3.0), "p_log_p", 1.0),
            limits.poisson_entropy(3.0),
            limits.binomial_to_poisson(2.0, [10, 100]),
        ]

    want = run()
    for module, attr in bench_trace_targets():
        namespace = importlib.import_module(f"entrokit.{module}")
        target = getattr(namespace, attr)
        monkeypatch.setattr(namespace, attr,
                            lambda *args, _target=target, **kwargs: _target(*args, **kwargs))
    assert run() == want


def test_chi_squared_is_converted_only_by_its_record():
    """Chi-squared reads as Gamma(1/2, nu/2) in place.

    Only distributions calls as_gamma, and closed_form tests no record
    against a family class.
    """
    from entrokit.distributions import Distribution

    families = {cls.__name__ for cls in Distribution.__subclasses__()}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "as_gamma"
                    and path.name != "distributions.py"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                  and path.name == "closed_form.py"
                  and families & {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def config_names(name: str, source: str) -> list[str]:
    """Each place the code of a module names OracleConfig: a name, an attribute or an import.

    Strings do not count, so the package's export table may list it.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Name) and node.id == "OracleConfig")
                or (isinstance(node, ast.Attribute) and node.attr == "OracleConfig")
                or (isinstance(node, ast.alias) and node.name == "OracleConfig")):
            found.append(f"{name}:{node.lineno}")
    return found


def test_only_the_oracle_builds_an_oracle_config():
    """The oracle owns its one production configuration.

    No other module builds, takes or forwards one, so every value outside
    the oracle runs at OracleConfig()'s defaults.
    """
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "oracle.py"
             for hit in config_names(path.name, path.read_text())]
    assert found == []
    # a cfg parameter typed with the config, an import and a call are found; a string is not
    source = ("from .oracle import OracleConfig\n"
              "def f(lam, cfg: oracle.OracleConfig | None = None):\n"
              "    return OracleConfig(max_terms=20), 'OracleConfig'\n")
    assert config_names("m.py", source) == ["m.py:1", "m.py:2", "m.py:3"]


def test_only_two_oracle_functions_take_a_cfg():
    """The engines read the oracle's module constants; entropy_estimate and kl_integral keep a
    trailing cfg that accepts only None or OracleConfig(), for callers that pass it positionally."""
    from entrokit import oracle

    taking = sorted(name for name, fn in oracle_functions().items()
                    if "cfg" in [arg.arg for arg in fn.args.args + fn.args.kwonlyargs])
    assert taking == ["entropy_estimate", "kl_integral"]
    for name in taking:
        assert list(inspect.signature(getattr(oracle, name)).parameters)[-1] == "cfg"


def test_the_oracle_config_is_not_exported():
    from entrokit import oracle

    assert "OracleConfig" not in entrokit.__all__
    with pytest.raises(AttributeError, match="no attribute 'OracleConfig'"):
        entrokit.OracleConfig  # noqa: B018
    assert not dataclasses.fields(oracle.OracleConfig)  # the settings are module constants
    assert (oracle._ABS_TOL, oracle._REL_TOL, oracle._MAX_SUBDIVISIONS, oracle._SERIES_TAIL_TOL,
            oracle._MAX_TERMS) == (1e-10, 1e-10, 2000, 1e-14, 10**7)


NUMERIC_TYPES = {"int", "float", "bool", "complex", "Real", "Integral", "Number", "Rational"}


def numeric_type_tests(path: Path) -> list[str]:
    """`numbers.Real`/`numbers.Integral` references and isinstance tests against numeric types."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in NUMERIC_TYPES
                and ast.unparse(node.value) == "numbers"):
            found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
              and len(node.args) == 2):
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(ast.unparse(c).split(".")[-1] in NUMERIC_TYPES for c in classes):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return found


def test_numeric_parameters_have_one_check():
    """Only errors.as_real and errors.as_integer decide what counts as a number."""
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             for hit in numeric_type_tests(path)]
    assert found == []
    assert numeric_type_tests(SRC / "errors.py")  # the check sees the shared checks' own tests


def test_each_oracle_value_is_one_traced_run(monkeypatch):
    """Counters at `oracle.integrate_interval` and `oracle.logpdf`, as the bench tracer sets them.

    The tracer counts a quadrature run where `integrate_interval` is
    entered and integrand points where the integrand it was handed is
    called; a run made any other way would read as 0 runs and 0 points.
    Each entropy value evaluates the density once per batch of nodes, but
    for a standard record's first pass on its map's shared nodes, whose
    log-density is a constant.
    """
    from entrokit import oracle
    from entrokit.verification import (ORACLE_FAMILIES, ORACLE_MEASURES, random_distribution,
                                       random_spec)

    counts = {}
    integrate, logpdf = oracle.integrate_interval, oracle.logpdf

    def traced_integrate(f, *args, **kwargs):
        counts["runs"] += 1

        def counted(x):
            counts["batches"] += 1
            counts["points"] += int(np.size(x))
            return f(x)

        return integrate(counted, *args, **kwargs)

    def traced_logpdf(d, x):
        counts["logpdf"] += 1
        return logpdf(d, x)

    monkeypatch.setattr(oracle, "integrate_interval", traced_integrate)
    monkeypatch.setattr(oracle, "logpdf", traced_logpdf)

    def one_run(value, densities):
        counts.update(runs=0, batches=0, points=0, logpdf=0)
        value()
        assert counts["runs"] == 1 and counts["points"] > 0
        assert 0 <= densities * counts["batches"] - counts["logpdf"] <= 1

    cfg = oracle.OracleConfig()  # the benchmark's trailing argument
    rng = np.random.default_rng(12)
    for family in ORACLE_FAMILIES:
        for measure in ORACLE_MEASURES:
            d = random_distribution(family, rng)
            spec = random_spec(measure, d, rng)
            one_run(lambda: oracle.entropy_estimate(d, measure, spec.alpha, spec.beta, cfg), 1)
        p = random_distribution(family, rng)
        q = p if family == "uniform" else random_distribution(family, rng)
        one_run(lambda: oracle.kl_integral(p, q, cfg), 2)


PER_PASS_BANNED = {"np.stack", "np.isneginf", "np.unique", "np.linspace"}


def oracle_functions(source: str | None = None) -> dict[str, ast.FunctionDef]:
    """The top-level functions of oracle.py (or of source), by name."""
    tree = ast.parse(source if source is not None else (SRC / "oracle.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def oracle_per_pass_functions() -> dict[str, ast.FunctionDef]:
    """The oracle code that runs on every quadrature pass, by name.

    That is _gk_apply, _nodes, integrate_interval, _some_mass and the
    integrand closures nested in integrate_halfline, integrate_realline
    and _power_integrals (which also builds kl_integral's integrand).
    """
    top = oracle_functions()
    found = {name: top[name]
             for name in ("_gk_apply", "_nodes", "integrate_interval", "_some_mass")}
    for outer in ("integrate_halfline", "integrate_realline", "_power_integrals"):
        nested = [node for node in ast.walk(top[outer])
                  if isinstance(node, ast.FunctionDef) and node is not top[outer]]
        assert nested, f"{outer} has no integrand closure"
        found.update({f"{outer}.{node.name}": node for node in nested})
    return found


def banned_calls(functions: dict[str, ast.FunctionDef]) -> list[str]:
    return [f"{name}:{node.lineno} {ast.unparse(node.func)}"
            for name, function in functions.items() for node in ast.walk(function)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in PER_PASS_BANNED]


def test_quadrature_passes_make_no_slow_numpy_calls():
    """np.stack, np.isneginf (Python wrappers) and the mesh builders stay out of each pass."""
    functions = oracle_per_pass_functions()
    assert len(functions) >= 6
    assert banned_calls(functions) == []
    # the walk reaches into a function's body: an integrand that stacks its rows is found
    stacked = ast.parse("def g(x):\n    return np.stack([x, x])\n").body[0]
    assert banned_calls({"g": stacked}) == ["g:2 np.stack"]


def integrand_calls_outside_the_builder(source: str | None = None) -> list[str]:
    """logpdf and _some_mass calls outside _power_integrals's closure, and kl_integral's closures.

    The continuous integrands have one builder: every density call and
    first-pass mass guard sits in the closure nested in _power_integrals,
    and kl_integral hands its pair to that builder.
    """
    top = oracle_functions(source)
    inside = {id(node) for closure in ast.walk(top["_power_integrals"])
              if isinstance(closure, ast.FunctionDef) and closure is not top["_power_integrals"]
              for node in ast.walk(closure)}
    found = [f"{ast.unparse(node.func)}:{node.lineno}"
             for function in top.values() for node in ast.walk(function)
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("logpdf", "_some_mass")
             and id(node) not in inside]
    found += [f"kl_integral.{node.name}:{node.lineno}" for node in ast.walk(top["kl_integral"])
              if isinstance(node, ast.FunctionDef) and node is not top["kl_integral"]]
    return found


def test_continuous_integrands_have_one_builder():
    assert integrand_calls_outside_the_builder() == []
    # a KL with its own integrand closure is found, with its density calls
    source = ("def _power_integrals(d):\n    def g(x):\n        return logpdf(d, x)\n"
              "def kl_integral(p, q):\n    def g(x):\n        return logpdf(p, x) - logpdf(q, x)\n")
    assert integrand_calls_outside_the_builder(source) == [
        "logpdf:6", "logpdf:6", "kl_integral.g:5"]


def unused_imports(name: str, source: str) -> list[str]:
    """Names a module imports and never reads, but for re-exports marked `# noqa: F401`."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        if marked or isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line} {alias}" for alias, line in imported.items() if alias not in used]


def test_every_imported_name_is_used():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in unused_imports(path.name, path.read_text())]
    assert found == []
    # a name imported for a deleted helper is found; a marked re-export is not
    source = ("from functools import lru_cache\nimport numpy as np\n"
              "from .measures import MEASURES  # noqa: F401\nx = np.pi\n")
    assert unused_imports("m.py", source) == ["m.py:1 lru_cache"]
