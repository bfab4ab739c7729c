import inspect
import pickle

import numpy as np
import pytest

from entrokit import entropy_estimate, verification
from entrokit.oracle import OracleConfig
from entrokit.closed_form import evaluate
from entrokit.errors import ParameterError
from entrokit.measures import oracle_error
from entrokit.verification import (ORACLE_FAMILIES, ORACLE_MEASURES, OracleCheckRow,
                                   oracle_equivalence, random_distribution, random_spec)


def test_unknown_family_is_a_parameter_error():
    with pytest.raises(ParameterError, match="unknown family 'poisson'"):
        random_distribution("poisson", np.random.default_rng(0))


@pytest.mark.parametrize("families, draws, seed, message", [
    ((), 5, 0, "at least one family"),
    (("exp",), 0, 0, "at least 1 draw"),
    (("exp",), -1, 0, "at least 1 draw"),
    (("exp",), 5, -5, "seed must be nonnegative"),
])
def test_oracle_equivalence_rejects_runs_that_check_nothing(families, draws, seed, message):
    with pytest.raises(ParameterError, match=message):
        oracle_equivalence(families, draws, seed)


def test_oracle_equivalence_rejects_unknown_families_before_the_first_draw(monkeypatch):
    """The check the CLI's --families relies on: nothing is drawn or computed first."""
    def no_draw(*args):
        raise AssertionError("a record was drawn")

    monkeypatch.setattr(verification, "random_distribution", no_draw)
    with pytest.raises(ParameterError, match=r"unknown families \['weibull'\]; choose from "
                                             r"\('gamma', 'exp', 'chisq', 'laplace'"):
        oracle_equivalence(("exp", "weibull"), 5, 0)


def test_selftest_draws_agree_far_inside_the_tolerance():
    """`selftest --seed 42`'s draws: every continuous cell within 1e-11 scaled.

    The CLI's tolerance is 1e-8 (1 + |closed|); this tight baseline is
    what a perturbed oracle or closed form has to move.
    """
    rows = oracle_equivalence(ORACLE_FAMILIES, 60, 42)
    assert len(rows) == len(ORACLE_FAMILIES) * len(ORACLE_MEASURES)
    worst = max(rows, key=lambda row: row.max_error)
    assert worst.max_error <= 1e-11, worst


def test_oracle_equivalence_checks_at_the_default_config():
    """Each cell's max error is the one OracleConfig() gives, to the bit, for every oracle measure.

    There is no cfg and no measure list.
    """
    assert list(inspect.signature(oracle_equivalence).parameters) == ["families", "draws", "seed"]
    families = ("exp", "normal", "uniform")
    draws, seed = 2, 5
    rng = np.random.default_rng(seed)
    want = []
    for family in families:
        for measure in ORACLE_MEASURES:
            worst = 0.0
            for _ in range(draws):
                d = random_distribution(family, rng)
                spec = random_spec(measure, d, rng)
                est = entropy_estimate(d, measure, spec.alpha, spec.beta, OracleConfig())
                worst = max(worst, oracle_error(evaluate(spec, d), est))
            want.append(OracleCheckRow(family, measure, draws, worst))
    assert pickle.dumps(oracle_equivalence(families, draws, seed)) == pickle.dumps(want)
