import numpy as np
import pytest

from entrokit.errors import ParameterError
from entrokit.verification import (ORACLE_FAMILIES, ORACLE_MEASURES, oracle_equivalence,
                                   random_distribution)


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
        oracle_equivalence(families, ORACLE_MEASURES, draws, seed)


def test_selftest_draws_agree_far_inside_the_tolerance():
    """`selftest --seed 42`'s draws: every continuous cell within 1e-11 scaled.

    The CLI's tolerance is 1e-8 (1 + |closed|); this tight baseline is
    what a perturbed oracle or closed form has to move.
    """
    rows = oracle_equivalence(ORACLE_FAMILIES, ORACLE_MEASURES, 60, 42)
    assert len(rows) == len(ORACLE_FAMILIES) * len(ORACLE_MEASURES)
    worst = max(rows, key=lambda row: row.max_error)
    assert worst.max_error <= 1e-11, worst
