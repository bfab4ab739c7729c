import numpy as np
import pytest

from entrokit.errors import ParameterError
from entrokit.verification import ORACLE_MEASURES, oracle_equivalence, random_distribution


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
