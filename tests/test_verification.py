import numpy as np
import pytest

from entrokit.errors import ParameterError
from entrokit.verification import random_distribution


def test_unknown_family_is_a_parameter_error():
    with pytest.raises(ParameterError, match="unknown family 'poisson'"):
        random_distribution("poisson", np.random.default_rng(0))
