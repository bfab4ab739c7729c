import numpy as np
import pytest

@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def oracle_settings(monkeypatch):
    """set(max_terms=10, ...) sets the oracle's constant _MAX_TERMS, ..., for one test.

    The oracle runs at five module constants; a test that shrinks a budget
    or a tolerance sets the constant by its lower-case name.
    """
    from entrokit import oracle

    def set_settings(**settings):
        for name, value in settings.items():
            monkeypatch.setattr(oracle, f"_{name.upper()}", value)

    return set_settings
