import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from twopoint import ZeroMeanMeasure

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def four_atom():
    """The recurring worked measure: half the mass at -1, a dusting at
    0, and an asymmetric positive side."""
    return ZeroMeanMeasure.from_atoms(
        [(-1, "5/10"), (0, "1/10"), (1, "3/10"), (2, "1/10")])


@pytest.fixture
def symmetric_four():
    return ZeroMeanMeasure.from_atoms(
        [(-2, "1/10"), (-1, "4/10"), (1, "4/10"), (2, "1/10")])


@pytest.fixture
def third_discrete():
    return ZeroMeanMeasure.from_atoms(
        [(-2, "1/5"), (-1, "2/5"), (2, "2/5")])


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps the function ``module.name`` in
    every package module that binds it, and returns the list that gets
    one entry per call."""
    def wrap(module, name):
        fn = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        for mod in list(sys.modules.values()):
            package = getattr(mod, "__name__", "").split(".")[0]
            if package == "twopoint" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
        return calls
    return wrap
