"""Shared helpers: random geometries, models, and inputs for equivalence tests."""

from __future__ import annotations

import numpy as np
import pytest

from scgaccel.modeltools import random_input, random_model, random_small_net
from scgaccel.qnn import NetworkSpec

__all__ = ["random_input", "random_small_net"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def default_pair(rng):
    """One random model + input on the published topology."""
    net = NetworkSpec.default()
    return net, random_model(net, rng), random_input(rng, net)
