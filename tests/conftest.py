"""Shared fixtures: the filtered generation sets are expensive (the degree-7
filter takes about 20 s on two CPUs and 40 s on one), so they are computed
once per session."""

import pytest

from lyident import liftgen


@pytest.fixture(scope="session")
def gen6_filtered():
    return liftgen.filter_redundant(liftgen.generate(6))


@pytest.fixture(scope="session")
def gen7_filtered():
    return liftgen.filter_redundant(liftgen.generate(7))


@pytest.fixture(scope="session")
def gen8(gen6_filtered, gen7_filtered):
    return liftgen.generate(8, {6: gen6_filtered, 7: gen7_filtered})
