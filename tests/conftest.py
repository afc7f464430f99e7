import numpy as np
import pytest

from empcharge import (MpcConfig, NdcParams, build, default_table,
                       discretize, explore)


@pytest.fixture(scope="session")
def params():
    return NdcParams()


@pytest.fixture(scope="session")
def dmodel(params):
    return discretize(params, 60.0)


@pytest.fixture(scope="session")
def table(params):
    return default_table(params)


@pytest.fixture(scope="session")
def cfg():
    return MpcConfig()


@pytest.fixture(scope="session")
def problems(dmodel, table, cfg):
    return [build(dmodel, seg, cfg) for seg in table.segments]


@pytest.fixture(scope="session")
def solutions(problems):
    return [explore(p) for p in problems]
