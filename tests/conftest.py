import os

import numpy as np
import pytest
import scipy.io
import scipy.sparse

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240915))


def data_path(name):
    return os.path.join(DATA, name)


def write_mtx(path, csr):
    """Write a CsrMatrix as a general coordinate Matrix Market file."""
    a = scipy.sparse.csr_array((csr.data, csr.indices, csr.indptr), shape=csr.shape)
    scipy.io.mmwrite(path, a, symmetry="general")
