import numpy as np
import pytest

from mmdpcn.errors import NonFinite, ZeroColumn
from mmdpcn.linalg import as_float_array, column_normalize


def test_column_normalize_unit_columns():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((9, 5)) * 3.0
    out = column_normalize(m)
    assert np.allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-12)
    # Input is never mutated.
    assert not np.allclose(np.linalg.norm(m, axis=0), 1.0)


def test_column_normalize_rejects_zero_column():
    m = np.ones((4, 3))
    m[:, 1] = 0.0
    with pytest.raises(ZeroColumn):
        column_normalize(m)


def test_as_float_array_coerces_and_validates():
    out = as_float_array([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]
    with pytest.raises(NonFinite):
        as_float_array([1.0, np.nan])
    with pytest.raises(NonFinite):
        as_float_array([np.inf])
