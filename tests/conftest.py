"""Suite-wide fixtures.

``FieldMatrix._reduced`` wraps kernel results without any check, so that
production code pays nothing for them.  For the whole test run it is
replaced by a checking version: every unchecked construction any test
reaches must still hold a 2-D int64 array with entries in [0, p), for a
p that the public constructor would accept.
"""

import numpy as np
import pytest

from waldcat.linalg import MODULUS_LIMIT, FieldMatrix, is_prime


def _checked_reduced(trusted):
    def reduced(cls, p, a):
        assert p < MODULUS_LIMIT and is_prime(p), "unchecked modulus %r" % (p,)
        assert isinstance(a, np.ndarray), type(a)
        assert a.ndim == 2 and a.dtype == np.int64, (a.shape, a.dtype)
        assert a.size == 0 or (int(a.min()) >= 0 and int(a.max()) < p), (
            "entries outside [0, %d)" % p
        )
        return trusted(cls, p, a)

    return classmethod(reduced)


@pytest.fixture(autouse=True, scope="session")
def check_trusted_field_matrices():
    trusted = FieldMatrix.__dict__["_reduced"]
    FieldMatrix._reduced = _checked_reduced(trusted.__func__)
    yield
    FieldMatrix._reduced = trusted
