import pytest
from hypothesis import settings

import intop.basis
import intop.intmat

# Property tests draw the same examples on every run and keep no example
# database, and slow reference quadratures never count as failures, so
# tier-1 stays deterministic.
settings.register_profile("intop", derandomize=True, deadline=None, database=None)
settings.load_profile("intop")


@pytest.fixture(autouse=True)
def _empty_memos():
    """Each test builds its own Gauss rules, matrices and factorizations: a
    rule memoized by an earlier test would bypass a test's monkeypatched node
    solver."""
    intop.basis.build_basis.cache_clear()
    intop.intmat.build_integration_matrices.cache_clear()
    intop.intmat._eigen_data.cache_clear()
