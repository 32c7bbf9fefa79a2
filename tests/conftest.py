import zlib

import numpy as np
import pytest


@pytest.fixture
def rng(request):
    """A generator seeded from the test's node id, independent of test order."""
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))
