"""Suite-wide set-up: the same fixed malloc thresholds as the CLI.

The CLI pins glibc's thresholds first thing (``numerics.pin_allocator``);
pinning them here too makes the suite allocate the way a run does, instead
of depending on which test first frees a large block.
"""

import pytest

from trhreg.numerics import pin_allocator


@pytest.fixture(scope="session", autouse=True)
def _pinned_allocator():
    pin_allocator()
