"""The parts of NumPy the stages load, and no more.

``numpy.random`` imports ``secrets`` for one name, ``randbits``, which it
calls only to seed a stream given no entropy; ``secrets`` imports ``hmac``
and with it OpenSSL's libcrypto, about 3.7 MB of a stage's memory. Every
stream here is seeded explicitly (``PCG64(seed)``, ``SeedSequence(entropy,
spawn_key=...)``), so ``numpy_random`` imports ``numpy.random`` against a
stand-in ``secrets`` that defines ``randbits`` as ``secrets.py`` does.

``np.unique`` loads ``numpy.ma`` (1.6 MB) to ask whether its argument is
masked; ``has_both_classes`` answers the one question the stages put to it.
"""

from __future__ import annotations

import sys
import types

import numpy as np


def numpy_random() -> types.ModuleType:
    """``numpy.random``. Imported here first, with ``secrets`` not yet
    loaded, it is imported against a stand-in ``secrets`` holding only
    ``randbits = random.SystemRandom().getrandbits``, which is removed
    again, so a later ``import secrets`` loads the real module."""
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        import random

        stand_in = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits
        sys.modules["secrets"] = stand_in
        try:
            import numpy.random
        finally:
            del sys.modules["secrets"]
    import numpy.random

    return numpy.random


def has_both_classes(y: np.ndarray) -> bool:
    """Whether the 0/1 targets ``y`` hold both classes: for targets without
    NaN, ``np.unique(y).shape[0] >= 2``."""
    return y.shape[0] > 0 and bool(np.any(y != y[0]))
