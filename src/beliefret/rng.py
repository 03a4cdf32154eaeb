"""Deterministic random streams.

All randomness in the package flows through named child streams of a single
64-bit seed. Children are derived by hashing the scope labels, so the stream
for, say, ("image_encoder",) does not depend on how many other components were
initialised before it, and the same (seed, scope) pair yields the same stream
on every platform and run.
"""

from __future__ import annotations

import hashlib
import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def child(seed: int, *scope) -> np.random.Generator:
    """Independent PCG64 generator for (seed, scope)."""
    label = "/".join(str(part) for part in scope)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8)]
    ss = np.random.SeedSequence([int(seed) & _MASK64, *words])
    return np.random.Generator(np.random.PCG64(ss))

