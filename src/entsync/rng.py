"""Deterministic random-number derivation.

All randomness in a run flows from a single integer seed. Sub-generators are
derived from (seed, component index, *extra indices) via numpy's SeedSequence,
so a sub-result only changes when its own inputs change. Component indices are
fixed constants; never renumber them.
"""
from __future__ import annotations

import numpy as np

# Component indices for child-seed derivation.
ALICE_SOURCE = 0
BOB_SOURCE = 1
DET_ALICE_LOCAL = 2
DET_ALICE_REMOTE = 3
DET_BOB_LOCAL = 4
DET_BOB_REMOTE = 5
TOMO_BEFORE = 6
TOMO_AFTER = 7
TOMO_MONTE_CARLO = 8


def child_seed(seed: int, *indices: int) -> int:
    """Derive a stable integer seed from a root seed and component indices."""
    ss = np.random.SeedSequence([int(seed), *[int(i) for i in indices]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
