"""Seed-sequence plumbing shared by Monte Carlo loops and the harness.

Child streams are derived positionally: child k of a SeedSequence keeps the
parent entropy and appends k to the spawn key.  This is pure arithmetic on the
key material, so chunked estimators reproduce bit for bit regardless of how
work is scheduled.
"""

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package, not inside a run


def as_seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def child_sequence(parent, index):
    return np.random.SeedSequence(
        entropy=parent.entropy, spawn_key=(*parent.spawn_key, int(index))
    )
