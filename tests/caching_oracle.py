"""Block-placement sampler of the random caching policy, for Monte Carlo tests.

The paper realises a caching vector b (sum M, every entry in [0, 1]) by
block placement: a continuous memory of length M is filled left to right
with segments of lengths b_1, ..., b_N (wrapping across the M unit
blocks), and one uniform cut u in [0, 1) selects the file covering
position m + u in each unit block m. Every segment is at most one long,
so the M selected files are distinct, and file i is selected with
marginal probability exactly b_i.
"""

from __future__ import annotations

import numpy as np


def sample_caches(policy, u) -> np.ndarray:
    """0-based file indices cached under the cuts ``u``, shape ``u.shape + (M,)``.

    ``u`` is an array of uniforms in [0, 1), one per device; each row of
    the result holds that device's M distinct files in increasing order.
    Raises ``ValueError`` when a row repeats a file, which only a policy
    outside the box constraints can cause.
    """
    u = np.asarray(u, dtype=float)
    m = policy.cache_size
    idx = np.searchsorted(np.cumsum(policy.b), u[..., None] + np.arange(m),
                          side="right")
    # Guard against float round-off at the final boundary (sum(b) ~ M).
    idx = np.minimum(idx, policy.n_files - 1)
    if np.any(np.diff(idx, axis=-1) <= 0):
        raise ValueError("placement repeated a file; the policy violates "
                         "the box constraints")
    return idx
