"""Performance layer: content-keyed caching.

:mod:`repro.perf.cache` memoises expensive array-valued computations
(PCA subspaces, GFK factors) under content hashes of their inputs.
"""

from repro.perf.cache import ArrayCache, array_token

__all__ = [
    "ArrayCache",
    "array_token",
]
