"""Pinned parameter grids, under a version tag.

Who reads each constant:

* ENTRY_BOUNDS_SAMPLE: `spex verify entry-bounds` with no --parts takes its
  sample defaults from here, and so do the acceptance tests.
* GRID_VERSION: nothing reads it yet; it is kept so that reports can
  record which grids produced them. Bump it whenever a value changes.
"""

GRID_VERSION = 1

# seeded random entry-bound sample
ENTRY_BOUNDS_SAMPLE = {"count": 200, "n_lo": 20, "n_hi": 100,
                       "seed": 20260817}
