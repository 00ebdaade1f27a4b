"""Pinned parameter grids, under a version tag.

Who reads each constant:

* LEMMA2_SWEEP, ARGMAX_SWEEP: the acceptance tests (`tests/test_acceptance.py`)
  run the lemma2 and argmax sweeps at these points.
* ENTRY_BOUNDS_SAMPLE: `spex verify entry-bounds` with no --parts takes its
  sample defaults from here, and so do the acceptance tests.
* GRID_VERSION: nothing reads it yet; it is kept so that reports can
  record which grids produced them. Bump it whenever a value changes.
"""

GRID_VERSION = 1

# merge + interval sweep: every split of n-2 into n1 >= n2 >= k+2
LEMMA2_SWEEP = {"n": 300, "k": 0}

# exhaustive admissible-forest maximization
ARGMAX_SWEEP = {"n": 259, "k": 0, "max_parts": 3}

# seeded random entry-bound sample
ENTRY_BOUNDS_SAMPLE = {"count": 200, "n_lo": 20, "n_hi": 100,
                       "seed": 20260817}
