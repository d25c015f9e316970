"""Scale guards for the enumeration heavy operations.

All enumerations refuse inputs above a configurable bound instead of
silently truncating.  The defaults are sized for interactive desk work.
Surjection counts are closed-form and need no guard.
"""

from .errors import ScaleExceeded

# Largest group order accepted by lattice/automorphism/wide enumerations.
DESK_SCALE_ORDER = 4096

# Largest number of candidate matrices a materializing epi enumeration will
# walk.
MAX_EPI_CANDIDATES = 2**24

# Largest dense counit matrix (rows times columns) a resolution or explicit
# presentation level will build and row reduce.
MAX_COUNIT_ENTRIES = 2**16


def check_order(order, limit=None, what="enumeration"):
    bound = DESK_SCALE_ORDER if limit is None else limit
    if order > bound:
        raise ScaleExceeded(f"{what} refused: order {order} exceeds bound {bound}")


def check_candidates(n, limit=None, what="enumeration"):
    bound = MAX_EPI_CANDIDATES if limit is None else limit
    if n > bound:
        raise ScaleExceeded(f"{what} refused: {n} candidates exceed bound {bound}")
