"""Reference index swaps and point motion for the tests.

An index swap sigma_ij exchanges the subscripts i and j in b, c, d and e at
once (a0 and f0 stay).  `apply_permutation` builds the swapped
`DarbouxCoefficients` copy from a table of all three swaps, and
`sigma_orbit(c) = (c, sigma12 c, sigma13 c)` the copies on which a formula
written for index 1 gives its index 2 and 3 images.  The package takes those
images only as plain slot tuples, by `core.sigma_images`; these copies are
the independent reference the kernels and `sigma_images` are checked
against.  `apply_point` moves a point by a `EuclideanMotion`, the side of
the motion oracle that `apply_motion` is checked against.
"""
from operator import itemgetter

from cyclide import DarbouxCoefficients

# index permutations sigma_ij swap the indicated subscript in b, c, d, e
SIGMA12 = "s12"
SIGMA13 = "s13"
SIGMA23 = "s23"
PERMS = {SIGMA12: (1, 0, 2), SIGMA13: (2, 1, 0), SIGMA23: (0, 2, 1)}
# as slot index tables: a0 and f0 stay, each 3-slot group is permuted
SLOT_TABLES = {which: itemgetter(0, *(g + i for g in (1, 4, 7, 10) for i in perm), 13)
               for which, perm in PERMS.items()}


def apply_permutation(c, which: str) -> DarbouxCoefficients:
    """Swap one index pair simultaneously in b, c, d, e (a0, f0 fixed)."""
    return DarbouxCoefficients._make(SLOT_TABLES[which](c))


def sigma_orbit(c) -> tuple:
    """(c, sigma12 c, sigma13 c) as `DarbouxCoefficients` copies."""
    return (c, apply_permutation(c, SIGMA12), apply_permutation(c, SIGMA13))


def apply_point(m, p) -> tuple:
    """The point p moved by the motion m: R p + t."""
    R, t = m.rotation, m.translation
    return tuple(sum(R[i][j] * p[j] for j in range(3)) + t[i] for i in range(3))
