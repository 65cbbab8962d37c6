"""Frozen reference results that the benchmark checks every output against.

The values restate results the repository already pins in its acceptance
tests (and, for the 43a pair list, in ``ecaliquot.harness``); they are
copied here so the benchmark depends on no test module.
"""

from __future__ import annotations

from fractions import Fraction

from ecaliquot.curves_mod_p import CurveQ

# y^2 + y = x^3 - x, whose only amicable pair below 10^7 is this one.
CURVE_37A = CurveQ(0, 0, 1, -1, 0)
PAIR_37A = (1622311, 1622471)

# Chain counts of lengths 2 and 3 on 43a (harness.REFERENCE_CURVE), by X.
CHAINS_43A = {
    10**5: ((2, 485), (3, 21)),
    10**6: ((2, 3099), (3, 116)),
}

# y^2 = x^3 + 2 with the cm backend: the first six pairs at any X >= 1741,
# and the exact pair count at X = 10^6.
FIRST_SIX_MORDELL2 = (
    (13, 19),
    (139, 163),
    (541, 571),
    (613, 661),
    (757, 787),
    (1693, 1741),
)
PAIRS_MORDELL2_1E6 = 804

TRIPLE_CURVE = CurveQ(0, 0, 0, -25, -8)
TRIPLE_PRINTED = (83, 79, 73)
TRIPLE_NORMALIZED = (73, 83, 79)  # the only 3-cycle with smallest prime <= 10^5

CYCLE14_CURVE = CurveQ(
    0, 0, 0, 176209333661915432764478, 60625229794681596832262
)
CYCLE14 = (23, 31, 41, 47, 59, 67, 73, 79, 71, 61, 53, 43, 37, 29)

CYCLE25_CURVE = CurveQ(
    0,
    0,
    0,
    4545482133607498579268567738514832922289740324532,
    595867265462112118291430245894379464967885794713,
)
CYCLE25 = (
    41, 47, 59, 67, 73, 83, 97, 103, 109, 127, 137, 149, 157,
    151, 139, 131, 113, 107, 101, 89, 79, 71, 61, 53, 43,
)

# (k, #O^#, #M_k, #M_k^[1]) rows covering every congruence case.
RESIDUE_ROWS = (
    (37, 1225, 408, 144),
    (17, 287, 96, 36),
    (13, 121, 60, 20),
    (5, 23, 12, 4),
    (19, 289, 192, 72),
    (71, 5039, 3360, 1152),
    (7, 25, 25, 13),
    (11, 119, 119, 47),
)

PRIME_DENSITIES = {
    5: Fraction(1, 3),
    7: Fraction(13, 25),
    11: Fraction(47, 119),
    13: Fraction(1, 3),
    17: Fraction(3, 8),
    19: Fraction(3, 8),
    23: Fraction(191, 527),
    29: Fraction(1, 3),
    31: Fraction(301, 841),
    37: Fraction(6, 17),
    41: Fraction(1, 3),
    43: Fraction(589, 1681),
    47: Fraction(767, 2207),
    53: Fraction(9, 26),
    59: Fraction(1199, 3479),
    61: Fraction(1, 3),
    67: Fraction(1453, 4225),
    71: Fraction(12, 35),
    73: Fraction(12, 35),
    79: Fraction(2029, 5929),
    83: Fraction(2351, 6887),
    89: Fraction(15, 44),
    97: Fraction(1, 3),
}

# Observed type 1 densities at X = 10^6 sit within this distance of the
# exact prediction; below 10^6 the claim is not made.
DENSITY_TOLERANCE = 0.02
DENSITY_TOLERANCE_FROM_X = 10**6

COMPOSITE_DENSITIES = {
    35: Fraction(43, 115),
    55: Fraction(949, 2737),
    77: Fraction(1, 3),
    85: Fraction(1, 3),
    323: Fraction(43, 128),
    629: Fraction(3267, 9766),
    703: Fraction(1097, 3278),
    901: Fraction(3738, 11189),
    175: Fraction(43, 115),
    245: Fraction(1, 3),
    385: Fraction(1, 3),
    455: Fraction(4699, 13915),
}
