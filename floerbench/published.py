"""Alexander polynomials and determinants of the prime knots through seven
crossings, typed in from a published knot table.

Source: D. Rolfsen, *Knots and Links* (Publish or Perish, 1976), Appendix C
(the knot table, polynomials listed by coefficient); the same values are
listed by KnotInfo (C. Livingston and A. H. Moore).  Rolfsen lists the
coefficients up to a unit; here each polynomial is written in the symmetric
normalisation Delta(t) = Delta(1/t), Delta(1) = 1 that the program uses, as
{exponent: coefficient}.  The determinant is |Delta(-1)|.
"""

ALEXANDER = {
    "3_1": ({-1: 1, 0: -1, 1: 1}, 3),
    "4_1": ({-1: -1, 0: 3, 1: -1}, 5),
    "5_1": ({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}, 5),
    "5_2": ({-1: 2, 0: -3, 1: 2}, 7),
    "6_1": ({-1: -2, 0: 5, 1: -2}, 9),
    "6_2": ({-2: -1, -1: 3, 0: -3, 1: 3, 2: -1}, 11),
    "6_3": ({-2: 1, -1: -3, 0: 5, 1: -3, 2: 1}, 13),
    "7_1": ({-3: 1, -2: -1, -1: 1, 0: -1, 1: 1, 2: -1, 3: 1}, 7),
    "7_2": ({-1: 3, 0: -5, 1: 3}, 11),
    "7_3": ({-2: 2, -1: -3, 0: 3, 1: -3, 2: 2}, 13),
    "7_4": ({-1: 4, 0: -7, 1: 4}, 15),
    "7_5": ({-2: 2, -1: -4, 0: 5, 1: -4, 2: 2}, 17),
    "7_6": ({-2: -1, -1: 5, 0: -7, 1: 5, 2: -1}, 19),
    "7_7": ({-2: 1, -1: -5, 0: 9, 1: -5, 2: 1}, 21),
}
