"""The derived closure rows against the rows once typed into nlosc.spline.

Until the rows were derived from their supports, the package held them as
the literals below, whose brackets held D terms of their own (``o_terms``,
(j, o_j)).  The derivation must give them back exactly once those are
netted into the D coefficients: the same Fractions in the same term
order, since the head builder folds right-hand sides in that order, so the
order is part of a solve's bits."""

from fractions import Fraction

import pytest

from nlosc import spline
from nlosc.spline import CLOSURES, closure_rows

_F = Fraction


def EndCondition(node_derivs, node_values, initial_derivs, o_terms=()):
    """A row as typed, with each bracket term (j, o_j) netted into the D
    coefficients as c_j - o_j, in the same term order."""
    net = dict(node_derivs)
    for j, o in o_terms:
        net[j] = net.get(j, 0) - o
    return spline.EndCondition(tuple(net.items()), node_values, initial_derivs)


# Standard fourth-order closure: rows exact for polynomials through degree 5.
STANDARD_END_CONDITIONS4 = (
    EndCondition(
        node_derivs=((0, _F(1)), (4, _F(1))),
        node_values=((0, _F(-220, 9)), (1, _F(40)), (2, _F(-20)), (3, _F(40, 9))),
        initial_derivs=((1, _F(-40, 3)),),
        o_terms=((0, _F(-4, 3)),),
    ),
    EndCondition(
        node_derivs=((1, _F(1)), (5, _F(1))),
        node_values=((1, _F(18336, 575)), (2, _F(-22992, 575)), (3, _F(4656, 575))),
        initial_derivs=((1, _F(2736, 115)), (2, _F(15864, 575)), (3, _F(6648, 575))),
    ),
    EndCondition(
        node_derivs=((2, _F(1)), (6, _F(1))),
        node_values=((2, _F(8157, 865)), (3, _F(-11424, 865)), (4, _F(3267, 865))),
        initial_derivs=((1, _F(978, 173)), (2, _F(8958, 865)), (3, _F(5684, 865))),
    ),
)

# Improved fourth-order closure: rows exact for polynomials through degree 9.
IMPROVED_END_CONDITIONS4 = (
    EndCondition(
        node_derivs=(
            (0, _F(1)),
            (1, _F(843268, 2081)),
            (2, _F(330342, 2081)),
            (3, _F(-16892, 2081)),
            (4, _F(1)),
        ),
        node_values=(
            (0, _F(-68397280, 18729)),
            (1, _F(13366080, 2081)),
            (2, _F(-7408800, 2081)),
            (3, _F(14781760, 18729)),
        ),
        initial_derivs=(
            (1, _F(-10427200, 6243)),
            (2, _F(743680, 2081)),
            (3, _F(259840, 2081)),
        ),
    ),
    EndCondition(
        node_derivs=(
            (1, _F(1)),
            (2, _F(-156090207332, 158360705)),
            (3, _F(-40456201386, 158360705)),
            (4, _F(-600708692, 158360705)),
            (5, _F(1)),
        ),
        node_values=(
            (1, _F(180155114496, 31672141)),
            (2, _F(-340726283352, 31672141)),
            (3, _F(210168798336, 31672141)),
            (4, _F(-49597629480, 31672141)),
        ),
        initial_derivs=(
            (1, _F(69181575120, 31672141)),
            (2, _F(42396452784, 31672141)),
            (3, _F(7557647328, 31672141)),
        ),
    ),
    EndCondition(
        node_derivs=(
            (2, _F(1)),
            (3, _F(-85514900495708, 1252977040745)),
            (4, _F(3759590586966, 1252977040745)),
            (5, _F(-7418340285788, 1252977040745)),
            (6, _F(1)),
        ),
        node_values=(
            (2, _F(43463161469952, 250595408149)),
            (3, _F(-94491207986112, 250595408149)),
            (4, _F(68699611790208, 250595408149)),
            (5, _F(-17671565274048, 250595408149)),
        ),
        initial_derivs=(
            (1, _F(10106680227840, 250595408149)),
            (2, _F(9581784601536, 250595408149)),
            (3, _F(2621304758016, 250595408149)),
        ),
    ),
)

# Closure rows for the sixth-order problem, local error O(h^8).  The
# second row's bracket contains an h^6 y^(6)(t_1) term that is eliminated
# through the differential equation at assembly time.
END_CONDITIONS6 = (
    EndCondition(
        node_derivs=((0, _F(1)), (4, _F(1))),
        node_values=(
            (0, _F(2905, 12)),
            (1, _F(-336)),
            (2, _F(126)),
            (3, _F(-112, 3)),
            (4, _F(21, 4)),
        ),
        initial_derivs=((1, _F(175)), (2, _F(42))),
        o_terms=((0, _F(-4, 5)),),
    ),
    EndCondition(
        node_derivs=((1, _F(1)), (5, _F(1))),
        node_values=(
            (1, _F(797790, 21983)),
            (2, _F(-1660890, 21983)),
            (3, _F(1299060, 21983)),
            (4, _F(-523110, 21983)),
            (5, _F(87150, 21983)),
        ),
        initial_derivs=((1, _F(283500, 21983)), (2, _F(172620, 21983))),
        o_terms=((1, _F(-40167, 21983)),),
    ),
    EndCondition(
        node_derivs=((2, _F(1)), (6, _F(1))),
        node_values=(
            (2, _F(605725, 22267)),
            (3, _F(-108239440, 1803627)),
            (4, _F(1103910, 22267)),
            (5, _F(-446800, 22267)),
            (6, _F(5949805, 1803627)),
        ),
        initial_derivs=(
            (1, _F(675200, 85887)),
            (2, _F(700180, 66801)),
            (3, _F(851440, 200403)),
        ),
    ),
    EndCondition(
        node_derivs=((3, _F(1)), (7, _F(1))),
        node_values=(
            (3, _F(-670672000, 42346017)),
            (4, _F(44149995, 1568371)),
            (5, _F(-23862240, 1568371)),
            (6, _F(122902615, 42346017)),
        ),
        initial_derivs=(
            (1, _F(-12961750, 2016477)),
            (2, _F(-25078370, 1568371)),
            (3, _F(-77684300, 4705113)),
            (4, _F(-11492010, 1568371)),
        ),
    ),
    EndCondition(
        node_derivs=((4, _F(1)), (8, _F(1))),
        node_values=(
            (4, _F(49567095, 12837314)),
            (5, _F(-34289280, 6418657)),
            (6, _F(19011465, 12837314)),
        ),
        initial_derivs=(
            (1, _F(2182545, 916951)),
            (2, _F(59244435, 6418657)),
            (3, _F(107795790, 6418657)),
            (4, _F(115282605, 6418657)),
            (5, _F(65492262, 6418657)),
        ),
    ),
)


LITERALS = {
    "standard": (4, STANDARD_END_CONDITIONS4),
    "improved": (4, IMPROVED_END_CONDITIONS4),
    "printed": (6, END_CONDITIONS6),
}


def test_every_tabulated_closure_has_a_literal_copy():
    assert sorted(LITERALS) == sorted(name for name, entry in CLOSURES.items() if entry)


@pytest.mark.parametrize("closure", sorted(LITERALS))
def test_derived_rows_equal_the_literals_term_by_term(closure):
    order, literal = LITERALS[closure]
    rows = closure_rows(closure, order)
    assert len(rows) == len(literal)
    for row, expected in zip(rows, literal):
        for name in ("node_derivs", "node_values", "initial_derivs"):
            terms = getattr(row, name)
            assert terms == getattr(expected, name), name
            assert all(type(j) is int and type(c) is Fraction for j, c in terms), name
