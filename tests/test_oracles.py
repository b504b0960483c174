"""The oracle contract: each oracle checks its own opens and bases, and its
``preperiod_period()`` alone says when a verdict on it is exact."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzdyn.analysis import (is_a_transitive, is_mildly_mixing,
                              is_mixing, is_transitive, is_weakly_mixing,
                              return_time_set)
from fuzzdyn.errors import InputError
from fuzzdyn.oracles import (CylinderOpen, HyperShiftDyn, ProductDyn,
                             ProductOpen, ShiftDyn, TableDyn, VietorisOpen,
                             _BoxBasis, _covers, points_open)
from fuzzdyn.spaces import make_rotation, one_point_system, product_system
from fuzzdyn.symbolic import full_shift


def rotation(n: int) -> TableDyn:
    return TableDyn(make_rotation(n, 1))


def oracles() -> dict:
    """Each kind of oracle with one open of its own kind."""
    table, shift = rotation(2), ShiftDyn(full_shift(2, 3))
    ball, cylinder = table.default_basis()[0], CylinderOpen("0")
    return {
        "table": (table, ball),
        "shift": (shift, cylinder),
        "hyper": (HyperShiftDyn(full_shift(2, 3)), VietorisOpen(("0",))),
        "product": (ProductDyn([(table, 1), (shift, 1)]),
                    ProductOpen((ball, cylinder))),
    }


KINDS = tuple(oracles())


@pytest.mark.parametrize("kind, other", [
    (kind, other) for kind in KINDS for other in KINDS if other != kind])
def test_an_oracle_rejects_the_open_of_another(kind, other):
    """As a basis and through ``return_time_set``, on either side."""
    found = oracles()
    dyn, own = found[kind]
    foreign = found[other][1]
    for call in (lambda: is_transitive(dyn, basis=[own, foreign]),
                 lambda: return_time_set(dyn, foreign, own, 4),
                 lambda: return_time_set(dyn, own, foreign, 4)):
        with pytest.raises(InputError, match="^cannot interpret"):
            call()


def test_a_rejected_open_is_named_by_its_label():
    """The message names the open, not an object address."""
    ball = rotation(2).default_basis()[0]
    with pytest.raises(InputError, match="^cannot interpret") as err:
        is_transitive(ShiftDyn(full_shift(2, 3)), basis=[ball])
    assert "B(0)" in str(err.value) and "0x" not in str(err.value)


def test_a_box_part_is_checked_by_its_factor():
    dyn, box = oracles()["product"]
    swapped = ProductOpen(box.parts[::-1])
    with pytest.raises(InputError, match="^cannot interpret"):
        is_transitive(dyn, basis=[swapped])
    with pytest.raises(InputError, match="^cannot interpret"):
        return_time_set(dyn, box, swapped, 4)


def test_a_box_has_one_part_per_factor():
    """A one-part box on two factors was once cut short by ``zip``."""
    table = rotation(2)
    ball = table.default_basis()[0]
    square = ProductDyn([(table, 1)] * 2)
    short, full = ProductOpen((ball,)), ProductOpen((ball, ball))
    for call in (lambda: is_transitive(square, basis=[short]),
                 lambda: return_time_set(square, short, full, 4),
                 lambda: return_time_set(square, full, short, 4),
                 lambda: is_transitive(
                     square, basis=_BoxBasis((table.default_basis(),)))):
        with pytest.raises(InputError, match="one part per factor"):
            call()


def test_a_product_basis_must_cover_a_finite_product():
    """One ball of rotation(2) x rotation(2) once gave an exact "holds";
    the product is not transitive, as its default basis shows."""
    table = rotation(2)
    ball = table.default_basis()[0]
    square = ProductDyn([(table, 1)] * 2)
    v = is_transitive(square)
    assert v.fails and v.exact
    for basis in ([ProductOpen((ball, ball))],
                  _BoxBasis(((ball,), table.default_basis()))):
        with pytest.raises(InputError,
                           match="^basis does not cover the space$"):
            is_transitive(square, basis=basis)
    # boxes of no common shape that cover the square pass, and decide it
    space = table.sys.space
    whole, zero, one = (points_open(space, m) for m in ([0, 1], [0], [1]))
    basis = [ProductOpen((zero, whole)), ProductOpen((one, zero)),
             ProductOpen((one, one))]
    assert is_transitive(square, basis=basis).fails


def test_a_nested_product_basis_must_cover():
    inner = ProductDyn([(rotation(2), 1), (rotation(3), 1)])
    outer = ProductDyn([(inner, 1), (rotation(2), 1)])
    boxes = outer.default_basis()
    assert outer.checked_basis(tuple(boxes)) == tuple(boxes)
    with pytest.raises(InputError, match="^basis does not cover the space$"):
        outer.checked_basis(tuple(boxes)[1:])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cover_matches_the_points(data):
    """The boxes cover the product iff every point lies in some box."""
    sizes = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                     max_size=3)))
    boxes = data.draw(st.lists(st.tuples(*(
        st.frozensets(st.integers(0, n - 1), min_size=1) for n in sizes)),
        max_size=6))
    covered = {p for box in boxes for p in itertools.product(*box)}
    assert _covers(sizes, boxes) == (
        covered == set(itertools.product(*map(range, sizes))))


def test_every_oracle_has_a_clock_and_tables_an_exact_basis():
    """A shift's clock is its resolution and adjacency clock; a product's
    combines its factors'.  Only a table's default basis exhausts its
    opens, so a product's does only when every factor's does."""
    found = oracles()
    assert found["table"][0].preperiod_period() == (0, 2)
    for kind in ("shift", "hyper"):
        assert found[kind][0].preperiod_period() == (3, 1)
    assert found["product"][0].preperiod_period() == (3, 2)
    assert ProductDyn([(rotation(3), 1), (rotation(2), 2)]) \
        .preperiod_period() == (0, 3)
    assert [found[kind][0].exact_basis for kind in KINDS] == [
        kind == "table" for kind in KINDS]
    assert ProductDyn([(rotation(3), 1), (rotation(2), 2)]).exact_basis


def test_mixing_is_exact_on_a_finite_product():
    """rotation(3) x rotation(2) is one 6-cycle: its missing residue time
    is the counterexample, as on the materialized product."""
    factors = [(make_rotation(3, 1), 1), (make_rotation(2, 1), 1)]
    v = is_mixing(ProductDyn([(TableDyn(s), a) for s, a in factors]))
    assert (v.status, v.exact, v.counterexample, v.note) == (
        "fails", True, ("B((0,0))", "B((0,0))", 1),
        "a full residue class of times is missing")
    assert v == is_mixing(product_system(factors))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3),
                          st.integers(1, 3)), min_size=1, max_size=3))
def test_product_checks_match_the_materialized_product(specs):
    """Mixing and weak mixing of a product of rotations with exponents,
    read through the oracle, are the verdicts on the product system."""
    factors = [(make_rotation(n, k % n), a) for n, k, a in specs]
    dyn = ProductDyn([(TableDyn(s), a) for s, a in factors])
    table = product_system(factors)
    assert is_mixing(dyn) == is_mixing(table)
    assert is_weakly_mixing(dyn, method="lemma") == \
        is_weakly_mixing(table, method="lemma")


def test_mild_mixing_is_exact_on_a_finite_product():
    """A product of tables reads the IP* scan over its boxes, which exhaust
    its opens as its table's singletons do, so its verdict is exact and is
    the verdict on its table."""
    for factors in ([(one_point_system(), 1)] * 2,
                    [(make_rotation(3, 1), 1), (make_rotation(2, 1), 1)]):
        got = is_mildly_mixing(
            ProductDyn([(TableDyn(s), a) for s, a in factors]))
        want = is_mildly_mixing(product_system(factors))
        assert got.exact
        assert (got.status, got.exact, got.note, got.witnesses) == (
            want.status, want.exact, want.note, want.witnesses)


def test_a_box_basis_past_len_is_read_by_index():
    """70 factors of two points make 2^70 boxes, more than ``len()`` can
    return: the basis counts them by ``size``, reads any of them by index,
    and a nested product counts its inner boxes the same way."""
    boxes = ProductDyn([(rotation(2), 1)] * 70).default_basis()
    assert boxes.size == 2 ** 70
    with pytest.raises(OverflowError):
        len(boxes)
    assert [set(p.indices) for p in boxes[-1].parts] == [{1}] * 70
    assert [set(p.indices) for p in boxes[2 ** 69].parts] == \
        [{1}] + [{0}] * 69
    for i in (2 ** 70, -2 ** 70 - 1):
        with pytest.raises(IndexError):
            boxes[i]
    inner = ProductDyn([(rotation(2), 1)] * 63)
    nested = ProductDyn([(inner, 1), (rotation(3), 1)]).default_basis()
    assert nested.size == 3 * 2 ** 63
    assert nested[-1].parts[1].indices == frozenset({2})
    assert [set(p.indices) for p in nested[-1].parts[0].parts] == [{1}] * 63


def test_a_check_over_more_boxes_than_len_answers():
    # the a-transitivity scan fails at its second box, of 2^70
    v = is_a_transitive(make_rotation(2, 1), [1] * 70)
    assert v.fails and v.exact
    assert v.counterexample[1] == "B((" + "0," * 69 + "1))"
    assert is_transitive(ProductDyn([(rotation(2), 1)] * 70)).fails
