"""Tests for space construction, the proposition algebra, and partitions."""

import copy
import dataclasses
import doctest
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import evidentia
from evidentia import (
    ALEPH,
    Dimension,
    Hyperrational,
    Proposition,
    build_finite_space,
    build_scaled_space,
    make_partition,
)

RANKS = "A 2 3 4 5 6 7 8 9 10 J Q K".split()
SUITS = ["clubs", "diamonds", "hearts", "spades"]


def deck():
    return build_finite_space([("rank", RANKS), ("suit", SUITS)])


# -- construction --------------------------------------------------------------


def test_deck_has_52_atoms():
    space = deck()
    assert space.size == 52
    assert space.total_cardinality == Hyperrational(52)
    assert space.unit_cardinality == Hyperrational(1)


def test_coin_space():
    space = build_finite_space([("face", ["H", "T"])])
    assert space.size == 2


def test_two_dice_product_counts():
    # oracle: 6 * 6 combinations counted independently
    pips = [str(i) for i in range(1, 7)]
    space = build_finite_space([("d1", pips), ("d2", pips)])
    assert space.size == len(pips) * len(pips) == 36
    labels = {atom.labels for atom in space.atoms()}
    assert len(labels) == 36


def test_atom_ids_are_row_major():
    space = deck()
    # last dimension varies fastest
    assert space.labels_of(0) == ("A", "clubs")
    assert space.labels_of(1) == ("A", "diamonds")
    assert space.labels_of(4) == ("2", "clubs")
    assert space.labels_of(51) == ("K", "spades")


def test_empty_dimension_rejected():
    with pytest.raises(ValueError):
        build_finite_space([("rank", [])])
    with pytest.raises(ValueError):
        build_finite_space([])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="repeats label"):
        build_finite_space([("rank", ["A", "A"])])


def test_duplicate_label_report_is_linear():
    # Counting each label's repeats by rescanning took seconds at 10^4.
    labels = [f"l{i}" for i in range(10**5)] + ["l7", "l3", "l7"]
    started = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        build_finite_space([("d", labels)])
    assert time.perf_counter() - started < 10
    assert str(exc.value) == "dimension 'd' repeats label(s): l3, l7"


def test_dimension_index_maps_labels_to_positions():
    dim = build_finite_space([("d", ["x", "y", "z"])]).dimensions[0]
    assert dim.index == {"x": 0, "y": 1, "z": 2}
    assert dim.index is dim.index


def test_duplicate_dimension_names_rejected():
    with pytest.raises(ValueError, match="duplicate dimension"):
        build_finite_space([("d", ["x"]), ("d", ["y"])])


# -- continua ----------------------------------------------------------------------


def continuum(thresholds, low=0, high=10, tranches=10, name="x"):
    thresholds = [Fraction(t) for t in thresholds]
    return Dimension.continuum(name, Fraction(low), Fraction(high), tranches, thresholds)


def test_continuum_cuts_only_at_thresholds_on_the_grid():
    dim = continuum(["4", "7", "13/2"])
    assert dim.labels == ("[0,4)", "[4,7)", "[7,10)")
    assert dim.weights == (4, 3, 3)
    assert dim.grid == (0, 1)
    assert (dim.size, dim.atom_label(5)) == (10, "[5,6)")
    dim = continuum(["25/2", "15"], low=10, high=20, tranches=4, name="t")
    assert dim.labels == ("[10,25/2)", "[25/2,15)", "[15,20)")
    assert (dim.grid, dim.weights) == ((10, Fraction(5, 2)), (1, 1, 2))


@pytest.mark.parametrize("thresholds", [[], ["13/2"], ["-3", "40"], ["0", "10"]])
def test_continuum_without_a_cut_inside_is_one_cell(thresholds):
    # Off the grid, at or beyond the ends: no threshold cuts the interior.
    dim = continuum(thresholds)
    assert (dim.labels, dim.weights) == (("[0,10)",), (10,))


def test_continuum_cut_at_every_tranche_has_no_weights():
    dim = continuum(["1/4", "1/2", "3/4"], high=1, tranches=4)
    assert dim.labels == ("[0,1/4)", "[1/4,1/2)", "[1/2,3/4)", "[3/4,1)")
    assert dim.weights is None
    assert continuum([], tranches=1).weights is None
    assert dim.compare("<", Fraction(1, 2)) == range(2)
    assert dim.compare(">=", Fraction(3, 4)) == range(3, 4)


def test_compare_resolves_cuts_to_label_ranges():
    dim = continuum(["4", "7"])
    assert dim.compare("<", Fraction(4)) == range(0, 1)
    assert dim.compare("<=", Fraction(4)) == range(0, 1)
    assert dim.compare(">", Fraction(4)) == range(1, 3)
    assert dim.compare(">=", Fraction(7)) == range(2, 3)
    # The ends of the grid, and anything beyond them, are cuts too.
    assert dim.compare("<", Fraction(0)) == dim.compare("<", Fraction(-3)) == range(0)
    assert dim.compare(">=", Fraction(10)) == dim.compare(">", Fraction(40)) == range(3, 3)


def test_compare_messages():
    dim = continuum(["4", "7"])
    with pytest.raises(ValueError) as exc:
        dim.compare("<", Fraction(13, 2))
    assert str(exc.value) == (
        "threshold 13/2 splits tranche [6,7) of 'x'; rebuild with a finer tranche count"
    )
    with pytest.raises(ValueError) as exc:
        dim.compare(">", Fraction(5))
    assert str(exc.value) == (
        "threshold 5 is not a cut of 'x' in this compiled space; "
        "compile the comparison as part of the model"
    )
    with pytest.raises(ValueError) as exc:
        Dimension("rank", ("A", "K")).compare("<", Fraction(3))
    assert str(exc.value) == "'rank' has no numeric order to compare against"


@pytest.mark.parametrize("op", ["==", "!=", "=<", "lt", "", "<<"])
def test_compare_refuses_unknown_operators(op):
    dim = continuum(["4", "7"])
    with pytest.raises(ValueError) as exc:
        dim.compare(op, 4)
    assert str(exc.value) == (
        f"unknown comparison {op!r} on 'x'; use one of <, <=, >, >="
    )
    # Checked first: an unordered dimension names the operator too.
    with pytest.raises(ValueError, match="unknown comparison"):
        Dimension("rank", ("A", "K")).compare(op, 3)


def test_continuum_refuses_a_grid_it_cannot_cut():
    for low, high, tranches, message in [
        (0, 10, 0, "'x' needs at least one tranche, not 0"),
        (0, 10, -3, "'x' needs at least one tranche, not -3"),
        (5, 5, 2, "continuum 'x' needs low below high (5 >= 5)"),
        (Fraction(9, 2), 3, 2, "continuum 'x' needs low below high (9/2 >= 3)"),
    ]:
        with pytest.raises(ValueError) as exc:
            Dimension.continuum("x", low, high, tranches, [1])
        assert str(exc.value) == message
    for low, high, tranches, message in [
        (0.0, 1, 4, "'x' needs exact numbers, not 0.0; use integers or Fraction"),
        (0, 0.5, 4, "'x' needs exact numbers, not 0.5; use integers or Fraction"),
        (0, 1, 4.0, "'x' needs a whole number of tranches, not 4.0"),
    ]:
        with pytest.raises(TypeError) as exc:
            Dimension.continuum("x", low, high, tranches)
        assert str(exc.value) == message


def test_dimension_refuses_a_grid_without_positive_exact_width():
    for grid in [(0, 0), (Fraction(1, 2), Fraction(0)), (3, -1), (0, Fraction(-1, 4))]:
        with pytest.raises(ValueError) as exc:
            Dimension("x", ("a",), grid)
        assert str(exc.value) == f"grid of 'x' needs a positive tranche width, not {grid[1]}"
    for grid in [(0.0, 1), (0, 0.25)]:
        with pytest.raises(TypeError, match="'x' needs exact numbers, not 0"):
            Dimension("x", ("a",), grid)


def test_a_float_threshold_is_refused():
    dim = continuum(["4"])
    with pytest.raises(TypeError) as exc:
        dim.compare("<", 4.0)
    assert str(exc.value) == "threshold 4.0 is not exact; use integers or Fraction"
    with pytest.raises(TypeError, match="threshold 0.5 is not exact"):
        Dimension.continuum("x", 0, 1, 4, [0.5])


def reference_continuum(low, high, tranches, thresholds):
    """Labels, weights, grid and a compare function for the continuum,
    computed with Fraction arithmetic alone."""
    low, high = Fraction(low), Fraction(high)
    width = (high - low) / tranches

    def position(t):
        return min(max((t - low) / width, 0), tranches)

    def label(a, b):
        return f"[{low + width * a},{low + width * b})"

    cuts = sorted({0, tranches} | {int(k) for k in map(position, thresholds) if k == int(k)})
    runs = list(zip(cuts, cuts[1:]))
    weights = None if len(runs) == tranches else tuple(b - a for a, b in runs)

    def compare(op, t):
        k = position(t)
        if k != int(k):
            i = int(k)
            return (
                f"threshold {t} splits tranche {label(i, i + 1)} of 'x'; "
                "rebuild with a finer tranche count"
            )
        if k not in cuts:
            return (
                f"threshold {t} is not a cut of 'x' in this compiled space; "
                "compile the comparison as part of the model"
            )
        j = cuts.index(k)
        return range(j) if op in ("<", "<=") else range(j, len(runs))

    return tuple(label(a, b) for a, b in runs), weights, (low, width), compare


def sample_thresholds(rng, low, high, tranches):
    """Thresholds on the grid, inside a tranche, beyond both ends and
    anywhere, each as a Fraction and, where it is whole, as an int."""
    low, high = Fraction(low), Fraction(high)
    width = (high - low) / tranches
    on_grid = [low + width * rng.randint(0, tranches) for _ in range(3)]
    inside = [low + width * (rng.randint(0, tranches - 1) + Fraction(rng.randint(1, 9), 10))]
    beyond = [low - rng.randint(0, 5), high + rng.randint(0, 5), low - width / 3, high + width / 3]
    anywhere = [Fraction(rng.randint(-20000, 20000), rng.choice([1, 2, 10, 7]))]
    values = on_grid + inside + beyond + anywhere + [low, high]
    return values + [int(v) for v in values if v.denominator == 1]


def assert_matches_reference(low, high, tranches, thresholds, probes):
    labels, weights, grid, compare = reference_continuum(low, high, tranches, thresholds)
    dim = Dimension.continuum("x", low, high, tranches, thresholds)
    assert (dim.labels, dim.weights, dim.grid) == (labels, weights, grid)
    assert all(type(part) is Fraction for part in dim.grid)
    for t in probes:
        for op in ("<", "<=", ">", ">="):
            expected = compare(op, t)
            if isinstance(expected, range):
                assert dim.compare(op, t) == expected
            else:
                with pytest.raises(ValueError) as exc:
                    dim.compare(op, t)
                assert str(exc.value) == expected


def grid_ends(rng):
    """Negative, whole and decimal ends, and a tranche count of 1 to 10^4."""
    low = Fraction(rng.randint(-10**4, 10**4), rng.choice([1, 10, 100, 1000, 3, 7]))
    high = low + Fraction(rng.randint(1, 10**4), rng.choice([1, 10, 100, 4, 9]))
    tranches = rng.choice([1, 2, 3, rng.randint(1, 100), rng.randint(1, 10**4), 10**4])
    return low, high, tranches


def test_integer_grid_matches_fraction_reference_seeded():
    rng = random.Random(20241)
    for _ in range(400):
        low, high, tranches = grid_ends(rng)
        thresholds = sample_thresholds(rng, low, high, tranches)
        cut = rng.sample(thresholds, rng.randint(0, len(thresholds)))
        probes = sample_thresholds(rng, low, high, tranches) + cut
        assert_matches_reference(low, high, tranches, cut, probes)


@given(st.randoms(use_true_random=False), st.booleans())
def test_integer_grid_matches_fraction_reference(rng, whole_ends):
    low, high, tranches = grid_ends(rng)
    if whole_ends:
        low, high = int(low), int(low) + max(1, int(high - low))
    thresholds = sample_thresholds(rng, low, high, tranches)
    assert_matches_reference(low, high, tranches, thresholds, thresholds)
    # Every tranche cut: each label is one tranche, and weights are None.
    if tranches <= 50:
        width = Fraction(high - low) / tranches
        every = [low + width * k for k in range(tranches + 1)]
        assert_matches_reference(low, high, tranches, every, thresholds)


# -- scaled spaces ---------------------------------------------------------------


def test_scaled_space_tranche_cardinalities():
    space = build_scaled_space([f"t{i}" for i in range(90)])
    assert space.unit_cardinality == ALEPH / 90
    assert space.total_cardinality == ALEPH
    assert space.unit_cardinality * 90 == ALEPH


def test_scaled_coin():
    space = build_scaled_space(["heads", "tails"])
    assert space.unit_cardinality == ALEPH / 2


def test_single_tranche_space():
    space = build_scaled_space(["everything"])
    assert space.unit_cardinality == ALEPH
    assert space.top.count == 1


def test_scaled_space_needs_labels():
    with pytest.raises(ValueError):
        build_scaled_space([])


# -- the proposition algebra -------------------------------------------------------


def test_excluded_middle_and_contradiction():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    assert (aces | ~aces) == space.top
    assert (aces & ~aces) == space.bottom


def test_negated_conjunction_expansion():
    space = deck()
    a = space.where(lambda atom: atom["rank"] == "A")
    b = space.where(lambda atom: atom["suit"] == "hearts")
    expansion = (a & ~b) | (~a & b) | (~a & ~b)
    assert ~(a & b) == expansion


def test_where_predicates():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    assert aces.count == 4
    assert space.where(lambda a: True) == space.top
    assert space.where(lambda a: False) == space.bottom


def test_where_counts_match_label_scan():
    labels = [f"t{i:02d}" for i in range(90)]
    space = build_scaled_space(labels, name="angle")
    below = space.where(lambda a: a["angle"] < "t45")
    # oracle: count the labels satisfying the predicate directly
    assert below.count == sum(1 for l in labels if l < "t45") == 45


def test_axis_proposition():
    space = deck()
    hearts = space.axis_proposition("suit", {SUITS.index("hearts")})
    assert hearts.count == 13
    assert hearts == space.where(lambda a: a["suit"] == "hearts")
    with pytest.raises(ValueError):
        space.axis_proposition("nope", {0})
    with pytest.raises(ValueError, match="no label index 4"):
        space.axis_proposition("suit", {0, 4})


def test_cross_space_operations_are_errors():
    first = deck()
    second = deck()
    a = first.where(lambda atom: atom["rank"] == "A")
    b = second.where(lambda atom: atom["rank"] == "A")
    with pytest.raises(ValueError, match="different spaces"):
        a & b
    with pytest.raises(ValueError, match="different spaces"):
        a | b


def test_member_ids_validated():
    space = build_finite_space([("x", ["a", "b"])])
    for ids in ({5}, {2}, {-1}, {0, -1}):
        with pytest.raises(ValueError, match="outside the space"):
            space.proposition(ids)
    for mask in (1 << 2, -1):
        with pytest.raises(ValueError, match="outside the space"):
            Proposition(space, mask)
    assert space.proposition({0, 1}) == Proposition(space, 0b11) == space.top
    assert space.proposition({1}).members == frozenset({1})


def test_propositions_are_immutable():
    space = deck()
    prop = Proposition(space, 0b101)
    for name, value in (("space", deck()), ("mask", 0b11), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(prop, name, value)
        with pytest.raises(AttributeError):
            delattr(prop, name)
    assert prop.space is space and prop.mask == 0b101


def test_replace_validates_like_the_constructor():
    space = build_finite_space([("x", ["a", "b"])])
    prop = Proposition(space, 0b01)
    assert dataclasses.replace(prop, mask=0b10) == Proposition(space, 0b10)
    with pytest.raises(ValueError, match="outside the space"):
        dataclasses.replace(prop, mask=1 << 60)


def test_equality_and_hash_follow_space_and_mask():
    space, twin = deck(), deck()
    prop = Proposition(space, 0b101)
    same = Proposition(space, 0b101)
    assert prop == same and hash(prop) == hash(same) == hash((space, 0b101))
    assert prop != Proposition(space, 0b100)
    assert prop != Proposition(twin, 0b101)  # an equal mask of another space
    assert prop != (space, 0b101) and prop.__eq__((space, 0b101)) is NotImplemented
    assert len({prop, same, Proposition(twin, 0b101)}) == 2


def test_propositions_survive_copy_and_pickle():
    continuum = Dimension.continuum("x", Fraction(0), Fraction(10), 10, [Fraction(3)])
    weighted = evidentia.PossibilitySpace([continuum, Dimension("y", ("a", "b"))])
    for space in (deck(), weighted):
        prop = Proposition(space, 0b1001)
        assert copy.copy(prop) == prop and copy.copy(prop).space is space
        twin_space, twin = pickle.loads(pickle.dumps((space, prop)))
        assert twin.space is twin_space and twin.mask == prop.mask
        assert twin.count == prop.count and repr(twin) == repr(prop)
        assert (twin | ~twin) == twin_space.top


# -- partitions ----------------------------------------------------------------------


def deck_groups(space):
    aces = space.where(lambda a: a["rank"] == "A")
    face = space.where(lambda a: a["rank"] in {"J", "Q", "K"})
    numbered = ~(aces | face)
    return [("aces", aces), ("face", face), ("numbered", numbered)]


def test_valid_three_block_partition():
    space = deck()
    partition = make_partition(space, deck_groups(space))
    assert [name for name, _ in partition.blocks] == ["aces", "face", "numbered"]
    total = Hyperrational(0)
    for _, prop in partition.blocks:
        total = total + space.unit_cardinality * prop.count
    assert total == space.total_cardinality


def test_top_is_a_one_block_partition():
    space = deck()
    partition = make_partition(space, [("everything", space.top)])
    assert len(partition.blocks) == 1


def test_overlapping_blocks_error_names_them():
    space = deck()
    aces = space.where(lambda a: a["rank"] == "A")
    with pytest.raises(ValueError, match="'first' and 'second' overlap"):
        make_partition(space, [("first", aces), ("second", aces)])


def test_overlap_spanning_two_earlier_blocks_names_the_lowest_cells_owner():
    space = build_finite_space([("x", ["a", "b", "c", "d"])])
    first = space.proposition({2})
    second = space.proposition({1})
    third = space.proposition({1, 2, 3})
    with pytest.raises(ValueError) as err:
        make_partition(space, [("first", first), ("second", second), ("third", third)])
    assert str(err.value) == "blocks 'second' and 'third' overlap on: b, c"


def test_non_exhaustive_partition_error_names_missing_cells():
    space = build_finite_space([("x", ["a", "b", "c"])])
    only_a = space.where(lambda atom: atom["x"] == "a")
    with pytest.raises(ValueError, match="does not cover") as err:
        make_partition(space, [("justa", only_a)])
    assert "b" in str(err.value)


def test_empty_partition_rejected():
    with pytest.raises(ValueError):
        make_partition(deck(), [])


def test_partition_reads_a_block_iterator_once():
    space = build_finite_space([("x", ["a", "b", "c"])])
    a = space.proposition({0})
    partition = make_partition(space, (block for block in [("a", a), ("rest", ~a)]))
    assert partition.blocks == (("a", a), ("rest", ~a))
    overlapping = (block for block in [("a", a), ("again", a), ("rest", ~a)])
    with pytest.raises(ValueError) as err:
        make_partition(space, overlapping)
    assert str(err.value) == "blocks 'a' and 'again' overlap on: a"
    with pytest.raises(ValueError, match="at least one block"):
        make_partition(space, iter(()))


def test_partition_cardinalities_sum_exactly_when_scaled():
    space = build_scaled_space([f"t{i}" for i in range(6)])
    evens = space.where(lambda a: int(a["value"][1:]) % 2 == 0)
    partition = make_partition(space, [("even", evens), ("odd", ~evens)])
    total = Hyperrational(0)
    for _, prop in partition.blocks:
        total = total + space.unit_cardinality * prop.count
    assert total == ALEPH


# -- boolean-algebra laws (property-tested) ----------------------------------------


@st.composite
def space_and_subsets(draw, max_cells=12, subsets=2):
    n = draw(st.integers(min_value=1, max_value=max_cells))
    space = build_finite_space([("u", tuple(f"u{i}" for i in range(n)))])
    props = []
    for _ in range(subsets):
        members = draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
        props.append(space.proposition(members))
    return (space, *props)


@given(space_and_subsets(subsets=2))
def test_de_morgan_and_double_negation(bundle):
    space, a, b = bundle
    assert ~(a | b) == (~a & ~b)
    assert ~(a & b) == (~a | ~b)
    assert ~~a == a


@given(space_and_subsets(subsets=2))
def test_absorption(bundle):
    _, a, b = bundle
    assert a | (a & b) == a
    assert a & (a | b) == a


@given(space_and_subsets(subsets=3))
def test_distributivity(bundle):
    _, a, b, c = bundle
    assert a & (b | c) == (a & b) | (a & c)
    assert a | (b & c) == (a | b) & (a | c)


@given(space_and_subsets(subsets=2))
def test_inclusive_proposition_identity(bundle):
    # A equals (A and B) or (A and not B) for every B
    _, a, b = bundle
    assert a == (a & b) | (a & ~b)


@given(space_and_subsets(subsets=2))
def test_tautology_is_shared(bundle):
    space, a, b = bundle
    assert (a | ~a) == (b | ~b) == space.top
    assert (a & ~a) == (b & ~b) == space.bottom


# -- the package docstring ---------------------------------------------------------


def test_package_docstring_example_runs():
    result = doctest.testmod(evidentia)
    assert result.attempted >= 5
    assert result.failed == 0
