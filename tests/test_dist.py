"""Exact-distribution arithmetic and information measures."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pirlab import dist
from pirlab.audit import audit_sections
from pirlab.dist import (
    ExactDist,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    marginal,
    total_variation,
)
from pirlab.linear import linear_descriptor

F = Fraction
TOL = 1e-9


def multiround_cell_joint():
    """Joint law of (y1, y2, u) by direct enumeration of (w1, w2, coin).

    Independent oracle: no scheme code involved, just the cell definitions.
    """
    weights = Counter()
    for w1, w2, coin in product((0, 1), repeat=3):
        x1, x2 = w1 & w2, (1 - w1) & (1 - w2)
        y1, y2 = w1 & (1 - w2), (1 - w1) & w2
        asked = x1 if coin == 0 else x2
        u = 0 if asked == 1 else 1
        weights[(y1, y2, u)] += 1
    return ExactDist({k: F(c, 8) for k, c in weights.items()})


class TestExactDist:
    def test_scalar_keys_become_singleton_tuples(self):
        d = ExactDist({0: F(1, 2), 1: F(1, 2)})
        assert d.arity == 1
        assert d.counts[(0,)] * 2 == d.total

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ExactDist({0: F(1, 2), 1: F(1, 4)})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ExactDist({0: F(3, 2), 1: F(-1, 2)})

    def test_zero_weights_dropped(self):
        d = ExactDist({0: F(1), 1: F(0)})
        assert d.support() == ((0,),)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="support"):
            ExactDist({})

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            ExactDist({(0,): F(1, 2), (0, 1): F(1, 2)})

    def test_alphabets_read_from_support(self):
        d = ExactDist({(0, "x"): F(1, 2), (1, "x"): F(1, 2), (2, "y"): F(0)})
        assert d.alphabets == (frozenset({0, 1}), frozenset({"x"}))

    @pytest.mark.parametrize(
        "weights",
        [
            {(): 1},
            {0: F(1, 4), 1: F(3, 4)},
            {(0, "x", None): F(1, 3), (True, "y", (1, 2)): F(1, 3), (2.5, "x", None): F(1, 3)},
        ],
        ids=["arity-0", "scalar", "mixed"],
    )
    def test_arity_and_alphabets_equal_their_eager_definitions(self, weights):
        d = ExactDist(weights)
        outcomes = [key if isinstance(key, tuple) else (key,) for key in weights]
        assert d.arity == len(outcomes[0])
        assert d.alphabets == tuple(map(frozenset, zip(*outcomes)))
        assert len(d.alphabets) == d.arity

    def test_alphabets_built_only_where_read(self, monkeypatch):
        # A deterministic cost count: an ideal audit reads alphabets only in
        # its upload section, from 2 databases x 2 thetas of one query each.
        built = []

        def counted(*args):
            built.append(frozenset(*args))
            return built[-1]

        monkeypatch.setattr(dist, "frozenset", counted, raising=False)
        assert audit_sections(linear_descriptor())["pass"]
        assert built == [frozenset({1, 2})] * 2 + [frozenset({"t1", "t2"})] * 2

    def test_outcome_outside_the_support_has_probability_zero(self):
        d = ExactDist({0: F(1, 4), 1: F(3, 4)})
        assert (2,) not in d.counts and 2 not in d.counts


class TestEntropy:
    def test_uniform_binary_bit(self):
        assert entropy(ExactDist({0: F(1, 2), 1: F(1, 2)})) == pytest.approx(1.0, abs=TOL)

    def test_quarter_quarter_half(self):
        d = ExactDist({"a": F(1, 4), "b": F(1, 4), "c": F(1, 2)})
        assert entropy(d) == pytest.approx(1.5, abs=TOL)

    def test_uniform_ternary(self):
        d = ExactDist({"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)})
        assert entropy(d) == pytest.approx(math.log2(3), abs=TOL)

    def test_point_mass_is_zero(self):
        assert entropy(ExactDist({"only": F(1)})) == 0.0


class TestConditionalEntropy:
    def test_cells_given_indicator(self):
        joint = multiround_cell_joint()
        assert conditional_entropy(joint, (2,)) == pytest.approx(
            0.75 * math.log2(3), abs=TOL
        )

    def test_independent_bits(self):
        joint = ExactDist({(a, b): F(1, 4) for a in (0, 1) for b in (0, 1)})
        assert conditional_entropy(joint, (0,)) == pytest.approx(1.0, abs=TOL)

    def test_duplicated_coordinate_is_deterministic(self):
        joint = ExactDist({(0, 0): F(1, 2), (1, 1): F(1, 2)})
        assert conditional_entropy(joint, (0,)) == pytest.approx(0.0, abs=TOL)

    def test_bad_coordinate_rejected(self):
        joint = ExactDist({(0, 0): F(1)})
        with pytest.raises(ValueError):
            conditional_entropy(joint, (5,))


class TestMutualInformation:
    """I(A; B) as conditional_mutual_information with an empty condition."""

    def test_independent_coordinates(self):
        joint = ExactDist({(a, b): F(1, 4) for a in (0, 1) for b in (0, 1)})
        assert conditional_mutual_information(joint, (0,), (1,), ()) == pytest.approx(0.0, abs=TOL)

    def test_duplicated_fair_bit(self):
        joint = ExactDist({(0, 0): F(1, 2), (1, 1): F(1, 2)})
        assert conditional_mutual_information(joint, (0,), (1,), ()) == pytest.approx(1.0, abs=TOL)

    def test_cells_vs_indicator(self):
        # Oracle value: H(y1, y2) - H(y1, y2 | u) = 3/2 - (3/4) log2 3,
        # recomputed here from the same enumeration with plain floats.
        joint = multiround_cell_joint()
        pair_counts = Counter()
        cond_counts = {}
        for (y1, y2, u), w in joint.items():
            pair_counts[(y1, y2)] += w
            cond_counts.setdefault(u, Counter())[(y1, y2)] += w
        h_pair = -sum(float(p) * math.log2(float(p)) for p in pair_counts.values())
        h_cond = 0.0
        for u, bucket in cond_counts.items():
            p_u = float(sum(bucket.values()))
            h_cond += p_u * -sum(
                float(p / sum(bucket.values())) * math.log2(float(p / sum(bucket.values())))
                for p in bucket.values()
            )
        oracle = h_pair - h_cond
        assert oracle == pytest.approx(1.5 - 0.75 * math.log2(3), abs=TOL)
        assert conditional_mutual_information(joint, (0, 1), (2,), ()) == pytest.approx(oracle, abs=TOL)

    def test_overlap_rejected(self):
        joint = ExactDist({(0, 0): F(1)})
        with pytest.raises(ValueError, match="duplicate coordinates"):
            conditional_mutual_information(joint, (0,), (0, 1), ())


class TestTotalVariation:
    def test_identity(self):
        d = ExactDist({0: F(1, 3), 1: F(2, 3)})
        assert total_variation(d, d) == 0

    def test_known_distance(self):
        d1 = ExactDist({0: F(1, 2), 1: F(1, 2)})
        d2 = ExactDist({0: F(1, 4), 1: F(3, 4)})
        assert total_variation(d1, d2) == F(1, 4)

    def test_zero_probability_outcomes_count(self):
        d1 = ExactDist({0: F(1)})
        d2 = ExactDist({1: F(1)})
        assert total_variation(d1, d2) == 1

    def test_unequal_arity_rejected(self):
        d1 = ExactDist({0: F(1)})
        d2 = ExactDist({(0, 0): F(1)})
        with pytest.raises(ValueError, match="arity, got 1 and 2"):
            total_variation(d1, d2)


class TestMarginal:
    def test_product_marginal_recovers_factor(self):
        factor = {0: F(1, 4), 1: F(3, 4)}
        joint = ExactDist(
            {(a, b): factor[a] * F(1, 2) for a in (0, 1) for b in (0, 1)}
        )
        assert marginal(joint, (0,)) == ExactDist(factor)

    def test_query_marginal_of_view_table(self):
        table = ExactDist(
            {
                (None, 0, 0): F(1, 4),
                ("y1", 0, 0): F(1, 8),
                ("y2", 0, 0): F(1, 8),
                ("y1", 0, 1): F(1, 8),
                ("y2", 0, 1): F(1, 8),
                ("y1", 1, 0): F(1, 8),
                ("y2", 1, 0): F(1, 8),
            }
        )
        assert marginal(table, (0,)) == ExactDist(
            {None: F(1, 4), "y1": F(3, 8), "y2": F(3, 8)}
        )

    def test_identity_marginal(self):
        joint = ExactDist({(0, 1): F(1, 2), (1, 0): F(1, 2)})
        assert marginal(joint, (0, 1)) == joint

    def test_bad_coordinates_rejected(self):
        joint = ExactDist({(0, 1): F(1)})
        with pytest.raises(ValueError):
            marginal(joint, (0, 0))

    def test_coordinate_equal_to_the_arity_rejected(self):
        joint = ExactDist({(0, 1): F(1)})
        for measure in (marginal, conditional_entropy):
            with pytest.raises(ValueError, match="^coordinate 2 out of range for arity 2$"):
                measure(joint, (2,))


# --- property tests ---------------------------------------------------------

weights_strategy = st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=6)


def dist_from_counts(counts):
    total = sum(counts)
    return ExactDist({(i,): F(c, total) for i, c in enumerate(counts)})


@given(weights_strategy)
def test_weights_always_sum_to_one(counts):
    d = dist_from_counts(counts)
    assert sum(w for _, w in d.items()) == 1


@given(weights_strategy)
def test_entropy_bounds(counts):
    d = dist_from_counts(counts)
    h = entropy(d)
    assert h >= -TOL
    assert h <= math.log2(len(d)) + TOL


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=4))
def test_conditioning_reduces_entropy(counts):
    total = sum(counts)
    joint = ExactDist(
        {(a, b): F(c, total) for (a, b), c in zip(product((0, 1), repeat=2), counts)}
    )
    assert conditional_entropy(joint, (0,)) <= entropy(marginal(joint, (1,))) + TOL


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=4))
def test_mutual_information_symmetric_nonnegative(counts):
    total = sum(counts)
    joint = ExactDist(
        {(a, b): F(c, total) for (a, b), c in zip(product((0, 1), repeat=2), counts)}
    )
    ab = conditional_mutual_information(joint, (0,), (1,), ())
    ba = conditional_mutual_information(joint, (1,), (0,), ())
    assert ab == pytest.approx(ba, abs=TOL)
    assert ab >= -TOL


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=4),
)
def test_entropy_chain_rule(counts):
    total = sum(counts)
    joint = ExactDist(
        {(a, b): F(c, total) for (a, b), c in zip(product((0, 1), repeat=2), counts)}
    )
    chained = entropy(marginal(joint, (0,))) + conditional_entropy(joint, (0,))
    assert entropy(joint) == pytest.approx(chained, abs=TOL)


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4).filter(sum),
    st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4).filter(sum),
)
def test_marginalization_never_increases_total_variation(c1, c2):
    outcomes = list(product((0, 1), repeat=2))
    d1 = ExactDist({o: F(c, sum(c1)) for o, c in zip(outcomes, c1)})
    d2 = ExactDist({o: F(c, sum(c2)) for o, c in zip(outcomes, c2)})
    full = total_variation(d1, d2)
    for coord in (0, 1):
        assert total_variation(marginal(d1, (coord,)), marginal(d2, (coord,))) <= full


three_dists = st.tuples(
    st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3).filter(sum),
    st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3).filter(sum),
    st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3).filter(sum),
)


@given(three_dists)
def test_total_variation_is_a_metric(triple):
    dists = [
        ExactDist({i: F(c, sum(counts)) for i, c in enumerate(counts)})
        for counts in triple
    ]
    d01 = total_variation(dists[0], dists[1])
    d10 = total_variation(dists[1], dists[0])
    assert d01 == d10
    assert (d01 == 0) == (dists[0] == dists[1])
    assert total_variation(dists[0], dists[2]) <= d01 + total_variation(dists[1], dists[2])


# --- the integer kernels against a plain Fraction reference ------------------
#
# The reference works on dicts of Fractions, in the order the law was written,
# and rounds each probability exactly where the kernels do. Entropies must
# agree bit for bit, and total variation as a rational.


def fraction_law(counts, outcomes):
    """One law, as an ExactDist of integer counts and as a dict of Fractions."""
    total = sum(counts)
    counted = ExactDist(dict(zip(outcomes, counts)), total=total)
    return counted, {o: F(c, total) for o, c in zip(outcomes, counts) if c}


def reference_entropy(weights):
    h = 0.0
    for w in weights.values():
        p = float(w)
        h -= p * math.log2(p)
    return h


def reference_marginal(weights, coords):
    out = {}
    for o, w in weights.items():
        key = tuple(o[c] for c in coords)
        out[key] = out.get(key, F(0)) + w
    return out


def reference_conditional_entropy(weights, cond, arity):
    rest = tuple(c for c in range(arity) if c not in cond)
    groups = {}
    for o, w in weights.items():
        bucket = groups.setdefault(tuple(o[c] for c in cond), {})
        key = tuple(o[c] for c in rest)
        bucket[key] = bucket.get(key, F(0)) + w
    result = 0.0
    for bucket in groups.values():
        p_key = sum(bucket.values(), F(0))
        result += float(p_key) * reference_entropy({k: w / p_key for k, w in bucket.items()})
    return result


cube = list(product((0, 1), repeat=3))
cube_counts = st.lists(st.integers(min_value=0, max_value=9), min_size=8, max_size=8).filter(sum)
splits = st.sampled_from([((0,), (1, 2)), ((1,), (0,)), ((2,), (0, 1)), ((0, 2), (1,)), ((2, 1), (0,))])


@given(weights_strategy)
def test_entropy_equals_fraction_reference(counts):
    d, weights = fraction_law(counts, [(i,) for i in range(len(counts))])
    assert entropy(d) == reference_entropy(weights)


@given(cube_counts, splits)
def test_conditional_entropy_and_mutual_information_equal_fraction_reference(counts, split):
    d, weights = fraction_law(counts, cube)
    a, b = split
    for cond in ((), a, b, a + b):
        assert conditional_entropy(d, cond) == reference_conditional_entropy(weights, cond, 3)

    def h(target, given):
        # H(target | given) over the marginal ordered (given, target), as the audit takes it.
        law = reference_marginal(weights, given + target)
        return reference_conditional_entropy(law, tuple(range(len(given))), len(given + target))

    rest = tuple(i for i in range(3) if i not in a + b)
    for c in ((), rest):
        assert conditional_mutual_information(d, a, b, c) == h(a, c) - h(a, b + c)
    assert marginal(d, a + b).items() == list(reference_marginal(weights, a + b).items())


@given(cube_counts, cube_counts)
def test_total_variation_equals_fraction_sum(c1, c2):
    d1, w1 = fraction_law(c1, cube)
    d2, w2 = fraction_law(c2, cube)
    exact = sum((abs(w1.get(o, 0) - w2.get(o, 0)) for o in cube), F(0)) / 2
    tv = total_variation(d1, d2)
    assert isinstance(tv, F) and tv == exact
    assert total_variation(ExactDist(w1), ExactDist(w2)) == exact


@given(weights_strategy, st.integers(min_value=2, max_value=12))
def test_equal_laws_over_different_totals(counts, k):
    reduced = dist_from_counts(counts)
    scaled = ExactDist({(i,): k * c for i, c in enumerate(counts)}, total=k * sum(counts))
    assert scaled == reduced and hash(scaled) == hash(reduced)
    assert scaled.items() == reduced.items() and repr(scaled) == repr(reduced)
    assert entropy(scaled) == entropy(reduced)


def test_equal_laws_written_over_eighths_and_quarters():
    eighths = ExactDist({"a": 2, "b": 6}, total=8)
    quarters = ExactDist({"a": F(1, 4), "b": F(3, 4)})
    assert eighths == quarters and hash(eighths) == hash(quarters)
    assert eighths.counts[("a",)] == 2 and eighths.total == 8
    assert eighths != ExactDist({"a": 3, "b": 5}, total=8)
    assert eighths != ExactDist({"a": F(1, 4), "c": F(3, 4)})


class TestCountedConstructor:
    def test_counts_must_sum_to_the_total(self):
        with pytest.raises(ValueError, match="sum"):
            ExactDist({0: 1, 1: 2}, total=4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative weight -1/2"):
            ExactDist({0: 3, 1: -1}, total=2)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="support"):
            ExactDist({0: 0}, total=1)

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            ExactDist({(0,): 1, (0, 1): 1}, total=2)


    def test_bulk_checked_table_equals_the_walked_one(self):
        # Tuple keys with positive counts are checked in bulk; a scalar key,
        # a zero count or a negative one sends the table entry by entry.
        bulk = ExactDist({(1,): 1, (0,): 3}, total=4)
        walked = ExactDist({1: 1, (2,): 0, (0,): 3}, total=4)
        assert bulk == walked and list(bulk.counts) == list(walked.counts) == [(1,), (0,)]
        with pytest.raises(ValueError, match=r"^negative weight -1/2 for outcome \(1,\)$"):
            ExactDist({(0,): 3, (1,): -1}, total=2)
