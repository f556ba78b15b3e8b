import itertools

import numpy as np
import pytest

from signalcap import boxes, monogamy
from signalcap.monogamy import (
    SIGN_PATTERNS,
    StrictModeInapplicable,
    TripleInequality,
    generate_inequality_set,
    monogamy_lhs,
    triple_inequality_holds,
    verify_minimal_set,
)


def triple_value(box, ineq):
    """Signed correlator sum of one member inequality on a box."""
    i, j = ineq.setting_pair
    ab, ae, be = boxes.two_body_tables(box)
    s1, s2, s3 = ineq.signs
    return float(s1 * ab[i, j] + s2 * be[i, j] + s3 * ae[i, j])


def summed_family_coefficients(m, a_bits, b_bits, c):
    """Independent closed-form coefficients of the summed constraints.

    sum_i (-1)^{a_i} (x_A^i - y_B^i) + sum_i (-1)^{b_i} (x_B^{i+1} - y_A^i)
    + (-1)^c (y_A^{m-1} + y_B^0) + x_B^1 + x_B^0 >= delta,
    written over the canonical component order.
    """
    names = boxes.component_names(m)
    pos = {n: k for k, n in enumerate(names)}
    coef = np.zeros(4 * m - 2)
    for i in range(1, m):
        s = (-1) ** a_bits[i - 1]
        coef[pos[f"x_A^{i}"]] += s
        coef[pos[f"y_B^{i}"]] -= s
    for i in range(1, m - 1):
        s = (-1) ** b_bits[i - 1]
        coef[pos[f"x_B^{i+1}"]] += s
        coef[pos[f"y_A^{i}"]] -= s
    s = (-1) ** c
    coef[pos[f"y_A^{m-1}"]] += s
    coef[pos["y_B^0"]] += s
    coef[pos["x_B^1"]] += 1
    coef[pos["x_B^0"]] += 1
    return coef


class TestTripleInequality:
    def test_sign_product_enforced(self):
        with pytest.raises(ValueError):
            TripleInequality((0, 0), (1, 1, 1))

    def test_all_deterministic_corners(self):
        for corner in itertools.product((0, 1), repeat=3):
            dist = np.zeros((2, 2, 2))
            dist[corner] = 1.0
            for signs in SIGN_PATTERNS:
                assert triple_inequality_holds(dist, signs)

    def test_uniform_distribution(self):
        assert all(triple_inequality_holds(np.full((2, 2, 2), 1 / 8), s)
                   for s in SIGN_PATTERNS)

    def test_random_distributions(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            dist = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            for signs in SIGN_PATTERNS:
                assert triple_inequality_holds(dist, signs)

    def test_product_plus_one_pattern_is_not_implied(self):
        # the bound needs an odd number of minus signs: (+,+,+) reads 3 <= 1
        # on the perfectly correlated corner
        dist = np.zeros((2, 2, 2))
        dist[0, 0, 0] = 1.0
        assert not triple_inequality_holds(dist, (1, 1, 1))


class TestBellValue:
    def test_pr_times_coin(self):
        assert boxes.chained_bell_value(boxes.pr_times_coin()) == 4.0

    def test_local_deterministic(self):
        assert boxes.chained_bell_value(boxes.local_deterministic(2, [1, 1], [1, 1], 1)) == 2.0

    def test_uniform_any_m(self):
        for m in (2, 3, 4):
            box = boxes.make_box(m, np.full((m, m, 2, 2, 2), 1 / 8))
            assert boxes.chained_bell_value(box) == 0.0

    def test_symmetrization_invariance(self):
        for seed in range(50):
            box = boxes.random_nonsignaling(2, seed)
            assert boxes.chained_bell_value(boxes.symmetrize(box)) == pytest.approx(
                boxes.chained_bell_value(box), abs=1e-12)

    def test_chained_classical_and_algebraic_bounds(self):
        for seed in range(50):
            box = boxes.random_nonsignaling(3, seed)
            assert abs(boxes.chained_bell_value(box)) <= 6.0 + 1e-9


class TestMonogamyLhs:
    def test_pr_times_coin_saturates(self):
        rep = monogamy_lhs(boxes.pr_times_coin())
        assert rep.lhs == 4.0 and not rep.violated and rep.delta == 0.0

    def test_reference_box_maximal(self):
        rep = monogamy_lhs(boxes.reference_box(2.0, 0.469))
        assert rep.lhs == 6.0 and rep.delta == 2.0 and rep.violated

    def test_relaxed_is_keyword_only(self):
        # a positional second argument once meant m; it must not turn on relaxed
        with pytest.raises(TypeError):
            monogamy_lhs(boxes.pr_times_coin(), 2)

    def test_relaxed_equals_strict_for_reference_box(self):
        box = boxes.reference_box(1.2, 0.3)
        assert monogamy_lhs(box, relaxed=True).lhs == pytest.approx(
            monogamy_lhs(box).lhs, abs=1e-12)

    def test_strict_mode_rejects_unequal_conditionals(self):
        ab = np.zeros((2, 2))
        ae = np.zeros((2, 2))
        be = np.zeros((2, 2))
        be[0, 0] = 0.3    # <B_0 E>_{A_0}
        be[1, 0] = -0.3   # <B_0 E>_{A_1}
        box = boxes.from_correlators(2, ab, ae, be)
        with pytest.raises(StrictModeInapplicable):
            monogamy_lhs(box)
        rep = monogamy_lhs(box, relaxed=True)
        assert rep.lhs == 0.0

    def test_bound_scales_with_m(self):
        box = boxes.pr_times_coin(3)
        rep = monogamy_lhs(box)
        assert rep.bound == 6.0 and rep.lhs == 6.0 and not rep.violated


class TestInequalitySets:
    def test_base_summed_constraint_m2(self):
        s = generate_inequality_set(2)
        # x_A^1 - y_A^1 + x_B^0 - y_B^0 + x_B^1 - y_B^1 >= delta
        assert list(s.summed) == [1, -1, 1, -1, 1, -1]

    def test_m2_has_four_distinct_constraints(self):
        rows = monogamy.all_summed_constraints(2)
        assert rows.shape == (4, 6)
        assert len({tuple(r) for r in rows}) == 4

    def test_m3_constraint_family(self):
        rows = monogamy.all_summed_constraints(3)
        assert rows.shape == (16, 10)
        assert len({tuple(r) for r in rows}) == 16
        for row in rows:
            assert set(np.unique(row)) <= {-1.0, 0.0, 1.0}
            assert (row != 0).sum() == 10

    def test_m2_nonzero_counts(self):
        for row in monogamy.all_summed_constraints(2):
            assert (row != 0).sum() == 6

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_member_sum_matches_closed_form(self, m):
        for bits in itertools.product((0, 1), repeat=2 * (m - 1)):
            s = generate_inequality_set(m, bits)
            a_bits, b_bits, c = s.family_bits
            want = summed_family_coefficients(m, a_bits, b_bits, c)
            assert np.array_equal(s.summed, want)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_members_pinned(self, m):
        # the members as first written out term by term: two fixed B_0
        # members, then (i, i) and (i + 1, i) for i = 1..m-1, the last one
        # stored on (0, m - 1) with the A-outcome signs negated
        def member(i, j, swapped):
            if j == 0:
                return TripleInequality((i, i), (1, 1, -1) if swapped else (1, -1, 1))
            s1, s2, s3 = (1, -1, 1) if swapped else (1, 1, -1)
            if i + 1 < m:
                return TripleInequality((i + 1, i), (s1, s2, s3))
            return TripleInequality((0, m - 1), (-s1, s2, -s3))

        sets = monogamy.all_inequality_sets(m)
        assert len(sets) == 4 ** (m - 1)
        for s in sets:
            want = [TripleInequality((0, 0), (1, 1, -1)), TripleInequality((1, 0), (1, 1, -1))]
            want += [member(i, j, s.swaps[2 * (i - 1) + j])
                     for i in range(1, m) for j in (0, 1)]
            assert s.members == tuple(want)

    def test_members_carry_the_bell_terms(self):
        for m in (2, 3, 4):
            terms = boxes.chained_bell_terms(m)
            for s in monogamy.all_inequality_sets(m):
                assert [(t.setting_pair, t.signs[0]) for t in s.members] == list(terms)

    def test_members_have_valid_sign_patterns(self):
        for s in monogamy.all_inequality_sets(3):
            assert len(s.members) == 6
            for member in s.members:
                s1, s2, s3 = member.signs
                assert s1 * s2 * s3 == -1

    def test_member_inequalities_hold_on_random_boxes(self):
        rng = np.random.default_rng(1)
        sets = monogamy.all_inequality_sets(2)
        for _ in range(200):
            box = boxes.random_nonsignaling(2, rng.integers(0, 2**63))
            for s in sets:
                for member in s.members:
                    assert triple_value(box, member) <= 1.0 + 1e-9

    def test_summed_constraints_hold_on_violating_boxes(self):
        # boxes with lhs = 4 + delta must satisfy every summed constraint
        rng = np.random.default_rng(2)
        rows = monogamy.all_summed_constraints(2)
        for _ in range(100):
            delta = rng.uniform(0, 2)
            x = rng.uniform(0, 1)
            box = boxes.reference_box(delta, x)
            c = boxes.correlator_vector(box).as_array()
            assert (rows @ c >= delta - 1e-9).all()

    def test_nonsignaling_member_sums_reproduce_lhs(self):
        # on nonsignaling boxes the base set's members collapse to
        # I + 2<B_0 E> (the signaling pairs cancel); the swapped variants sum
        # to different expressions but every one stays below the bound
        rng = np.random.default_rng(3)
        sets = monogamy.all_inequality_sets(2)
        base = monogamy.generate_inequality_set(2)
        for _ in range(200):
            box = boxes.random_nonsignaling(2, rng.integers(0, 2**63))
            rep = monogamy_lhs(box)
            assert rep.lhs <= 4.0 + 1e-9
            _, _, be = boxes.two_body_tables(box)
            signed_lhs = boxes.chained_bell_value(box) + 2.0 * be[:, 0].mean()
            total = sum(triple_value(box, member) for member in base.members)
            assert total == pytest.approx(signed_lhs, abs=1e-9)
            for s in sets:
                total = sum(triple_value(box, member) for member in s.members)
                assert total <= 4.0 + 1e-9


class TestMinimalSet:
    def test_unique_at_size_2m(self):
        assert verify_minimal_set(2) == 1
        assert verify_minimal_set(3) == 1

    def test_empty_below_2m(self):
        assert verify_minimal_set(2, 3) == 0
        assert verify_minimal_set(3, 5) == 0

    def test_m4(self):
        assert verify_minimal_set(4) == 1

    @pytest.mark.parametrize("m, sizes, counts", [
        (2, 9, {4: 1, 8: 21}),
        (3, 9, {6: 1}),
        (4, 10, {8: 1}),
    ])
    def test_count_table(self, m, sizes, counts):
        # multisets count tuples of sign patterns per setting pair, not
        # orderings: at m = 2 the 21 sets of size 8 pin that
        assert [verify_minimal_set(m, s) for s in range(sizes)] == \
            [counts.get(s, 0) for s in range(sizes)]

    def test_bad_m(self):
        with pytest.raises(ValueError):
            verify_minimal_set(5)
