import itertools

import numpy as np
import pytest

from signalcap import boxes
from signalcap.boxes import (
    BoxError,
    BoxFormatError,
    NegativeProbability,
    NotNormalized,
)
from signalcap import channels, geometry, monogamy


def uniform_box(m=2):
    return boxes.make_box(m, np.full((m, m, 2, 2, 2), 1 / 8))


def all_plus_box(m=2):
    return boxes.local_deterministic(m, [1] * m, [1] * m, 1)


class TestMakeBox:
    def test_uniform_is_valid_with_zero_correlators(self):
        box = uniform_box()
        ab, ae, be = boxes.two_body_tables(box)
        assert np.allclose(ab, 0) and np.allclose(ae, 0) and np.allclose(be, 0)

    def test_negative_entry_rejected(self):
        t = np.full((2, 2, 2, 2, 2), 1 / 8)
        t[0, 0, 0, 0, 0] = -0.01
        t[0, 0, 1, 1, 1] = 1 / 8 + 0.01
        with pytest.raises(NegativeProbability) as err:
            boxes.make_box(2, t)
        assert err.value.index == (0, 0, 0, 0, 0)

    def test_deterministic_corner_is_valid(self):
        t = np.zeros((2, 2, 2, 2, 2))
        t[:, :, 0, 0, 0] = 1.0
        box = boxes.make_box(2, t)
        assert boxes.correlator(box, "AE", (0, 0), 0) == 1.0

    def test_unnormalized_rejected(self):
        t = np.full((2, 2, 2, 2, 2), 1 / 8)
        t[1, 0] *= 1.1
        with pytest.raises(NotNormalized) as err:
            boxes.make_box(2, t)
        assert (err.value.i, err.value.j) == (1, 0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(BoxFormatError):
            boxes.make_box(2, np.full((2, 2, 2, 2), 1 / 4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value):
        # every comparison with nan is false, so neither the sign nor the
        # normalization test would catch it
        t = np.full((2, 2, 2, 2, 2), 1 / 8)
        t[0, 1, 1, 0, 1] = value
        with pytest.raises(BoxError, match=r"table entry \(0, 1, 1, 0, 1\) is .*not a finite"):
            boxes.make_box(2, t)

    def test_scenario_needs_two_settings(self):
        with pytest.raises(ValueError, match=r"^need an integer number of settings m >= 2, got 1$"):
            boxes.make_box(1, np.full((1, 1, 2, 2, 2), 1 / 8))

    def test_non_integral_settings_count_rejected(self):
        # int(2.9) would truncate to 2 and pass the m >= 2 test
        with pytest.raises(ValueError, match=r"^need an integer number of settings m >= 2, got 2\.9$"):
            boxes.make_box(2.9, np.full((2, 2, 2, 2, 2), 1 / 8))

    @pytest.mark.parametrize("m", [2, np.int64(3)])
    def test_integral_settings_count_accepted(self, m):
        box = boxes.make_box(m, np.full((m, m, 2, 2, 2), 1 / 8))
        assert box.m == m and type(box.m) is int


class TestCorrelator:
    def test_uniform_box_all_zero(self):
        box = uniform_box()
        for pair, sp, cond in [("AB", (0, 1), 0), ("AE", (1, 0), 1), ("BE", (0, 0), 1)]:
            assert boxes.correlator(box, pair, sp, cond) == 0.0

    def test_deterministic_all_plus(self):
        box = all_plus_box()
        assert boxes.correlator(box, "AE", (0, 0), 0) == 1.0
        assert boxes.correlator(box, "AB", (1, 1), 0) == 1.0

    def test_reference_box_ae_values(self):
        box = boxes.reference_box(2.0, 0.469)
        assert boxes.correlator(box, "AE", (0, 0), 0) == pytest.approx(1.0, abs=1e-12)
        assert boxes.correlator(box, "AE", (0, 0), 1) == pytest.approx(0.469, abs=1e-12)

    def test_out_of_range_setting(self):
        with pytest.raises(IndexError):
            boxes.correlator(uniform_box(), "AE", (0, 0), 2)

    @pytest.mark.parametrize("m", [2, 3])
    def test_reads_two_body_tables(self, m):
        # ab[i, j] = <A_i B_j>, ae[i, j] = <A_i E>_{B_j}, be[i, j] = <B_j E>_{A_i}
        for seed in range(5):
            box = boxes.random_nonsignaling(m, seed)
            ab, ae, be = boxes.two_body_tables(box)
            for i, j in itertools.product(range(m), repeat=2):
                assert boxes.correlator(box, "AB", (i, j)) == ab[i, j]
                assert boxes.correlator(box, "AE", (i, 0), j) == ae[i, j]
                assert boxes.correlator(box, "BE", (j, 0), i) == be[i, j]

    @pytest.mark.parametrize("pair,sp,cond,msg", [
        ("AB", (0, 1), 1, "conditioning must be 0"),
        ("AE", (0, 1), 0, "E has a single setting"),
        ("BE", (1, 1), 0, "E has a single setting"),
        ("AE", (0, 0), 3, "B setting 3 out of range"),
        ("BE", (0, 0), 3, "A setting 3 out of range"),
        ("AE", (0, 0), -1, "B setting -1 out of range"),
        ("BE", (2, 0), -1, "A setting -1 out of range"),
        # a negative setting once read the last one through numpy's indexing
        ("AB", (-1, 0), 0, "A setting -1 out of range"),
        ("AB", (3, 0), 0, "A setting 3 out of range"),
        ("AB", (0, -1), 0, "B setting -1 out of range"),
        ("AB", (0, 3), 0, "B setting 3 out of range"),
        ("AE", (-1, 0), 0, "A setting -1 out of range"),
        ("BE", (3, 0), 0, "B setting 3 out of range"),
    ])
    def test_bad_settings_raise_index_error(self, pair, sp, cond, msg):
        with pytest.raises(IndexError, match=msg):
            boxes.correlator(boxes.random_nonsignaling(3, 0), pair, sp, cond)

    def test_unknown_pair(self):
        with pytest.raises(ValueError, match="unknown pair 'AA'"):
            boxes.correlator(uniform_box(), "AA", (0, 0))


class TestNoSignaling:
    def test_product_deterministic_box(self):
        rep = boxes.check_no_signaling(all_plus_box())
        assert rep.is_nonsignaling and rep.worst_violation == 0.0

    @pytest.mark.parametrize("delta,x", [(1.0, 0.0), (1.0, 0.3), (0.5, 0.5)])
    def test_reference_box_signals(self, delta, x):
        rep = boxes.check_no_signaling(boxes.reference_box(delta, x))
        assert not rep.is_nonsignaling
        assert rep.offenders

    def test_pr_times_coin_is_nonsignaling(self):
        rep = boxes.check_no_signaling(boxes.pr_times_coin(), tol=1e-12)
        assert rep.is_nonsignaling

    def test_random_mixtures_are_nonsignaling(self):
        for seed in range(50):
            rep = boxes.check_no_signaling(boxes.random_nonsignaling(2, seed), tol=1e-12)
            assert rep.is_nonsignaling


class TestSymmetrize:
    def test_deterministic_box_keeps_two_body_kills_singles(self):
        sym = boxes.symmetrize(all_plus_box())
        ab, ae, be = boxes.two_body_tables(sym)
        assert np.allclose(ab, 1) and np.allclose(ae, 1) and np.allclose(be, 1)
        for arr in boxes.one_body_tables(sym):
            assert np.abs(arr).max() < 1e-12
        assert np.abs(boxes.three_body_table(sym)).max() < 1e-12

    def test_idempotent(self):
        box = boxes.random_nonsignaling(2, 11)
        once = boxes.symmetrize(box)
        twice = boxes.symmetrize(once)
        assert np.array_equal(once.table, twice.table)

    def test_preserves_monogamy_value_on_random_boxes(self):
        for seed in range(100):
            box = boxes.random_nonsignaling(2, seed)
            before = monogamy.monogamy_lhs(box).lhs
            after = monogamy.monogamy_lhs(boxes.symmetrize(box)).lhs
            assert after == pytest.approx(before, abs=1e-12)

    def test_preserves_all_two_body_correlators(self):
        box = boxes.reference_box(1.3, 0.2)
        for orig, sym in zip(boxes.two_body_tables(box),
                             boxes.two_body_tables(boxes.symmetrize(box))):
            assert np.allclose(orig, sym, atol=1e-15)


class TestFromCorrelators:
    def test_zero_correlators_give_uniform(self):
        z = np.zeros((2, 2))
        box = boxes.from_correlators(2, z, z, z)
        assert np.allclose(box.table, 1 / 8)

    def test_anticorrelated_pair_forces_be_sign(self):
        # perfect AB anticorrelation forces <B_1 E> = -<A_1 E>; demanding the
        # same sign drives an entry of the expansion to -|2x|/8
        ab = np.zeros((2, 2))
        ae = np.zeros((2, 2))
        be = np.zeros((2, 2))
        ab[1, 1] = -1.0
        ae[1, 1] = 0.4
        be[1, 1] = 0.4
        with pytest.raises(NegativeProbability):
            boxes.from_correlators(2, ab, ae, be)

    def test_nan_correlator_rejected(self):
        # the range check names the table, before make_box sees a nan entry
        ab = np.zeros((2, 2))
        ab[1, 0] = np.nan
        z = np.zeros((2, 2))
        with pytest.raises(ValueError, match=r"^ab components must lie in \[-1, 1\]$"):
            boxes.from_correlators(2, ab, z, z)

    def test_roundtrip_on_reference_box(self):
        box = boxes.reference_box(1.2, 0.25)
        rebuilt = boxes.from_correlators(2, *boxes.two_body_tables(box))
        assert np.allclose(rebuilt.table, box.table, atol=1e-14)

    def test_roundtrip_on_symmetrized_random_boxes(self):
        for seed in range(20):
            box = boxes.symmetrize(boxes.random_nonsignaling(2, seed))
            rebuilt = boxes.from_correlators(2, *boxes.two_body_tables(box))
            assert np.allclose(rebuilt.table, box.table, atol=1e-12)


class TestCanonicalBoxes:
    def test_pr_times_coin_saturates_monogamy(self):
        box = boxes.pr_times_coin()
        assert boxes.chained_bell_value(box) == 4.0
        _, _, be = boxes.two_body_tables(box)
        assert be[0, 0] == 0.0
        assert monogamy.monogamy_lhs(box).lhs == 4.0

    def test_local_deterministic_all_plus(self):
        box = all_plus_box()
        assert boxes.chained_bell_value(box) == 2.0
        _, _, be = boxes.two_body_tables(box)
        assert be[0, 0] == 1.0
        assert monogamy.monogamy_lhs(box).lhs == 4.0

    @pytest.mark.parametrize("m", [2, 3])
    def test_local_deterministic_every_sign_choice(self, m):
        for signs in itertools.product((1, -1), repeat=2 * m + 1):
            a_signs, b_signs, e_sign = signs[:m], signs[m:2 * m], signs[-1]
            want = np.zeros((m, m, 2, 2, 2))
            for i in range(m):
                for j in range(m):
                    want[i, j, (1 - a_signs[i]) // 2, (1 - b_signs[j]) // 2,
                         (1 - e_sign) // 2] = 1.0
            box = boxes.local_deterministic(m, a_signs, b_signs, e_sign)
            assert box.table.tobytes() == want.tobytes(), signs

    @pytest.mark.parametrize("m", [0, 1])
    def test_local_deterministic_needs_two_settings(self, m):
        with pytest.raises(ValueError, match=f"need an integer number of settings m >= 2, got {m}"):
            boxes.local_deterministic(m, [1] * m, [1] * m, 1)

    def test_random_nonsignaling_respects_monogamy(self):
        for seed in range(200):
            rep = monogamy.monogamy_lhs(boxes.random_nonsignaling(2, seed))
            assert rep.lhs <= 4.0 + 1e-9

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_nonsignaling_matches_strategy_loop(self, m):
        # reference: add each deterministic strategy's weight cell by cell,
        # strategies in (A signs, B signs, E sign) lexicographic order
        strategies = list(itertools.product(itertools.product((0, 1), repeat=m),
                                            itertools.product((0, 1), repeat=m), (0, 1)))
        for seed in range(100):
            weights = np.random.default_rng(seed).dirichlet(np.full(len(strategies), 0.2))
            t = np.zeros((m, m, 2, 2, 2))
            for w, (a, b, e) in zip(weights, strategies):
                for i in range(m):
                    for j in range(m):
                        t[i, j, a[i], b[j], e] += w
            assert boxes.random_nonsignaling(m, seed).table.tobytes() == t.tobytes()

    def test_pr_times_coin_chained_m3(self):
        box = boxes.pr_times_coin(3)
        assert boxes.chained_bell_value(box) == 6.0
        assert boxes.check_no_signaling(box, 1e-12).is_nonsignaling


class TestChainedBellTerms:
    def test_m2_is_chsh(self):
        assert boxes.chained_bell_terms(2) == (((0, 0), 1), ((1, 0), 1),
                                               ((1, 1), 1), ((0, 1), -1))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_chain_closes_with_one_minus_sign(self, m):
        # A_0 B_0, A_1 B_0, A_1 B_1, ..., A_m B_{m-1} with A_m = -A_0
        pairs = [p for k in range(m) for p in ((k, k), ((k + 1) % m, k))]
        terms = boxes.chained_bell_terms(m)
        assert [pair for pair, _ in terms] == pairs
        assert [sign for _, sign in terms] == [1] * (2 * m - 1) + [-1]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_value_bit_for_bit(self, m):
        # the chain as first summed by hand, term by term with A_m = -A_0
        for seed in range(20):
            box = boxes.random_nonsignaling(m, seed)
            ab, _, _ = boxes.two_body_tables(box)
            total = 0.0
            for k in range(m):
                total += ab[k, k]
                if k + 1 < m:
                    total += ab[k + 1, k]
                else:
                    total -= ab[0, k]
            assert boxes.chained_bell_value(box) == float(total)


class TestReferenceBox:
    def test_delta_zero_is_nonsignaling_and_saturating(self):
        box = boxes.reference_box(0.0, 0.0)
        assert boxes.check_no_signaling(box, 1e-12).is_nonsignaling
        assert monogamy.monogamy_lhs(box).lhs == 4.0

    @pytest.mark.parametrize("delta", [0.5, 1.0, 1.7, 2.0])
    def test_monogamy_lhs_is_four_plus_delta(self, delta):
        rep = monogamy.monogamy_lhs(boxes.reference_box(delta, 0.2))
        assert rep.lhs == pytest.approx(4.0 + delta, abs=1e-12)

    def test_singles_and_triples_vanish(self):
        box = boxes.reference_box(1.5, 0.3)
        for arr in boxes.one_body_tables(box):
            assert np.abs(arr).max() == 0.0
        assert np.abs(boxes.three_body_table(box)).max() == 0.0

    def test_table_bit_for_bit(self):
        # the table as built with the PR signs written out by hand
        ab = np.array([[1.0, -1.0], [1.0, 1.0]])
        ae = np.array([[1.0, 0.469], [1.0, 0.469]])
        want = boxes.from_correlators(2, ab, ae, ab * ae).table
        assert boxes.reference_box(2.0, 0.469).table.tobytes() == want.tobytes()

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ValueError):
            boxes.reference_box(2.5, 0.0)
        with pytest.raises((NegativeProbability, ValueError)):
            boxes.reference_box(1.0, 1.2)


class TestCorrelatorVector:
    def test_m2_component_order(self):
        box = boxes.reference_box(2.0, 0.3)
        vec = boxes.correlator_vector(box)
        assert vec.names == ["x_A^1", "y_A^1", "x_B^0", "y_B^0", "x_B^1", "y_B^1"]
        arr = vec.as_array()
        assert arr == pytest.approx([0.3, -0.3, 1.0, 0.3, 1.0, 0.3], abs=1e-12)

    def test_relaxed_pair(self):
        vec = boxes.correlator_vector(boxes.reference_box(1.0, 0.1), relaxed=True)
        arr = vec.as_array()
        assert len(arr) == 8
        assert arr[6] == pytest.approx(0.5, abs=1e-12)   # <B_0 E>_{A_0}
        assert arr[7] == pytest.approx(0.5, abs=1e-12)   # <B_0 E>_{A_1}

    def test_from_array_roundtrip(self):
        box = boxes.random_nonsignaling(3, 9)
        vec = boxes.correlator_vector(box)
        back = boxes.CorrelatorVector(3, vec.as_array())
        assert np.allclose(back.as_array(), vec.as_array())
        # the component definitions, read straight off the two-body tables
        _, ae, be = boxes.two_body_tables(box)
        assert vec.names == ["x_A^1", "y_A^1", "x_A^2", "y_A^2",
                             "x_B^0", "y_B^0", "x_B^1", "y_B^1", "x_B^2", "y_B^2"]
        assert vec.as_array().tolist() == [
            be[1, 1], be[2, 1], be[2, 2], be[0, 2],    # <B_i E>_{A_i}, <B_i E>_{A_i+1}
            ae[0, 0], ae[0, 2],                        # <A_0 E>_{B_0}, <A_0 E>_{B_2}
            ae[1, 0], ae[1, 1], ae[2, 1], ae[2, 2]]    # <A_i E>_{B_i-1}, <A_i E>_{B_i}

    def test_nan_component_rejected(self):
        # every comparison with nan is false, so a "> 1" test let it through
        with pytest.raises(ValueError, match=r"correlator components must lie in \[-1, 1\]"):
            boxes.CorrelatorVector(2, [np.nan] * 6)

    def test_as_array_is_a_copy(self):
        vec = boxes.correlator_vector(boxes.reference_box(2.0, 0.3))
        arr = vec.as_array()
        arr[:] = 0.0
        assert vec.as_array()[0] == pytest.approx(0.3, abs=1e-12)
        with pytest.raises(ValueError):
            vec.values[0] = 0.0

    def test_family_index_pairs_follow_layout(self):
        assert channels.family_index_pairs(2) == [
            ("S^0_{B->AE}", 2, 3), ("S^1_{B->AE}", 4, 5), ("S^1_{A->BE}", 0, 1)]
        assert channels.family_index_pairs(3) == [
            ("S^0_{B->AE}", 4, 5), ("S^1_{B->AE}", 6, 7), ("S^2_{B->AE}", 8, 9),
            ("S^1_{A->BE}", 0, 1), ("S^2_{A->BE}", 2, 3)]
        assert channels.family_index_pairs(2, relaxed=True) == [
            ("S^0_{B->AE}", 2, 3), ("S^1_{B->AE}", 4, 5), ("S^1_{A->BE}", 0, 1),
            ("S^0_{A->BE}", 6, 7)]
        # twelve-correlator box coordinates AB00..AB11 AE00..AE11 BE00..BE11
        assert geometry.PHI_INDICES == (11, 9, 4, 5, 6, 7)

    def test_relaxed_needs_m2_everywhere(self):
        msg = "relaxed mode is defined for m = 2 only"
        box = boxes.random_nonsignaling(3, 9)
        for call in (lambda: geometry.build_q_delta(3, 1.0, relaxed=True),
                     lambda: channels.family_index_pairs(3, relaxed=True),
                     lambda: boxes.correlator_vector(box, relaxed=True),
                     lambda: monogamy.monogamy_lhs(box, relaxed=True),
                     lambda: boxes.CorrelatorVector(3, np.zeros(12), relaxed=True)):
            with pytest.raises(ValueError, match=msg):
                call()

    @pytest.mark.parametrize("m", [1, 0, -1])
    def test_layout_needs_m2_or_more(self, m):
        # m = 0 once read y_B^0 off ae[0, -1]; m = 1 gave a two-entry layout
        for relaxed in (False, True):
            with pytest.raises(ValueError, match=rf"need m >= 2, got {m}$"):
                boxes.correlator_layout(m, relaxed)


class TestJsonFormat:
    def test_roundtrip(self, tmp_path):
        box = boxes.reference_box(2.0, 0.469)
        path = tmp_path / "box.json"
        boxes.save_box(box, path)
        loaded = boxes.load_box(path)
        assert np.array_equal(loaded.table, box.table)

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2, "table": [[[')
        with pytest.raises(BoxFormatError):
            boxes.load_box(path)

    def test_wrong_shape_names_path(self, tmp_path):
        doc = boxes.box_to_json_dict(boxes.pr_times_coin())
        doc["table"][0][1][0] = [0.5]   # should have two entries
        path = tmp_path / "shape.json"
        import json
        path.write_text(json.dumps(doc))
        with pytest.raises(BoxFormatError) as err:
            boxes.load_box(path)
        assert "table[0][1][0]" in str(err.value)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "nokey.json"
        path.write_text('{"m": 2}')
        with pytest.raises(BoxFormatError):
            boxes.load_box(path)

    def test_boolean_entry_rejected(self):
        # bool is a subclass of int, so true/false used to read as 1/0
        doc = boxes.box_to_json_dict(boxes.pr_times_coin())
        doc["table"][1][1][0][0][0] = False
        with pytest.raises(BoxFormatError, match=r"table\[1\]\[1\]\[0\]\[0\]\[0\]: "
                                                 "expected a number, got bool"):
            boxes.box_from_json_dict(doc)
