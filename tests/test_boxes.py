import numpy as np
import pytest

from signalcap import boxes
from signalcap.boxes import (
    BellScenario,
    BoxFormatError,
    NegativeProbability,
    NotNormalized,
    SignFlipRecord,
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

    def test_scenario_needs_two_settings(self):
        with pytest.raises(ValueError):
            BellScenario(1)


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


class TestCanonicalizeSigns:
    def test_flips_negative_bell_value(self):
        flipped = boxes.apply_sign_flips(boxes.pr_times_coin(), SignFlipRecord((0, 1), False))
        assert boxes.chained_bell_value(flipped) == -4.0
        canon, record = boxes.canonicalize_signs(flipped)
        assert boxes.chained_bell_value(canon) == 4.0
        assert record.flip_a == (0, 1)

    def test_identity_on_canonical_box(self):
        canon, record = boxes.canonicalize_signs(boxes.reference_box(1.0, 0.2))
        assert record.is_identity
        assert np.array_equal(canon.table, boxes.reference_box(1.0, 0.2).table)

    def test_record_undoes_the_flip(self):
        box = boxes.random_nonsignaling(2, 3)
        flipped = boxes.apply_sign_flips(box, SignFlipRecord((1,), True))
        canon, record = boxes.canonicalize_signs(flipped)
        back = boxes.apply_sign_flips(canon, record)
        assert np.allclose(back.table, flipped.table, atol=1e-15)

    def test_monogamy_functional_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            box = boxes.random_nonsignaling(2, rng.integers(0, 2**63))
            flipped = boxes.apply_sign_flips(
                box, SignFlipRecord(tuple(np.nonzero(rng.integers(0, 2, 2))[0]),
                                    bool(rng.integers(0, 2))))
            before = monogamy.monogamy_lhs(flipped).lhs
            canon, _ = boxes.canonicalize_signs(flipped)
            assert monogamy.monogamy_lhs(canon).lhs == pytest.approx(before, abs=1e-12)


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

    def test_random_nonsignaling_respects_monogamy(self):
        for seed in range(200):
            rep = monogamy.monogamy_lhs(boxes.random_nonsignaling(2, seed))
            assert rep.lhs <= 4.0 + 1e-9

    def test_pr_times_coin_chained_m3(self):
        box = boxes.pr_times_coin(3)
        assert boxes.chained_bell_value(box) == 6.0
        assert boxes.check_no_signaling(box, 1e-12).is_nonsignaling


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
        back = boxes.CorrelatorVector.from_array(3, vec.as_array())
        assert np.allclose(back.as_array(), vec.as_array())
        # the component definitions, read straight off the two-body tables
        _, ae, be = boxes.two_body_tables(box)
        assert vec.names == ["x_A^1", "y_A^1", "x_A^2", "y_A^2",
                             "x_B^0", "y_B^0", "x_B^1", "y_B^1", "x_B^2", "y_B^2"]
        assert vec.as_array().tolist() == [
            be[1, 1], be[2, 1], be[2, 2], be[0, 2],    # <B_i E>_{A_i}, <B_i E>_{A_i+1}
            ae[0, 0], ae[0, 2],                        # <A_0 E>_{B_0}, <A_0 E>_{B_2}
            ae[1, 0], ae[1, 1], ae[2, 1], ae[2, 2]]    # <A_i E>_{B_i-1}, <A_i E>_{B_i}

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
                     lambda: boxes.CorrelatorVector.from_array(3, np.zeros(12), relaxed=True)):
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
