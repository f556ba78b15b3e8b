import re

import numpy as np
import pytest

from signalcap import boxes, channels
from signalcap.channels import BinaryChannel, binary_entropy, capacity


class TestBinaryEntropy:
    def test_fair_coin(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_two_thirds(self):
        # log2(3) - 2/3 = 0.9182958340544896
        assert binary_entropy(2 / 3) == pytest.approx(0.9183, abs=1e-4)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestCapacity:
    def test_identical_rows_useless(self):
        assert capacity(BinaryChannel(0.3, 0.3)) == 0.0

    def test_noiseless(self):
        assert capacity(BinaryChannel(1.0, 0.0)) == 1.0

    def test_half_noisy_arm(self):
        # log2(5) - 2 = 0.3219281
        assert capacity(BinaryChannel(1.0, 0.5)) == pytest.approx(0.322, abs=1e-3)

    def test_symmetric_channel_reduces_to_one_minus_entropy(self):
        assert capacity(BinaryChannel(0.75, 0.25)) == pytest.approx(
            1.0 - binary_entropy(0.75), abs=1e-12)
        assert capacity(BinaryChannel(0.75, 0.25)) == pytest.approx(0.1887, abs=1e-4)

    def test_range_and_symmetries(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p, q = rng.uniform(0, 1, 2)
            c = capacity(BinaryChannel(p, q))
            assert 0.0 <= c <= 1.0
            assert capacity(BinaryChannel(q, p)) == pytest.approx(c, abs=1e-12)
            assert capacity(BinaryChannel(1 - p, 1 - q)) == pytest.approx(c, abs=1e-12)

    def test_zero_iff_equal_rows(self):
        assert capacity(BinaryChannel(0.4, 0.4 + 5e-13)) == 0.0
        assert capacity(BinaryChannel(0.4, 0.4 + 1e-9)) > 0.0

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_continuity_at_diagonal(self, p):
        assert capacity(BinaryChannel(p, p + 1e-6)) < 1e-10

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p1, p2, q = rng.uniform(0, 1, 3)
            mid = channels._capacity_pq(0.5 * (p1 + p2), q)
            avg = 0.5 * (channels._capacity_pq(p1, q) + channels._capacity_pq(p2, q))
            assert mid <= avg + 1e-12
            mid = channels._capacity_pq(q, 0.5 * (p1 + p2))
            avg = 0.5 * (channels._capacity_pq(q, p1) + channels._capacity_pq(q, p2))
            assert mid <= avg + 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, 200)
        q = rng.uniform(0, 1, 200)
        vec = channels.capacity_array(p, q)
        for k in range(200):
            assert vec[k] == pytest.approx(channels._capacity_pq(p[k], q[k]), abs=1e-12)


def two_pass_capacity_array(p, q):
    """capacity_array as it was before it took both entropies in one pass:
    each entropy from its own array, q - p and its mask formed twice, the
    result clipped by np.clip."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        hp = -p * np.log2(np.where(p > 0, p, 1.0)) \
             - (1 - p) * np.log2(np.where(p < 1, 1 - p, 1.0))
        hq = -q * np.log2(np.where(q > 0, q, 1.0)) \
             - (1 - q) * np.log2(np.where(q < 1, 1 - q, 1.0))
        d = np.where(np.abs(q - p) < channels.EPS_CAP, 1.0, q - p)
        val = (p * hq - q * hp) / d + np.log2(1.0 + np.exp2((hp - hq) / d))
    val = np.where(np.abs(q - p) < channels.EPS_CAP, 0.0, val)
    return np.clip(val, 0.0, 1.0)


def assert_same_bytes(p, q):
    new, old = channels.capacity_array(p, q), two_pass_capacity_array(p, q)
    assert type(new) is type(old)
    assert np.shape(new) == np.shape(old)
    assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


class TestCapacityArrayOnePass:
    # the probabilities the edge cases sit at: the ends, the middle, a
    # subnormal and the smallest normal, and values an ulp inside [0, 1]
    EDGES = [0.0, -0.0, 1.0, 0.5, 0.3, 5e-324, 2.2250738585072014e-308, 1e-300,
             np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0) * 7]

    def test_ends_and_subnormals(self):
        u = np.array(self.EDGES)
        assert_same_bytes(u[:, None], u[None, :])

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0 - 1e-9, 1.0])
    def test_gaps_around_eps_cap(self, p):
        eps = channels.EPS_CAP
        gaps = np.array([0.0, 0.5 * eps, np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0),
                         2 * eps, 1e-9])
        q = np.clip(np.concatenate([p + gaps, p - gaps]), 0.0, 1.0)
        assert_same_bytes(np.full(q.shape, p), q)
        assert_same_bytes(q, p)

    def test_zero_d_arrays_and_python_scalars(self):
        for p, q in [(0.3, 0.7), (0.0, 1.0), (0.5, 0.5), (1.0, 1.0 - 1e-13), (5e-324, 1.0)]:
            assert_same_bytes(p, q)
            assert_same_bytes(np.array(p), np.array(q))
            assert_same_bytes(np.array(p), q)

    @pytest.mark.parametrize("shape_p, shape_q", [((3, 5, 1), (3, 1, 5)),
                                                  ((2, 3, 5, 1), (2, 3, 1, 5)),
                                                  ((41, 1), (1, 41))])
    def test_broadcast_shapes(self, shape_p, shape_q):
        # the refine's channel tables, a stack of two of them, the scan's
        # lattice at step 0.05; uniform draws, then a quarter of the entries
        # snapped to 0 or 1
        rng = np.random.default_rng(28)
        for _ in range(20):
            p, q = rng.uniform(0, 1, shape_p), rng.uniform(0, 1, shape_q)
            for u in (p, q):
                snap = rng.uniform(0, 1, u.shape) < 0.25
                u[snap] = np.round(u[snap])
            assert_same_bytes(p, q)

    def test_entries_do_not_depend_on_the_stack(self):
        # a stack's tables read the bits each table reads alone
        rng = np.random.default_rng(29)
        p, q = rng.uniform(0, 1, (4, 3, 5, 1)), rng.uniform(0, 1, (4, 3, 1, 5))
        stacked = channels.capacity_array(p, q)
        for s in range(4):
            assert stacked[s].tobytes() == channels.capacity_array(p[s], q[s]).tobytes()


def array_capacity_oracle(p, q, iters=200, tol=1e-8):
    """The one-channel oracle as it read before it had its own body."""
    return float(channels.capacity_oracle_array(p, q, iters, tol))


def oracle_outcome(f, p, q, iters=200, tol=1e-8):
    """A one-channel oracle's value, or its NoConvergence's iters and best,
    with every float as .hex()."""
    try:
        value = f(p, q, iters, tol)
    except channels.NoConvergence as err:
        return ("NoConvergence", err.iters, type(err.best), err.best.shape,
                float(err.best).hex(), str(err))
    return type(value), value.hex()


def one_channel_oracle(p, q, iters=200, tol=1e-8):
    return channels.capacity_oracle(BinaryChannel(p, q), iters, tol)


# p or q at 0, 1, the smallest normal and subnormal sizes and an ulp below 1
ORACLE_EDGES = [0.0, 1.0, 1e-300, 5e-324, 1.0 - 1e-16]


class TestCapacityOracle:
    def test_noiseless(self):
        assert channels.capacity_oracle(BinaryChannel(1.0, 0.0)) == pytest.approx(1.0, abs=1e-6)

    def test_useless(self):
        assert channels.capacity_oracle(BinaryChannel(0.5, 0.5)) == pytest.approx(0.0, abs=1e-6)

    def test_matches_closed_form_on_random_channels(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(1000):
            p, q = rng.uniform(0, 1, 2)
            ch = BinaryChannel(p, q)
            worst = max(worst, abs(capacity(ch) - channels.capacity_oracle(ch)))
        assert worst <= 1e-6

    def test_raises_when_budget_too_small(self):
        with pytest.raises(channels.NoConvergence):
            channels.capacity_oracle(BinaryChannel(0.07356, 0.07033), iters=10, tol=1e-12)

    def test_array_within_tol_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def exact(p, q):
            """The closed form at 50 digits, from the binary values of p, q."""
            with mpmath.workdps(50):
                p, q = mpmath.mpf(p), mpmath.mpf(q)
                if p == q:
                    return mpmath.mpf(0)

                def h(u):
                    return 0 if u in (0, 1) else -u * mpmath.log(u, 2) - (1 - u) * mpmath.log(1 - u, 2)

                s = (h(p) - h(q)) / (q - p)
                return ((p * h(q) - q * h(p)) / (q - p)
                        + mpmath.log1p(mpmath.power(2, s)) / mpmath.log(2))

        rng = np.random.default_rng(15)
        # 20 gaps in each decade of 10^-12 .. 1, at random positions
        gaps = 10.0 ** (np.repeat(np.arange(-12, 0), 20) + rng.uniform(0, 1, 240))
        p = rng.uniform(0, 1, 240) * (1.0 - gaps)
        edges = [0.0, 1.0, 1e-300, 1.0 - 1e-16]
        pairs = (list(zip(p, p + gaps)) + list(zip(p + gaps, p))
                 + [(a, b) for a in edges for b in edges]
                 + [(0.3, 0.3), (0.5, 0.5)]
                 # the closed form is 6.1e-5 bits off here
                 + [(0.5965687718105056, 0.5965687718116824)])
        tol = 1e-8
        got = channels.capacity_oracle_array(*np.array(pairs).T, tol=tol)
        for (a, b), c in zip(pairs, got):
            assert abs(c - exact(a, b)) <= tol, (a, b)

    def test_array_equals_single_channel_calls(self):
        p, q = np.random.default_rng(16).uniform(0, 1, (2, 1000))
        batch = channels.capacity_oracle_array(p, q)
        assert batch.shape == (1000,)
        for k in range(1000):
            assert batch[k] == channels.capacity_oracle(BinaryChannel(p[k], q[k])), k

    @pytest.mark.parametrize("p, q", (
        [(a, b) for a in ORACLE_EDGES for b in ORACLE_EDGES]
        + [(x, x) for x in (0.3, 0.5, 0.7, 1e-300, 5e-324, 0.1 + 0.2)]))
    def test_one_channel_body_equals_array_on_edges(self, p, q):
        assert (oracle_outcome(one_channel_oracle, p, q)
                == oracle_outcome(array_capacity_oracle, p, q))

    def test_one_channel_body_equals_array_across_gaps(self):
        rng = np.random.default_rng(29)
        # 20 gaps in each decade of 10^-12 .. 1, at random positions
        gaps = 10.0 ** (np.repeat(np.arange(-12, 0), 20) + rng.uniform(0, 1, 240))
        p = rng.uniform(0, 1, 240) * (1.0 - gaps)
        pairs = list(zip(p.tolist(), (p + gaps).tolist()))
        pairs += [(b, a) for a, b in pairs]
        pairs += rng.uniform(0, 1, (1000, 2)).tolist()
        for a, b in pairs:
            assert (oracle_outcome(one_channel_oracle, a, b)
                    == oracle_outcome(array_capacity_oracle, a, b)), (a, b)

    @pytest.mark.parametrize("iters", [0, 1, 10])
    def test_one_channel_no_convergence_equals_array(self, iters):
        # the first channel needs more than 10 steps, the last stops at its
        # second
        pairs = [(0.07356, 0.07033), (1.0, 0.0), (0.5, 0.5), (0.3, 0.9), (5e-324, 0.0)]
        got = [oracle_outcome(one_channel_oracle, p, q, iters, 1e-12) for p, q in pairs]
        assert got == [oracle_outcome(array_capacity_oracle, p, q, iters, 1e-12)
                       for p, q in pairs]
        assert got[0][:2] == ("NoConvergence", iters)

    @pytest.mark.parametrize("p, q, message", [(1.5, 0.3, "p=1.5"), (0.3, np.nan, "q=nan")])
    def test_one_channel_rejects_what_the_array_rejects(self, p, q, message):
        # a BinaryChannel checks its own entries; any object with p and q
        # gets the array path's message
        class Channel:
            pass

        ch = Channel()
        ch.p, ch.q = p, q
        pattern = re.escape(f"transition probability {message} outside [0, 1]")
        with pytest.raises(ValueError, match=pattern):
            channels.capacity_oracle(ch)
        with pytest.raises(ValueError, match=pattern):
            channels.capacity_oracle_array(p, q)

    @pytest.mark.parametrize("p, q, message", [
        ([0.2, np.nan], 0.3, "p[1]=nan"),
        ([0.2, 0.4], [0.1, 1.5], "q[1]=1.5"),
        (-0.5, 0.3, "p=-0.5"),
        ([[0.2, 0.3]], [[0.1], [-1e-300]], "q[1, 0]=-1e-300"),
    ])
    def test_array_rejects_bad_entries(self, p, q, message):
        with pytest.raises(ValueError, match=re.escape(f"transition probability {message} outside")):
            channels.capacity_oracle_array(p, q)


class TestCapacityGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(200):
            p, q = rng.uniform(0.05, 0.95, 2)
            if abs(p - q) < 1e-3:
                continue
            _, gp, gq = channels.capacity_gradient(BinaryChannel(p, q))
            fd_p = (channels._capacity_pq(p + h, q) - channels._capacity_pq(p - h, q)) / (2 * h)
            fd_q = (channels._capacity_pq(p, q + h) - channels._capacity_pq(p, q - h)) / (2 * h)
            assert gp == pytest.approx(fd_p, abs=1e-5)
            assert gq == pytest.approx(fd_q, abs=1e-5)

    def test_zero_at_diagonal(self):
        assert channels.capacity_gradient(BinaryChannel(0.3, 0.3)) == (0.0, 0.0, 0.0)


# The separate value and gradient bodies that the shared closed form replaced,
# frozen as the bitwise reference: the solver's iterates and cuts, hence its
# outputs, depend on every bit of both.
def _reference_capacity(p, q):
    if abs(p - q) < channels.EPS_CAP:
        return 0.0
    hp, hq = binary_entropy(p), binary_entropy(q)
    d = q - p
    val = (p * hq - q * hp) / d + np.log2(1.0 + 2.0 ** ((hp - hq) / d))
    return float(min(max(val, 0.0), 1.0))


def _reference_gradient(p, q):
    if abs(p - q) < channels.EPS_CAP:
        return 0.0, 0.0
    hp, hq = binary_entropy(p), binary_entropy(q)
    zeta = (hq - hp) / (q - p)
    q1 = 1.0 / (1.0 + 2.0 ** zeta)
    pi = (q1 - p) / (q - p)
    pi = min(max(pi, 0.0), 1.0)

    def logit2(u):
        u = min(max(u, 1e-300), 1.0 - 1e-16)
        return np.log2((1.0 - u) / u)

    gp = (1.0 - pi) * (logit2(q1) - logit2(p))
    gq = pi * (logit2(q1) - logit2(q))
    return float(gp), float(gq)


def _edge_pairs():
    eps = channels.EPS_CAP
    nudged = [(1.0 + (1.0 - 2e-9)) / 2.0, (1.0 - (1.0 - 2e-9)) / 2.0]
    special = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5, 0.3] + nudged
    pairs = [(p, q) for p in special for q in special]
    for p in (0.3, 0.5, 1e-300, 1.0 - 1e-16) + tuple(nudged):
        for gap in (0.5 * eps, 0.999 * eps, eps, 1.001 * eps, 2.0 * eps):
            pairs += [(p, p + gap), (p, p - gap), (p + gap, p), (p - gap, p)]
    return [(p, q) for p, q in pairs if 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0]


class TestClosedFormBitwise:
    @staticmethod
    def _assert_same_bits(p, q):
        want_c = _reference_capacity(p, q)
        want_g = _reference_gradient(p, q)
        c, gp, gq = channels.capacity_gradient(BinaryChannel(p, q))
        assert channels._capacity_pq(p, q) == c == want_c, (p, q)
        assert (gp, gq) == want_g, (p, q)

    def test_seeded_pairs(self):
        # floats and numpy scalars: the solver passes the latter
        rng = np.random.default_rng(14)
        for p, q in rng.uniform(0.0, 1.0, (2000, 2)):
            self._assert_same_bits(p, q)
            self._assert_same_bits(float(p), float(q))
        # nearly useless channels, as at the solver's optimum
        for p, step in zip(rng.uniform(0.0, 1.0, 500), 10.0 ** rng.uniform(-12, -2, 500)):
            self._assert_same_bits(p, min(p + step, 1.0))

    def test_edge_pairs(self):
        pairs = _edge_pairs()
        assert len(pairs) > 100
        for p, q in pairs:
            self._assert_same_bits(p, q)

    def test_value_is_the_tangents_value(self):
        # _capacity_pq stops at the value _tangent starts from: same bits
        rng = np.random.default_rng(23)
        pairs = [tuple(pq) for pq in rng.uniform(0.0, 1.0, (2000, 2)).tolist()]
        pairs += [(p, p) for p in rng.uniform(0.0, 1.0, 100).tolist()]
        pairs += [(p, min(p + 1e-13, 1.0)) for p in rng.uniform(0.0, 1.0, 100).tolist()]
        pairs += [(e, q) for e in (0.0, 1.0) for q in rng.uniform(0.0, 1.0, 100).tolist()]
        pairs += [(q, p) for p, q in pairs] + _edge_pairs()
        for p, q in pairs:
            assert channels._capacity_pq(p, q).hex() == channels._tangent(p, q)[0].hex(), (p, q)

    @pytest.mark.parametrize("swap", [False, True])
    def test_entropy_domain_error_unchanged(self, swap):
        # a master-LP iterate just outside [0, 1] (curve --m 2 --step 0.01)
        p, q = 1.0000000013923993, 0.75
        if swap:
            p, q = q, p
        with pytest.raises(ValueError) as want:
            _reference_capacity(p, q)
        assert "got 1.0000000013923993" in str(want.value)
        with pytest.raises(ValueError) as got:
            channels._capacity_pq(p, q)
        assert str(got.value) == str(want.value)


class TestChannelFamilies:
    def test_all_zero_correlators(self):
        vec = boxes.CorrelatorVector(2, np.zeros(6))
        fam = channels.channels_from_correlators(vec)
        assert len(fam) == 3
        for _, ch in fam.channels:
            assert (ch.p, ch.q) == (0.5, 0.5)
        assert fam.max_capacity() == 0.0

    def test_equalized_triple_at_maximal_violation(self):
        # the equalization root of C((1+1)/2... , .) computed by bisection:
        # alpha* = 0.4589374, common capacity 0.1577740
        a = 0.4589374
        arr = np.array([a, -a, 1.0, a, 1.0, a])
        fam = channels.channels_from_correlators(boxes.CorrelatorVector(2, arr))
        caps = list(fam.capacities().values())
        assert caps == pytest.approx([0.1577740] * 3, abs=1e-4)
        for c in caps:
            assert c == pytest.approx(0.158, abs=2e-3)

    def test_m3_single_symmetric_pair(self):
        # channel from (x_B^0, y_B^0) = (delta/10, -delta/10) is symmetric
        delta = 1.4
        arr = np.zeros(10)
        arr[4] = delta / 10.0
        arr[5] = -delta / 10.0
        fam = channels.channels_from_correlators(boxes.CorrelatorVector(3, arr))
        caps = fam.capacities()
        want = 1.0 - binary_entropy((1.0 + delta / 10.0) / 2.0)
        assert caps["S^0_{B->AE}"] == pytest.approx(want, abs=1e-12)
        assert len(fam) == 5

    def test_family_counts(self):
        for m in (2, 3, 4):
            vec = boxes.correlator_vector(boxes.random_nonsignaling(m, 1))
            assert len(channels.channels_from_correlators(vec)) == 2 * m - 1
        vec = boxes.correlator_vector(boxes.random_nonsignaling(2, 1), relaxed=True)
        assert len(channels.channels_from_correlators(vec, relaxed=True)) == 4

    def test_probability_clipped_to_unit_interval(self):
        assert channels.correlator_to_probability(1.0 + 5e-10) == 1.0
        assert channels.correlator_to_probability(-1.0 - 5e-10) == 0.0
        assert channels.correlator_to_probability(0.25) == 0.625

    def test_kelley_witness_a_hair_above_one(self):
        from signalcap import strength
        witness = strength.c_delta(2.0, 1e-6).witness
        assert witness.values.max() > 1.0   # an admitted overshoot
        fam = channels.channels_from_correlators(witness)
        assert all(0.0 <= p <= 1.0 for _, ch in fam.channels for p in (ch.p, ch.q))

    def test_relaxed_needs_relaxed_vector(self):
        vec = boxes.correlator_vector(boxes.random_nonsignaling(2, 1))
        with pytest.raises(ValueError):
            channels.channels_from_correlators(vec, relaxed=True)

    def test_nonsignaling_boxes_have_zero_capacities(self):
        for seed in range(100):
            fam = channels.channels_from_box(boxes.random_nonsignaling(2, seed))
            assert fam.max_capacity() == 0.0

    def test_reference_box_capacities_at_family_root(self):
        from signalcap import strength
        fam_root = strength.optimal_family(2.0)
        box = boxes.reference_box(2.0, fam_root.x_star)
        caps = list(channels.channels_from_box(box).capacities().values())
        assert caps == pytest.approx([fam_root.value] * 3, abs=1e-9)
