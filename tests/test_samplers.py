"""The verify-properties samplers judge their samples as table stacks; these
tests hold them to the one-sample-at-a-time loops they replaced, frozen here
with the arithmetic those loops used, bit for bit."""

import numpy as np
import pytest

from signalcap import boxes, channels, cli, monogamy
from signalcap.boxes import BoxError, NegativeProbability, NotNormalized
from signalcap.monogamy import SIGN_PATTERNS, StrictModeInapplicable

SIGNS = np.array([1.0, -1.0])
CHSH_TERMS = (((0, 0), 1), ((1, 0), 1), ((1, 1), 1), ((0, 1), -1))


def reference_box_values(seed):
    """One box as the monogamy sampler first judged it: random_nonsignaling's
    np.add.at table, then monogamy_lhs and check_no_signaling's worst spread
    as computed on that single table.  Returns (table, lhs, worst spread)."""
    weights = np.random.default_rng(seed).dirichlet(np.full(32, 0.2))
    t = np.zeros(32)
    np.add.at(t, boxes._strategy_cells(2), weights[:, None])
    t = t.reshape(2, 2, 2, 2, 2)
    ab = np.einsum("ijabe,a,b->ij", t, SIGNS, SIGNS)
    be = np.einsum("ijabe,b,e->ij", t, SIGNS, SIGNS)
    bell = 0.0
    for (i, j), sign in CHSH_TERMS:
        bell += sign * ab[i, j]
    b0e = be[:, 0]
    assert float(b0e.max() - b0e.min()) <= 1e-9
    lhs = float(abs(float(bell)) + 2.0 * abs(float(b0e.mean())))
    spreads = []
    for marginal, axis in ((t.sum(axis=2), 0), (t.sum(axis=3), 1), (t.sum(axis=(3, 4)), 1),
                           (t.sum(axis=(2, 4)), 0), (t.sum(axis=(2, 3)), (0, 1))):
        gap = marginal.max(axis=axis) - marginal.min(axis=axis)
        spreads.append(float(gap.max()))
    return t, lhs, max(spreads)


def reference_monogamy_loop(rng, n):
    """The monogamy sampler's loop as first written: one scalar seed draw
    and one box at a time."""
    return [reference_box_values(rng.integers(0, 2**63)) for _ in range(n)]


def reference_triple_values(dist):
    """s1 <xy> + s2 <yz> + s3 <xz> of one distribution for each sign pattern,
    as triple_inequality_holds first computed it."""
    xy = np.einsum("xyz,x,y->", dist, SIGNS, SIGNS)
    yz = np.einsum("xyz,y,z->", dist, SIGNS, SIGNS)
    xz = np.einsum("xyz,x,z->", dist, SIGNS, SIGNS)
    return [s1 * xy + s2 * yz + s3 * xz for s1, s2, s3 in SIGN_PATTERNS]


def reference_triple_loop(rng, n):
    """The triple-inequality sampler's loop as first written: one Dirichlet
    draw of eight at a time.  Returns the distributions and their values."""
    dists = [rng.dirichlet(np.ones(8)).reshape(2, 2, 2) for _ in range(n)]
    return dists, [reference_triple_values(d) for d in dists]


def recording(monkeypatch, module, name, seen):
    """Replace module.name by a wrapper that appends each result to seen."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result)
        return result

    monkeypatch.setattr(module, name, wrapper)


def random_tables(k):
    return np.array([boxes.random_nonsignaling(2, s).table for s in range(k)])


# n = 0, one sample, one short of a block, a block and one over
SIZES = [0, 1, 999, 1001]


class TestMonogamySampler:
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_the_reference_loop_bit_for_bit(self, monkeypatch, n):
        tables, lhs, gaps = [], [], []
        recording(monkeypatch, boxes, "_mixture_tables", tables)
        recording(monkeypatch, monogamy, "_lhs_values", lhs)
        recording(monkeypatch, boxes, "_marginal_gaps", gaps)
        rng, loop = np.random.default_rng(17), np.random.default_rng(17)
        worst, worst_marginal = cli.sample_monogamy(rng, n)
        want = reference_monogamy_loop(loop, n)

        # at most one block at a time, the last one partial
        assert [len(t) for t in tables] == [min(cli.SAMPLE_BLOCK, n - s)
                                            for s in range(0, n, cli.SAMPLE_BLOCK)]
        got_tables = np.concatenate(tables) if n else np.zeros((0, 2, 2, 2, 2, 2))
        assert got_tables.tobytes() == np.array([t for t, _, _ in want]).tobytes()
        got_lhs = np.concatenate(lhs) if n else np.zeros(0)
        assert got_lhs.tolist() == [v for _, v, _ in want]
        got_spread = [max(float(gap[k].max()) for gap in block)
                      for block in gaps for k in range(len(block[0]))]
        assert got_spread == [s for _, _, s in want]
        assert worst == max([0.0] + [v for _, v, _ in want])
        assert worst_marginal == max([0.0] + [s for _, _, s in want])
        # one size-n seed draw leaves the generator where n scalar draws do
        assert rng.bit_generator.state == loop.bit_generator.state
        assert rng.random() == loop.random()

    def test_empty_sample(self):
        assert cli.sample_monogamy(np.random.default_rng(0), 0) == (0.0, 0.0)

    def test_single_box_functions_read_the_same_values(self):
        for seed in range(50):
            table, lhs, spread = reference_box_values(seed)
            box = boxes.random_nonsignaling(2, seed)
            assert box.table.tobytes() == table.tobytes()
            assert monogamy.monogamy_lhs(box).lhs == lhs
            assert boxes.check_no_signaling(box, 1e-12).worst_violation == spread

    def test_unequal_conditionals_in_a_block_raise(self, monkeypatch):
        # the strict monogamy LHS is undefined for one table of the last block
        ab = np.zeros((2, 2))
        be = np.zeros((2, 2))
        be[0, 0], be[1, 0] = 0.3, -0.3
        bad = boxes.from_correlators(2, ab, ab, be).table
        mixture = boxes._mixture_tables

        def corrupt(m, weights):
            t = mixture(m, weights)
            if len(t) < cli.SAMPLE_BLOCK:
                t[-1] = bad
            return t

        monkeypatch.setattr(boxes, "_mixture_tables", corrupt)
        with pytest.raises(StrictModeInapplicable):
            cli.sample_monogamy(np.random.default_rng(0), 1001)

    @pytest.mark.parametrize("error", [NegativeProbability, NotNormalized])
    def test_invalid_table_in_a_block_raises(self, monkeypatch, error):
        mixture = boxes._mixture_tables

        def corrupt(m, weights):
            t = mixture(m, weights)
            if error is NegativeProbability:
                t[5, 1, 0, 1, 1, 0] = -0.5
            else:
                t[5, 1, 0] *= 1.1
            return t

        monkeypatch.setattr(boxes, "_mixture_tables", corrupt)
        with pytest.raises(error):
            cli.sample_monogamy(np.random.default_rng(0), 10)


# the edges of SeedSequence's word split: zero, one word, two words, the
# largest seed the sampler draws and the largest seed there is
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
HASH_CONSTANTS = ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_MULT_L", "_MIX_MULT_R",
                  "_XSHIFT"]


def seed_sequence_states(seeds):
    return np.array([np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                     for s in seeds])


class TestBlockSeeding:
    """The monogamy sampler hashes its boxes' SeedSequence states a block at
    a time; these tests bind that path to numpy's SeedSequence and to
    _strategy_weights, the single-box definition."""

    def test_block_hash_equals_seed_sequence_at_the_edges(self):
        for seeds in (np.array(EDGE_SEEDS, dtype=np.uint64), np.array(EDGE_SEEDS, dtype=object)):
            got = boxes._seed_states(seeds)
            assert got.dtype == np.uint64
            assert got.tolist() == seed_sequence_states(EDGE_SEEDS).tolist()
        for s in EDGE_SEEDS:
            assert boxes._seed_states(np.array([s], dtype=np.uint64)).tolist() == \
                seed_sequence_states([s]).tolist()

    def test_block_hash_equals_seed_sequence_on_drawn_seeds(self):
        seeds = np.random.default_rng(27).integers(0, 2**63, size=10_000)
        assert boxes._seed_states(seeds).tobytes() == seed_sequence_states(seeds).tobytes()

    @pytest.mark.parametrize("m", [2, 3])
    def test_block_weights_equal_single_box_weights(self, m):
        seeds = np.concatenate([np.array(EDGE_SEEDS[:-1]),
                                np.random.default_rng(m).integers(0, 2**63, size=1_000)])
        want = np.array([boxes._strategy_weights(m, s) for s in seeds])
        assert boxes._strategy_weights_block(m, seeds).tobytes() == want.tobytes()

    def test_empty_block(self):
        assert boxes._seed_states(np.zeros(0, dtype=np.int64)).shape == (0, 4)
        assert boxes._strategy_weights_block(2, np.zeros(0, dtype=np.int64)).shape == (0, 32)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_raises(self, seed):
        # a negative int64 would wrap to a valid uint64 seed in the cast
        for seeds in ([seed], [0, seed, 1]):
            with pytest.raises(ValueError, match=r"^seeds must lie in \[0, 2\*\*64\)$"):
                boxes._seed_states(seeds)
            with pytest.raises(ValueError):
                boxes._strategy_weights_block(2, seeds)

    def test_float_seeds_raise(self):
        with pytest.raises(TypeError):
            boxes._seed_states(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("name", HASH_CONSTANTS)
    def test_an_altered_hash_constant_breaks_the_equality(self, monkeypatch, name):
        seeds = np.random.default_rng(27).integers(0, 2**63, size=100)
        monkeypatch.setattr(boxes, name, getattr(boxes, name) ^ 1)
        assert (boxes._seed_states(seeds) != seed_sequence_states(seeds)).any(axis=1).all()


class TestTripleSampler:
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_the_reference_loop(self, monkeypatch, n):
        calls = []
        holds = monogamy.triple_inequality_holds

        def recording_holds(dist, signs, tol=1e-12):
            verdicts = holds(dist, signs, tol)
            calls.append((dist.copy(), signs, verdicts))
            return verdicts

        monkeypatch.setattr(monogamy, "triple_inequality_holds", recording_holds)
        rng, loop = np.random.default_rng(23), np.random.default_rng(23)
        bad = cli.sample_triple_inequalities(rng, n)
        dists, values = reference_triple_loop(loop, n)

        blocks = [c for c in calls if c[1] == SIGN_PATTERNS[0]]
        assert [len(d) for d, _, _ in blocks] == [min(cli.SAMPLE_BLOCK, n - s)
                                                  for s in range(0, n, cli.SAMPLE_BLOCK)]
        got = np.concatenate([d for d, _, _ in blocks]) if n else np.zeros((0, 2, 2, 2))
        assert got.tobytes() == np.array(dists).reshape(n, 2, 2, 2).tobytes()
        for p, signs in enumerate(SIGN_PATTERNS):
            verdicts = [v for _, s, block in calls if s == signs for v in block]
            assert verdicts == [row[p] <= 1.0 + 1e-12 for row in values]
        assert bad == sum(row[p] > 1.0 + 1e-12 for row in values for p in range(4))
        # one (n, 8) draw leaves the generator where n draws of eight do
        assert rng.bit_generator.state == loop.bit_generator.state
        assert rng.random() == loop.random()

    def test_empty_sample(self):
        assert cli.sample_triple_inequalities(np.random.default_rng(0), 0) == 0


class TestConvexitySampler:
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_equals_the_reference_loop_bit_for_bit(self, n):
        # the loop as first written: one scalar draw of three per triple
        rng = np.random.default_rng(45)
        want = []
        cap = channels._capacity_pq
        for _ in range(n):
            p1, p2, q = rng.uniform(0, 1, 3)
            want.append(cap(0.5 * (p1 + p2), q) - 0.5 * (cap(p1, q) + cap(p2, q)))
            want.append(cap(q, 0.5 * (p1 + p2)) - 0.5 * (cap(q, p1) + cap(q, p2)))
        got_rng = np.random.default_rng(45)
        got = cli.sample_convexity(got_rng, n)
        assert [x.hex() for x in got.tolist()] == [float(x).hex() for x in want]
        assert got_rng.uniform() == rng.uniform()


class TestStackKernels:
    def test_stack_verdicts_at_the_threshold(self):
        # tol = value - 1 puts one distribution exactly on the bound, so its
        # verdict flips if the stack's sum moves by one ulp either way
        rng = np.random.default_rng(3)
        dists = rng.dirichlet(np.ones(8), size=400).reshape(400, 2, 2, 2)
        values = np.array([reference_triple_values(d) for d in dists])
        # on [0.5, 1] both value - 1 and 1 + (value - 1) are exact
        exact = (values >= 0.5) & (values <= 1.0)
        assert exact.sum(axis=0).min() >= 20
        for p, signs in enumerate(SIGN_PATTERNS):
            for k in np.flatnonzero(exact[:, p])[:20]:
                tol = values[k, p] - 1.0
                verdicts = monogamy.triple_inequality_holds(dists, signs, tol)
                assert verdicts.tolist() == (values[:, p] <= 1.0 + tol).tolist()
                assert verdicts[k]
                assert monogamy.triple_inequality_holds(dists[k], signs, tol) is True

    def test_unequal_conditionals_raise_like_a_single_box(self):
        ab = np.zeros((2, 2))
        be = np.zeros((2, 2))
        be[0, 0], be[1, 0] = 0.3, -0.3
        box = boxes.from_correlators(2, ab, ab, be)
        tables = random_tables(6)
        tables[4] = box.table
        with pytest.raises(StrictModeInapplicable) as single:
            monogamy.monogamy_lhs(box)
        with pytest.raises(StrictModeInapplicable) as stack:
            monogamy._lhs_values(tables)
        assert stack.value.discrepancy == single.value.discrepancy
        relaxed = monogamy._lhs_values(tables, relaxed=True)
        assert relaxed[4] == monogamy.monogamy_lhs(box, relaxed=True).lhs

    @pytest.mark.parametrize("entry,value,error,match", [
        ((0, 1, 0, 1, 1), -0.01, NegativeProbability,
         r"^table entry \(0, 1, 0, 1, 1\) is -1\.000000e-02, below -1e-12$"),
        ((1, 0, 1, 1, 0), 0.5, NotNormalized, r"^p\(\.\|A_1, B_0\) sums to .*, not 1$"),
        ((0, 1, 1, 0, 1), np.nan, BoxError,
         r"^table entry \(0, 1, 1, 0, 1\) is nan, not a finite number$"),
    ])
    def test_invalid_table_raises_make_boxs_error(self, entry, value, error, match):
        tables = random_tables(3)
        tables[(1,) + entry] = value
        with pytest.raises(error, match=match) as stack:
            boxes._check_tables(tables)
        with pytest.raises(error) as single:
            boxes.make_box(2, tables[1])
        assert str(stack.value) == str(single.value)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_mixture_stack_equals_single_tables(self, m):
        weights = np.array([boxes._strategy_weights(m, s) for s in range(12)]).reshape(3, 4, -1)
        tables = boxes._mixture_tables(m, weights)
        assert tables.shape == (3, 4, m, m, 2, 2, 2)
        for a in range(3):
            for b in range(4):
                want = boxes.random_nonsignaling(m, 4 * a + b).table
                assert tables[a, b].tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_two_body_bell_lhs_and_gaps_of_a_stack_equal_single_boxes(self, m):
        tables = np.array([boxes.random_nonsignaling(m, s).table for s in range(30)])
        stack = boxes._two_body(tables)
        bell = boxes._bell_values(stack[0])
        lhs = monogamy._lhs_values(tables)
        gaps = boxes._marginal_gaps(tables)
        for k in range(30):
            box = boxes.make_box(m, tables[k])
            for got, want in zip(stack, boxes.two_body_tables(box)):
                assert got[k].tobytes() == want.tobytes()
            assert bell[k] == boxes.chained_bell_value(box)
            assert lhs[k] == monogamy.monogamy_lhs(box).lhs
            assert max(float(g[k].max()) for g in gaps) == \
                boxes.check_no_signaling(box).worst_violation
