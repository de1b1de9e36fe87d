import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taskmerge import merge_engine, selection
from taskmerge.rng import CHUNK
from taskmerge.task_vectors import _LEAF, split
from taskmerge.tensor_store import _CHUNK
from taskmerge import (
    CoefficientSet,
    MergeRecipe,
    RecipeError,
    TaskSpec,
    ValidationError,
    dare_transform,
    open_checkpoint,
    read_tensor,
    run_recipe,
    ties_trim,
)

from conftest import SCRATCH, merge_peak_range, traced_peak, write_ckpt
from dense_reference import dare_mask_dense, read_checkpoint_dense, reference_merge, trim_dense


def trimmed(values, density):
    """ties_trim on a float64 copy of *values*; the kernel works in place.

    The selection it returns must trim a fresh copy to the same bytes, as
    the merge walk does when a norms walk already trimmed the diff."""
    v = np.array(values, dtype=np.float64)
    selection = ties_trim(v, density)
    fresh = np.array(values, dtype=np.float64)
    if selection is None:
        assert math.ceil(density * v.size) >= v.size
    else:
        thr, last = selection
        merge_engine._trim_node(fresh, 0, thr, 0, last)
    assert fresh.tobytes() == v.tobytes()
    return v


def dropped(values, p, key):
    """dare_transform on a float64 copy of *values*; the kernel works in place."""
    v = np.array(values, dtype=np.float64)
    assert dare_transform(v, p, key) is None
    return v


def ties_trim_oracle(values, density):
    """The whole-array ties_trim the engine ran before it selected on int64
    bits node by node, kept to pin the bytes and the selection of both:
    partition a float64 copy of |v|, then find the last kept tie block by
    block and zero with a putmask."""
    n = values.size
    k = math.ceil(density * n)
    if k >= n:
        return None
    mag = np.abs(values)
    mag.partition(n - k)
    thr = float(mag[n - k])
    tail = mag[n - k + 1 :]
    tail -= thr
    need = k - np.count_nonzero(tail)
    last = -1
    for start in range(0, n, CHUNK):
        ties = np.flatnonzero(np.abs(values[start : start + CHUNK]) == thr)
        if ties.size >= need:
            last = start + int(ties[need - 1])
            break
        need -= ties.size
    mag = np.abs(values)
    keep = (mag > thr) | ((mag == thr) & (np.arange(n) <= last))
    np.putmask(values, ~keep, 0.0)
    return thr, last


# Magnitudes that tie often, with signed zeros and subnormals among them
TRIM_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, -0.5, 1.0, -1.0,
               2.0, -2.0]


def streamed_selection(values, k):
    """``(thr, need)`` of the engine's selection of the k largest magnitudes
    of *values*, fed its nodes' magnitudes one at a time, as the norms walk
    feeds it, and re-fed them for every further pass it asks for."""
    n = values.size
    select = selection.Selection(n, k)

    def nodes():
        for lo, hi in split(n):
            yield np.abs(values[lo:hi])

    for mag in nodes():
        select.add(mag)
    return select.finish(nodes)


def first_pass_candidates(values, k):
    """How many candidates the first pass of the selection of the k largest
    magnitudes of *values* meets, whatever the buffer holds."""
    select = selection.Selection(values.size, k)
    for lo, hi in split(values.size):
        select.add(np.abs(values[lo:hi]))
    return select.count


def assert_streams_like_oracle(values, k):
    """The streamed selection of *values* and its trim node by node equal
    the whole-array oracle's ``(thr, need, last)`` and bytes, and so does the
    public ties_trim."""
    n = values.size
    density = (k - 0.5) / n
    assert math.ceil(density * n) == k
    want = values.copy()
    thr, last = ties_trim_oracle(want, density)
    need = k - int(np.count_nonzero(np.abs(values) > thr))
    assert streamed_selection(values, k) == (thr, need)
    got, last_seen = values.copy(), -1
    for lo, hi in split(n):
        need, last_seen = merge_engine._trim_node(got[lo:hi], lo, thr, need, last_seen)
    assert (need, last_seen) == (0, last)
    assert got.tobytes() == want.tobytes()
    public = values.copy()
    assert ties_trim(public, density) == (thr, last)
    assert public.tobytes() == want.tobytes()


# float32 bit patterns every dtype-valued pool holds: +-0.0, the smallest
# and largest BF16 subnormals, and the smallest F32 subnormal
SPECIAL_BITS = [0x0000_0000, 0x8000_0000, 0x0001_0000, 0x8001_0000, 0x007F_0000, 0x0000_0001]


def dtype_values(gen, dtype, n, distinct):
    """n finite values that *dtype* (F32 or BF16) stores exactly, drawn from
    *distinct* of them, signed zeros and subnormals among them."""
    bits = gen.integers(0, 2**32, distinct + len(SPECIAL_BITS), dtype=np.uint32)
    bits[: len(SPECIAL_BITS)] = SPECIAL_BITS
    # an exponent of all ones is inf or nan: clear its top bit
    bits[(bits & 0x7F80_0000) == 0x7F80_0000] ^= 0x4000_0000
    if dtype == "BF16":
        bits &= 0xFFFF_0000
    return gen.choice(bits.view(np.float32).astype(np.float64), n)


class TestTiesTrim:
    def test_top_two_by_magnitude(self):
        out = trimmed([0.9, -0.1, 0.5, 0.05], 0.5)
        assert out.tolist() == [0.9, 0.0, 0.5, 0.0]

    def test_density_one_is_identity(self):
        v = np.array([0.3, -0.2, 0.0, 1.5])
        assert trimmed(v, 1.0).tolist() == v.tolist()

    def test_density_55_keeps_eleven_of_twenty(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(20)
        out = trimmed(v, 0.55)
        assert np.count_nonzero(out) == 11

    def test_threshold_ties_keep_lower_index(self):
        out = trimmed([1.0, -1.0, 1.0, 2.0], 0.5)
        # magnitude 2.0 first, then the tie at |1.0| resolves to index 0
        assert out.tolist() == [1.0, 0.0, 0.0, 2.0]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        st.floats(0.01, 1.0),
    )
    def test_count_and_magnitude_properties(self, values, density):
        v = np.array(values)
        out = trimmed(v, density)
        k = math.ceil(density * v.size)
        kept = np.nonzero(out)[0]
        dropped = np.setdiff1d(np.arange(v.size), kept)
        assert len(kept) <= k  # zeros among the top-k stay zero
        if len(dropped) and len(kept):
            assert np.min(np.abs(v[kept])) >= np.max(np.abs(v[dropped])) - 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bytes_match_dense_reference_under_ties(self, data):
        # few distinct magnitudes, so many elements tie at the threshold
        n = data.draw(st.integers(1, 2000))
        quantized = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
        v = data.draw(hnp.arrays(np.float64, n, elements=quantized))
        k = data.draw(st.sampled_from([1, max(n - 1, 1), n]) | st.integers(1, n))
        density = (k - 0.5) / n  # ceil(density * n) == k without rounding doubt
        assert math.ceil(density * n) == k
        out = trimmed(v, density)
        assert out.tobytes() == trim_dense(v, density).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
        fill=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, "n-1"]) | st.integers(1, 2 * CHUNK + 1),
    )
    def test_blocked_selection_matches_dense_reference_under_ties(self, n, fill, k):
        # few distinct magnitudes over several blocks: the kept ties end
        # anywhere, on a block boundary included
        k = n - 1 if k == "n-1" else min(k, n)
        gen = np.random.default_rng(fill)
        v = gen.choice([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0], n)
        density = (k - 0.5) / n
        assert math.ceil(density * n) == k
        out = trimmed(v, density)
        assert out.tobytes() == trim_dense(v, density).tobytes()

    @pytest.mark.parametrize("k", [5, CHUNK, CHUNK + 1, 2 * CHUNK])
    def test_last_kept_tie_inside_a_block_and_on_its_boundaries(self, k):
        # every magnitude ties, so the first k elements are kept and the
        # last kept tie is k - 1: inside block 0, the last element of block
        # 0, the first of block 1, the last of block 1
        n = 2 * CHUNK + 1
        v = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
        density = (k - 0.5) / n
        fresh = v.copy()
        assert ties_trim(v, density) == (1.0, k - 1)
        assert v.tobytes() == trim_dense(fresh, density).tobytes()

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_selection_with_no_kept_tie(self, n):
        # last = -1 keeps only the magnitudes above thr; last = n - 1 keeps
        # every tie as well
        v = np.random.default_rng(n).choice([0.0, -0.0, 0.5, -1.0, 1.0, -2.0], n)
        for last, keep in ((-1, np.abs(v) > 1.0), (n - 1, np.abs(v) >= 1.0)):
            out = v.copy()
            merge_engine._trim_node(out, 0, 1.0, 0, last)
            assert out.tobytes() == np.where(keep, v, 0.0).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
        equal=st.booleans(),
        k=st.sampled_from(["before", "after", 1, "n-1"]) | st.integers(1, 2 * _CHUNK),
        fill=st.integers(0, 2**32 - 1),
    )
    def test_node_by_node_selection_matches_whole_array_oracle(self, n, equal, k, fill):
        # "before"/"after": the last kept tie is the last element of a node
        # of split(n) or the first of the next one. equal: every magnitude
        # ties
        gen = np.random.default_rng(fill)
        v = gen.choice([1.0, -1.0] if equal else TRIM_VALUES, n)
        starts = [lo for lo, _ in split(n)][1:]
        if k in ("before", "after"):
            assume(starts)
            last = int(gen.choice(starts)) - (k == "before")
            v[last] = 1.0
            mag = np.abs(v)
            k = int(np.count_nonzero(mag > 1.0) + np.count_nonzero(mag[: last + 1] == 1.0))
        else:
            k = n - 1 if k == "n-1" else min(k, n - 1)
        assume(k < n)
        assert_streams_like_oracle(v, k)

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(["F32", "BF16"]),
        layout=st.sampled_from(["mixed", "equal", "zeros first", "large first"]),
        n=st.sampled_from([1, 2, 9, 1000, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]),
        distinct=st.sampled_from([1, 3, 40, 5000]),
        k=st.sampled_from([1, "half", "n-1"]) | st.integers(1, 3 * _CHUNK + 5),
        fill=st.integers(0, 2**32 - 1),
    )
    def test_streamed_selection_matches_whole_array_oracle(self, dtype, layout, n, distinct,
                                                           k, fill):
        # values the stored dtypes hold exactly, ties and all. "zeros first"
        # and "large first" make a first node unlike the rest, so its pivots
        # miss the k-th above or below it. Then with the candidate buffer
        # one short of the first pass's candidates, just large enough and
        # one larger, so the selection overflows into its histogram or not
        gen = np.random.default_rng(fill)
        v = dtype_values(gen, dtype, n, distinct)
        first = min(n, _CHUNK)
        if layout == "equal":
            v = np.where(gen.random(n) < 0.5, -v[0], v[0])
        elif layout == "zeros first":
            v[:first] = gen.choice([0.0, -0.0], first)
        elif layout == "large first":
            v[:first] = gen.choice([-1.0, 1.0], first) * np.max(np.abs(v))
        k = {"half": n // 2, "n-1": n - 1}.get(k, k)
        k = min(k, n - 1)
        assume(k >= 1)
        assert_streams_like_oracle(v, k)
        c = first_pass_candidates(v, k)
        with pytest.MonkeyPatch.context() as mp:
            for capacity in (c - 1, c, c + 1):
                if capacity >= 1:
                    mp.setattr(selection, "_CANDIDATES", capacity)
                    assert_streams_like_oracle(v, k)

    @pytest.mark.parametrize("path", ["above", "below", "open", "narrow", "bin", "edge"])
    def test_each_refinement_path(self, monkeypatch, path):
        # "above": a first node far smaller than the rest puts both pivots
        # below the k-th; "below": one of a larger value puts them above it;
        # "open": a first node of zeros leaves high open; "narrow": a buffer
        # that fills after eight nodes of like values narrows the pivots
        # and settles in the first pass; "bin": one too small to narrow
        # overflows into the histogram; "edge": a first node of zeros, a
        # node in [1, 2) that fills the buffer, then one far larger, puts
        # the k-th in the histogram's top bin, past the bins fitted to the
        # buffer, so the next pass bins the whole window
        gen = np.random.default_rng(11)
        n = 16 * _CHUNK if path == "narrow" else 2 * _CHUNK + 1
        v = dtype_values(gen, "BF16", n, 5000)
        (_, first), (_, second), _ = list(split(n))[:3]
        k = n // 5
        if path == "above":
            v[:first] *= 2.0**-300
        elif path == "below":
            v[:first] = gen.choice([-1.0, 1.0], first) * 2.0**100
            k = n - 1
        elif path == "open":
            v[:first] = 0.0
        elif path == "narrow":
            v = gen.standard_normal(n)
            monkeypatch.setattr(selection, "_CANDIDATES", 8192)
        elif path == "bin":
            monkeypatch.setattr(selection, "_CANDIDATES", 64)
        else:
            v[:first] = 0.0
            v[first:second] = 1.0 + gen.random(second - first)
            v[second:] = (1.0 + gen.random(n - second)) * 2.0**40
            k = 10
        passes, narrowed = [], []
        real_settle, real_narrow = selection.Selection.settle, selection.Selection._narrow

        def settle(select):
            before = select.low, select.high, select.hist is not None
            result = real_settle(select)
            passes.append((before, result, select.low, select.high, select.fit))
            return result

        def narrow(select):
            narrowed.append(real_narrow(select))
            return narrowed[-1]

        monkeypatch.setattr(selection.Selection, "settle", settle)
        monkeypatch.setattr(selection.Selection, "_narrow", narrow)
        streamed_selection(v, k)
        (_, high, binned), result, low_after, high_after, fit_after = passes[0]
        if path == "above":
            assert result is None and high_after == selection._ABOVE_ALL
        elif path == "below":
            assert result is None and low_after == -1
        elif path == "open":
            assert high == selection._ABOVE_ALL
        elif path == "narrow":
            assert True in narrowed and not binned and result is not None
        elif path == "bin":
            assert binned and True not in narrowed
        else:
            assert binned and result is None and not fit_after
        assert passes[-1][1] is not None
        assert_streams_like_oracle(v, k)

    @settings(max_examples=12, deadline=None)
    @given(
        dtype=st.sampled_from(["F32", "BF16"]),
        distinct=st.sampled_from([40, 5000]),
        capacity=st.sampled_from([1024, 4096, 8192]),
        k=st.sampled_from([1, "n-1"]) | st.integers(1, 12 * _CHUNK - 1),
        fill=st.integers(0, 2**32 - 1),
    )
    def test_narrowed_selection_matches_whole_array_oracle(self, dtype, distinct, capacity, k,
                                                           fill):
        # a buffer that fills after eight nodes, so the first pass may narrow
        # its pivots, with ties at the new pivots among few distinct values
        gen = np.random.default_rng(fill)
        n = 12 * _CHUNK
        v = dtype_values(gen, dtype, n, distinct)
        k = n - 1 if k == "n-1" else k
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "_CANDIDATES", capacity)
            assert_streams_like_oracle(v, k)

    @pytest.mark.parametrize("layout", ["ties", "normal", "zeros first"])
    @pytest.mark.parametrize("capacity", [64, 8192])
    def test_counts_hold_after_every_node(self, monkeypatch, layout, capacity):
        # after every node the selection's counts, buffer and histogram are
        # those of the magnitudes its pass has seen: a miscount only costs
        # passes, which the oracle tests would not see. A buffer of 8192
        # fills after eight nodes and narrows, but after a first node of
        # zeros, where it bins; one of 64 bins. "ties" draws from 2001
        # integer magnitudes, so narrowed pivots land on ties
        monkeypatch.setattr(selection, "_CANDIDATES", capacity)
        gen = np.random.default_rng(capacity)
        n = 12 * _CHUNK
        if layout == "ties":
            v = gen.integers(-2000, 2000, n).astype(np.float64)
        else:
            v = gen.standard_normal(n)
        if layout == "zeros first":
            v[:_CHUNK] = 0.0
        select = selection.Selection(n, n // 5)
        seen = []

        def nodes():
            seen.clear()
            for lo, hi in split(n):
                yield np.abs(v[lo:hi])

        real_add = select.add

        def add(mag):
            seen.append(mag.copy())
            real_add(mag)
            mags = np.concatenate(seen)
            low, high = (selection._magnitude(b) for b in (select.low, select.high))
            assert select.above == np.count_nonzero(mags > high)
            assert select.at_high == np.count_nonzero(mags == high)
            if select.low == select.high:
                return
            assert select.at_low == np.count_nonzero(mags == low)
            between = np.sort(mags[(mags > low) & (mags < high)])
            assert select.count == between.size
            if select.hist is None:
                assert np.array_equal(np.sort(select.buf[: select.count]), between)
            else:
                bins = (between.view(np.int64) - select.origin) >> select.shift
                bins = np.clip(bins, -1, select.hist.size - 2) + 1
                assert np.array_equal(select.hist, np.bincount(bins, minlength=select.hist.size))

        real_narrow = select._narrow
        narrowed = []

        def narrow():
            narrowed.append(real_narrow())
            return narrowed[-1]

        select.add, select._narrow = add, narrow
        for mag in nodes():
            select.add(mag)
        thr, need = select.finish(nodes)
        assert (True in narrowed) == (capacity > 64 and layout != "zeros first")
        assert (thr, need) == streamed_selection(v, n // 5)
        assert_streams_like_oracle(v, n // 5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_of_unlike_scales_widen_the_first_pivots(self, seed):
        # rows of 4096 values whose scales vary tenfold: sixteen rows of the
        # first node are too few to place the k-th at random-draw margins,
        # and its blocks show it, so the first pass's window still holds it
        gen = np.random.default_rng(seed)
        n = 16 * _CHUNK
        v = (gen.standard_normal((n // 4096, 4096)) * gen.lognormal(0, 1, (n // 4096, 1)))
        v = v.ravel()
        select = selection.Selection(n, n // 5)
        for lo, hi in split(n):
            select.add(np.abs(v[lo:hi]))
        low, high = select.low, select.high
        thr, _ = select.finish(lambda: (np.abs(v[lo:hi]) for lo, hi in split(n)))
        assert low <= int(np.float64(thr).view(np.int64)) <= high

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_values_raise(self, bad):
        # NaN fails every compare, so no count could reach k
        v = np.array([bad, bad, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            ties_trim(v, 0.5)

    def test_peak_is_the_magnitudes_and_no_mask(self):
        # the selection holds node-sized magnitudes and its candidates, and
        # nothing the size of the array: no copy of |v|, no mask of k
        v = np.random.default_rng(8).standard_normal(1 << 21)
        assert traced_peak(lambda: ties_trim(v, 0.9)) <= 2 * SCRATCH


class TestDare:
    def test_p_zero_identity(self):
        v = np.array([0.1, -0.7, 1e-30, 123.456])
        out = dropped(v, 0.0, (42, 0, "w"))
        np.testing.assert_array_equal(out, v)

    def test_rescale_by_inverse_keep_probability(self):
        out = dropped([0.2] * 64, 0.5, (7, 1, "w"))
        kept = out[out != 0.0]
        assert len(kept) > 0
        np.testing.assert_array_equal(kept, 0.4)

    def test_reproducible_and_key_sensitive(self):
        v = np.ones(256)
        a = dropped(v, 0.5, (1, 0, "w"))
        b = dropped(v, 0.5, (1, 0, "w"))
        c = dropped(v, 0.5, (1, 1, "w"))
        d = dropped(v, 0.5, (1, 0, "other"))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_matches_scalar_reference_stream(self):
        v = np.ones(501)
        out = dropped(v, 0.3, (987654321, 2, "layer.7.weight"))
        mask = dare_mask_dense(987654321, 2, "layer.7.weight", 501, 0.3)
        np.testing.assert_array_equal(out != 0.0, mask)

    # p near binary fractions, where u >= p and the division by 1 - p are
    # most sensitive to rounding; 1 - p >= 1/16 keeps 1e300 finite
    _P = [0.0, 0.5, 0.7, 0.9] + [
        float(np.nextafter(f, to)) for f in (0.25, 0.5, 0.75, 0.875, 0.9375) for to in (0.0, 1.0)
    ]
    _SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300, 1.0]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
        p=st.sampled_from(_P),
        seed=st.integers(0, 2**64 - 1),
        fill=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_scalar_reference(self, n, p, seed, fill):
        gen = np.random.default_rng(fill)
        v0 = gen.standard_normal(n) * 10.0 ** gen.integers(-320, 300, n)
        special = gen.random(n) < 0.2
        v0[special] = gen.choice(self._SPECIAL, np.count_nonzero(special))
        v = v0.copy()
        dare_transform(v, p, (seed, 3, "layer.0.w"))
        expect = np.where(dare_mask_dense(seed, 3, "layer.0.w", n, p), v0 / (1 - p), 0.0)
        assert v.tobytes() == expect.tobytes()

    def test_scratch_is_a_small_fraction_of_the_array(self):
        # the draws and the drop mask live one block at a time
        v = np.random.default_rng(5).standard_normal(1 << 20)
        assert traced_peak(lambda: dare_transform(v, 0.9, (11, 0, "w"))) < 0.1 * v.nbytes

    def test_unbiased_over_many_seeds(self):
        # mean over 1e5 independent streams of dare([1.0], 0.5)
        total = 0.0
        for seed in range(100_000):
            total += dropped([1.0], 0.5, (seed, 0, "w"))[0]
        assert 0.99 <= total / 100_000 <= 1.01


def family(tmp_path, base_arrays, task_vectors, dtype="F32"):
    """Write base and base+tv models; returns (base_path, [model_paths])."""
    base_p = write_ckpt(tmp_path / "base.st", base_arrays, dtype=dtype)
    model_ps = []
    for i, tv in enumerate(task_vectors):
        model = {n: np.asarray(v) + tv[n] for n, v in base_arrays.items()}
        model_ps.append(write_ckpt(tmp_path / f"m{i}.st", model, dtype=dtype))
    return base_p, model_ps


def ties_merge_columns(tmp_path, columns, lambdas):
    """Merge task columns over a zero F32 base with TIES at density 1."""
    base_p, model_ps = family(
        tmp_path, {"w": np.zeros(len(columns[0]))}, [{"w": np.array(c)} for c in columns]
    )
    ids = [f"t{i}" for i in range(len(columns))]
    recipe = MergeRecipe(
        base=base_p,
        tasks=[TaskSpec(tid, p) for tid, p in zip(ids, model_ps)],
        output=str(tmp_path / "out.st"),
        transform="ties",
        ties_density=1.0,
    )
    coeffs = CoefficientSet(ids, lambdas, "external")
    handle, _ = run_recipe(recipe, coeffs_override=coeffs)
    return read_tensor(handle, "w").values.tolist()


# Hand-traced TIES columns at density 1 over a zero base: the elected sign is
# the sign of the coefficient-weighted sum, an exact zero sum elects 0, and
# only the tasks that agree with the elected sign contribute. Every value is
# exact in F32.
class TestTiesSignElection:
    def test_plain_sum_positive(self, tmp_path):
        # 0.75 - 0.25 + 0.5 > 0: the two positive entries are summed
        assert ties_merge_columns(tmp_path, [[0.75], [-0.25], [0.5]], [1.0, 1.0, 1.0]) == [1.25]

    def test_exact_zero_sum(self, tmp_path):
        # first column sums to exactly 0 and elects 0; the second elects +
        out = ties_merge_columns(tmp_path, [[-1.0, 2.0], [1.0, -1.0]], [1.0, 1.0])
        assert out == [0.0, 2.0]


class TestTiesDisjointMerge:
    def test_hand_traced_column(self, tmp_path):
        # weighted sum 0.1875 - 0.125 + 0.25 > 0; merged 0.25*0.75 + 0.5*0.5
        out = ties_merge_columns(tmp_path, [[0.75], [-0.25], [0.5]], [0.25, 0.5, 0.5])
        assert out == [0.4375]

    def test_zero_elected_sign_outputs_zero(self, tmp_path):
        # 0.5*(-0.5) + 1.0*0.25 == 0: neither task agrees with sign 0
        assert ties_merge_columns(tmp_path, [[-0.5], [0.25]], [0.5, 1.0]) == [0.0]


# (task columns, coefficients, merged column)
TIES_COLUMNS = {
    "weighted_sum": ([[-0.5], [0.125]], [0.125, 0.75], [0.09375]),
    "single_task": ([[1.0, -2.0, 0.0]], [0.75], [0.75, -1.5, 0.0]),
}


class TestTiesCombine:
    @pytest.mark.parametrize("case", list(TIES_COLUMNS))
    def test_hand_traced_columns(self, tmp_path, case):
        columns, lambdas, expect = TIES_COLUMNS[case]
        assert ties_merge_columns(tmp_path, columns, lambdas) == expect


def elect_and_merge_oracle(out, held):
    """The whole-array election the engine ran before its block form, kept
    to pin the block form's bytes: np.sign of the weighted sum and of each
    diff, and a putmask zeroing, over trimmed diffs held whole."""
    m = min(CHUNK, out.size)
    signs_buf, tmp_buf = np.empty(m), np.empty(m)
    hit_buf, nonzero_buf = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    for start in range(0, out.size, CHUNK):
        stop = min(start + CHUNK, out.size)
        s, tmp = signs_buf[: stop - start], tmp_buf[: stop - start]
        hit, nonzero = hit_buf[: stop - start], nonzero_buf[: stop - start]
        s.fill(0.0)
        for lam, v in held:
            np.multiply(lam, v[start:stop], out=tmp)
            s += tmp
        np.sign(s, out=s)
        np.not_equal(s, 0.0, out=nonzero)
        for lam, v in held:
            block = v[start:stop]
            np.sign(block, out=tmp)
            np.equal(tmp, s, out=hit)
            hit &= nonzero
            block *= lam
            np.logical_not(hit, out=hit)
            np.putmask(block, hit, 0.0)
            out[start:stop] += block


# Values that make the election's edge cases common: ties of equal magnitude,
# signed zeros, subnormals, and magnitudes whose scaled value underflows
ELECT_VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324,
                1e-310, -1e-310, 1e-200, -1e-200]
# zero, negative and underflowing coefficients among them
ELECT_LAMBDAS = [0.0, -0.0, 1.0, -1.0, 0.25, -0.75, 3.0, 1e-200, -1e-300, 5e-324]


class TestBlockElection:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 9, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
        lambdas=st.lists(st.sampled_from(ELECT_LAMBDAS) | st.floats(-4.0, 4.0),
                         min_size=1, max_size=4),
        zeros=st.floats(0.0, 1.0),
        fill=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_whole_array_election(self, n, lambdas, zeros, fill):
        # diffs mostly zero, as trimmed ones are; -0.0 and subnormals in the
        # base and in the diffs
        gen = np.random.default_rng(fill)
        base = gen.choice(ELECT_VALUES, n)
        diffs = [np.where(gen.random(n) < zeros, 0.0, gen.choice(ELECT_VALUES, n))
                 for _ in lambdas]
        want = base.copy()
        elect_and_merge_oracle(want, [(lam, d.copy()) for lam, d in zip(lambdas, diffs)])
        got = base.copy()
        merge_engine._elect(got, [(lam, d.copy()) for lam, d in zip(lambdas, diffs)])
        assert got.tobytes() == want.tobytes()


def ties_family(tmp_path, shapes, tasks=4, dtype="BF16"):
    rng = np.random.default_rng(23)
    base = {n: rng.standard_normal(s) for n, s in shapes.items()}
    tvs = [{n: 0.1 * (1 + t) * rng.standard_normal(s) for n, s in shapes.items()}
           for t in range(tasks)]
    base_p, model_ps = family(tmp_path, base, tvs, dtype=dtype)
    return [TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)], base_p


@pytest.fixture(scope="module")
def peak_family(tmp_path_factory):
    """(tasks, dtype) -> (task specs, base path) of a family whose largest
    tensor holds 2**20 elements; each is written once per module."""
    made = {}

    def make(tasks, dtype):
        if (tasks, dtype) not in made:
            root = tmp_path_factory.mktemp(f"peak-{tasks}-{dtype}")
            made[tasks, dtype] = ties_family(root, {"emb": (1024, 1024), "w": (256, 64)},
                                             tasks, dtype)
        return made[tasks, dtype]

    return make


def assert_ties_peak_at_eight_tasks(tmp_path, method):
    """The traced peak of a T = 8 F32 TIES merge whose largest tensor holds
    2**20 elements lies in the documented two-sided range."""
    specs, base_p = ties_family(tmp_path, {"emb": (1024, 1024), "w": (256, 64)}, 8, "F32")
    recipe = MergeRecipe(
        base=base_p, tasks=specs, output=str(tmp_path / "out.st"),
        method=method, transform="ties", ties_density=0.2,
    )
    peak = traced_peak(lambda: run_recipe(recipe))
    low, high = merge_peak_range("ties")
    assert low <= peak <= high


class TestTiesWalk:
    def test_trim_selects_once_per_task_and_tensor(self, tmp_path, monkeypatch):
        # one selection per (task, tensor), in the walk that takes norms;
        # combining replays the selections, and the engine never calls the
        # public ties_trim
        calls, in_combine = [], []
        real_finish, real_combine = selection.Selection.finish, merge_engine._ties_combine

        def counting_finish(select, again):
            calls.append(select.n)
            return real_finish(select, again)

        def watched_combine(*args):
            before = len(calls)
            real_combine(*args)
            in_combine.append(len(calls) - before)

        def no_trim(values, density):
            raise AssertionError("the engine called ties_trim")

        monkeypatch.setattr(selection.Selection, "finish", counting_finish)
        monkeypatch.setattr(merge_engine, "_ties_combine", watched_combine)
        monkeypatch.setattr(merge_engine, "ties_trim", no_trim)
        shapes = {"a": (40, 30), "b": (CHUNK + 9,), "c": (7,)}
        tasks, base_p = ties_family(tmp_path, shapes, tasks=3, dtype="F32")
        for method in ("metagpt", "weight_average"):
            recipe = MergeRecipe(
                base=base_p, tasks=tasks, output=str(tmp_path / f"{method}.st"),
                method=method, transform="ties", ties_density=0.2,
            )
            handle, _ = run_recipe(recipe)
            sizes = sorted(math.prod(shape) for shape in shapes.values())
            assert sorted(calls) == sorted(sizes * len(tasks))
            assert in_combine == [0] * len(shapes)
            calls.clear()
            in_combine.clear()
            expect, _ = reference_merge(base_p, [t.path for t in tasks], method=method,
                                        transform="ties", ties_density=0.2)
            for name in shapes:
                np.testing.assert_allclose(read_tensor(handle, name).values, expect[name],
                                           atol=1e-6)

    def test_peak_holds_when_candidates_are_dense(self, tmp_path, monkeypatch):
        # a first node of zero diffs leaves the window open above zero, so
        # every later magnitude is a candidate: gathering whole nodes of
        # them into the buffer, then binning them, stays inside the fixed
        # figure at 2**22 elements
        rng = np.random.default_rng(29)
        shape = (4096, 1024)
        base = {"emb": rng.standard_normal(shape)}
        tvs = [{"emb": 0.1 * rng.standard_normal(shape)} for _ in range(2)]
        for tv in tvs:
            tv["emb"].reshape(-1)[:_CHUNK] = 0.0
        base_p, model_ps = family(tmp_path, base, tvs, dtype="BF16")
        recipe = MergeRecipe(base=base_p, tasks=[TaskSpec(f"t{i}", p) for i, p in
                                                 enumerate(model_ps)],
                             output=str(tmp_path / "out.st"), transform="ties",
                             ties_density=0.2)
        gathered, real_gather = [], selection._gather

        def gather(mask, values, out):
            gathered.append(out.size)
            real_gather(mask, values, out)

        monkeypatch.setattr(selection, "_gather", gather)
        peak = traced_peak(lambda: run_recipe(recipe))
        assert max(gathered) > CHUNK
        assert peak <= merge_peak_range("ties")[1]

    def test_traced_peak_of_combining_holds_no_payload(self, tmp_path):
        # T = 8 F32: combining reads each task's blocks by range and holds
        # no raw read, so the peak stays the fixed figure
        assert_ties_peak_at_eight_tasks(tmp_path, "metagpt")

    def test_traced_peak_of_a_one_walk_merge_past_four_tasks(self, tmp_path):
        # a norm-free method walks once, selecting and combining tensor by
        # tensor, in blocks that shrink past four tasks, so its peak is the
        # same fixed figure
        assert_ties_peak_at_eight_tasks(tmp_path, "task_arithmetic_fixed")

    @pytest.mark.parametrize("tasks", [3, 8])
    @pytest.mark.parametrize("method", ["metagpt", "task_arithmetic_fixed"])
    def test_zero_element_tensors_and_shrunk_blocks(self, tmp_path, method, tasks):
        # tensors with no elements, between others and last, are written
        # too; at T = 8 the combine blocks are half a CHUNK, so a tensor of
        # CHUNK + 9 elements spans three of them
        shapes = {"a": (CHUNK + 9,), "b": (0,), "c": (7,), "d": (0, 3)}
        specs, base_p = ties_family(tmp_path, shapes, tasks, "F32")
        recipe = MergeRecipe(
            base=base_p, tasks=specs, output=str(tmp_path / "out.st"),
            method=method, transform="ties", ties_density=0.3, output_dtype="F32",
        )
        handle, _ = run_recipe(recipe)
        expect, _ = reference_merge(base_p, [t.path for t in specs], method=method,
                                    transform="ties", ties_density=0.3)
        for name, shape in shapes.items():
            got = read_tensor(handle, name)
            assert tuple(got.shape) == shape
            np.testing.assert_allclose(got.values, expect[name].reshape(-1),
                                       rtol=2**-23, atol=1e-12)


_W = np.random.default_rng(0).standard_normal((3, 50))
# (base, task vectors, coefficients, expected merge: values, "model" or "base")
OVERRIDE_CASES = {
    "two_tasks": ([1.0, 1.0], [[2.0, 0.0], [0.0, 4.0]], [0.5, 0.25], [2.0, 2.0]),
    "single_task_full_coefficient_reproduces_model": (_W[0], [_W[1]], [1.0], "model"),
    "zero_coefficients_reproduce_base": (_W[0], [_W[1], _W[2]], [0.0, 0.0], "base"),
}


class TestCoeffsOverride:
    @pytest.mark.parametrize("case", list(OVERRIDE_CASES))
    def test_scaled_sum(self, tmp_path, case):
        base_w, tvs, lambdas, expect = OVERRIDE_CASES[case]
        base_p, model_ps = family(
            tmp_path, {"w": np.array(base_w)}, [{"w": np.array(tv)} for tv in tvs]
        )
        ids = [f"t{i}" for i in range(len(tvs))]
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec(tid, p) for tid, p in zip(ids, model_ps)],
            output=str(tmp_path / "out.st"),
            method="task_arithmetic_fixed",
        )
        coeffs = CoefficientSet(ids, lambdas, "task_arithmetic_fixed")
        handle, _ = run_recipe(recipe, coeffs_override=coeffs)
        if expect in ("model", "base"):
            path = model_ps[0] if expect == "model" else base_p
            expect = read_tensor(open_checkpoint(path), "w").values.tolist()
        assert read_tensor(handle, "w").values.tolist() == expect

    @pytest.mark.parametrize("ids", [["b", "a"], ["x", "y"], ["a"]])
    def test_ids_must_match_recipe(self, tmp_path, ids):
        # the lambdas apply by position: swapped ids would merge a at c's lambda
        base_p, model_ps = family(
            tmp_path, {"w": np.zeros(2)}, [{"w": np.ones(2)}, {"w": -np.ones(2)}]
        )
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec("a", model_ps[0]), TaskSpec("b", model_ps[1])],
            output=str(tmp_path / "out.st"),
        )
        coeffs = CoefficientSet(ids, [1.0, 0.0][: len(ids)], "external")
        with pytest.raises(ValidationError, match="coefficients are for tasks"):
            run_recipe(recipe, coeffs_override=coeffs)
        assert not (tmp_path / "out.st").exists()


# Sizes that shrink and grow in sorted-name order, so each tensor is decoded,
# diffed and summed in the head of buffers that a larger or smaller tensor
# used before it. "c" has one element: every density keeps it whole, so the
# trim leaves the diff as it is.
REUSE_SHAPES = {"a": (6, 7), "b": (5,), "c": (1,), "d": (9, 13), "e": (3,)}


class TestWorkingBuffers:
    @pytest.mark.parametrize("method", ["metagpt", "weight_average"])
    @pytest.mark.parametrize(
        "transform,density,p",
        [("none", 0.55, 0.5), ("ties", 0.3, 0.5), ("ties", 1.0, 0.5),
         ("dare", 0.55, 0.0), ("dare", 0.55, 0.7)],
    )
    def test_reuse_matches_dense_reference(self, tmp_path, method, transform, density, p):
        rng = np.random.default_rng(41)
        base = {n: rng.standard_normal(s) for n, s in REUSE_SHAPES.items()}
        tvs = [
            {n: 0.3 * (1 + t) * rng.standard_normal(s) for n, s in REUSE_SHAPES.items()}
            for t in range(3)
        ]
        base_p, model_ps = family(tmp_path, base, tvs)
        runs = []
        for run in range(2):
            recipe = MergeRecipe(
                base=base_p,
                tasks=[TaskSpec(f"t{i}", mp) for i, mp in enumerate(model_ps)],
                output=str(tmp_path / f"out{run}.st"),
                method=method,
                transform=transform,
                ties_density=density,
                dare_p=p,
                seed=7,
            )
            handle, report = run_recipe(recipe)
            runs.append((Path(recipe.output).read_bytes(), report.coefficients,
                         report.raw_sq_norms, report.transformed_sq_norms))
        assert runs[0] == runs[1]
        expect, lambdas = reference_merge(
            base_p, model_ps, method=method, transform=transform,
            ties_density=density, dare_p=p, seed=7,
        )
        np.testing.assert_allclose(report.coefficients["lambdas"], lambdas, rtol=1e-12)
        for name in expect:
            np.testing.assert_allclose(read_tensor(handle, name).values, expect[name], atol=1e-6)


# Sizes that are no multiple of 8, on each side of the reduction's leaf and of
# a node; the last splits into three nodes.
NODE_WALK_SIZES = [1, 7, 13, 129, _LEAF - 1, _LEAF + 1, _CHUNK - 1, _CHUNK + 1,
                   2 * _CHUNK + 9]


class TestNodeWalk:
    @settings(max_examples=25, deadline=None)
    @given(
        # every task holds the first tensor, large enough that DARE keeps
        # some of it, so no closed-form norm is zero
        first=st.sampled_from([n for n in NODE_WALK_SIZES if n >= 129]),
        rest=st.lists(st.sampled_from(NODE_WALK_SIZES), max_size=2),
        dtype=st.sampled_from(["BF16", "F16", "F32"]),
        tasks=st.integers(1, 3),
        held=st.lists(st.booleans(), min_size=6, max_size=6),
        method=st.sampled_from(["metagpt", "task_arithmetic_fixed"]),
        transform=st.sampled_from(["none", "dare"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, first, rest, dtype, tasks, held, method,
                                     transform, seed):
        rng = np.random.default_rng(seed)
        sizes = {f"t{i}": n for i, n in enumerate([first, *rest])}
        base = {name: rng.standard_normal(n) for name, n in sizes.items()}
        models = []
        for t in range(tasks):
            # tensor i > 0 is missing from task t unless held[2 * t + i - 1]
            names = [name for i, name in enumerate(sizes) if i == 0 or held[2 * t + i - 1]]
            models.append({n: base[n] + 0.1 * (t + 1) * rng.standard_normal(sizes[n])
                           for n in names})
        with tempfile.TemporaryDirectory() as d:
            base_p = write_ckpt(Path(d) / "base.st", base, dtype=dtype)
            model_ps = [write_ckpt(Path(d) / f"m{t}.st", m, dtype=dtype)
                        for t, m in enumerate(models)]
            recipe = MergeRecipe(
                base=base_p,
                tasks=[TaskSpec(f"t{t}", p) for t, p in enumerate(model_ps)],
                output=str(Path(d) / "out.st"),
                method=method, transform=transform, dare_p=0.7, seed=seed,
                strict_keys=False, output_dtype="F32",
            )
            handle, report = run_recipe(recipe)
            expect, lambdas = reference_merge(base_p, model_ps, method=method,
                                              transform=transform, dare_p=0.7, seed=seed)
            np.testing.assert_allclose(report.coefficients["lambdas"], lambdas, rtol=1e-12)
            # folded node by node, each tensor's raw norm is np.sum's to the bit
            dense_base = read_checkpoint_dense(base_p)
            raw = []
            for p in model_ps:
                dense = read_checkpoint_dense(p)
                sq = np.float64(0.0)
                for name in sorted(dense):
                    diff = dense[name] - dense_base[name]
                    sq += np.sum(diff * diff)
                raw.append(float(sq))
            assert report.raw_sq_norms == raw
            for name in sizes:
                # the engine's float64 sum differs from the reference's in the
                # last bits at most; the F32 output rounds it to 24
                np.testing.assert_allclose(read_tensor(handle, name).values, expect[name],
                                           rtol=2**-23, atol=1e-12)


# Sizes of the first tensor, on each side of _CHUNK and over several combine
# blocks; the others are on each side of a combine block, or small
TIES_WALK_FIRST = [CHUNK + 9, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 9]
TIES_WALK_REST = [1, 7, CHUNK - 1, CHUNK + 1]


class TestTiesNodeWalk:
    """TIES merges, whose combine decodes each held task one block at a
    time and replays its trim there, against the dense reference."""

    @settings(max_examples=25, deadline=None)
    @given(
        first=st.sampled_from(TIES_WALK_FIRST),
        rest=st.lists(st.sampled_from(TIES_WALK_REST), max_size=2),
        tie=st.sampled_from([-2, -1, 0, 1]),
        dtype=st.sampled_from(["BF16", "F16", "F32"]),
        tasks=st.integers(1, 3),
        held=st.lists(st.booleans(), min_size=6, max_size=6),
        method=st.sampled_from(["metagpt", "task_arithmetic_fixed", "given"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, first, rest, tie, dtype, tasks, held, method,
                                     seed):
        rng = np.random.default_rng(seed)
        sizes = {f"t{i}": n for i, n in enumerate([first, *rest])}
        # quantized values, exact in every dtype, so magnitudes tie often
        base = {name: rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], n) for name, n in sizes.items()}
        diffs = [{name: rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], n)
                  for name, n in sizes.items()} for _ in range(tasks)]
        # task 0's first diff keeps its last tie of magnitude 1 at `tie` from
        # the last combine block boundary; the density is set to do so
        d = diffs[0]["t0"]
        boundary = (first - 3) // CHUNK * CHUNK
        last = boundary + tie
        d[last] = 1.0
        mag = np.abs(d)
        k = int(np.count_nonzero(mag > 1.0) + np.count_nonzero(mag[: last + 1] == 1.0))
        density = (k - 0.5) / first
        assert math.ceil(density * first) == k
        models = []
        for t in range(tasks):
            # tensor i > 0 is missing from task t unless held[2 * t + i - 1]
            names = [name for i, name in enumerate(sizes) if i == 0 or held[2 * t + i - 1]]
            models.append({n: base[n] + diffs[t][n] for n in names})
        given_lambdas = [0.75, -0.25, 0.5][:tasks] if method == "given" else None
        with tempfile.TemporaryDirectory() as tmp:
            base_p = write_ckpt(Path(tmp) / "base.st", base, dtype=dtype)
            model_ps = [write_ckpt(Path(tmp) / f"m{t}.st", m, dtype=dtype)
                        for t, m in enumerate(models)]
            ids = [f"t{t}" for t in range(tasks)]
            recipe = MergeRecipe(
                base=base_p,
                tasks=[TaskSpec(i, p) for i, p in zip(ids, model_ps)],
                output=str(Path(tmp) / "out.st"),
                method="metagpt" if method == "given" else method,
                transform="ties", ties_density=density,
                strict_keys=False, output_dtype="F32",
            )
            given = None if given_lambdas is None else CoefficientSet(ids, given_lambdas,
                                                                     "external")
            handle, report = run_recipe(recipe, given)
            expect, lambdas = reference_merge(
                base_p, model_ps, method=recipe.method, transform="ties",
                ties_density=density, lambdas=given_lambdas,
            )
            np.testing.assert_allclose(report.coefficients["lambdas"], lambdas, rtol=1e-12)
            # both norms are np.sum's to the bit, tensor by tensor
            dense_base = read_checkpoint_dense(base_p)
            raw, trimmed_sq = [], []
            for p in model_ps:
                dense = read_checkpoint_dense(p)
                sq, tsq = np.float64(0.0), np.float64(0.0)
                for name in sorted(dense):
                    diff = dense[name] - dense_base[name]
                    sq += np.sum(diff * diff)
                    cut = trim_dense(diff, density)
                    tsq += np.sum(cut * cut)
                raw.append(float(sq))
                trimmed_sq.append(float(tsq))
            assert report.raw_sq_norms == raw
            assert report.transformed_sq_norms == trimmed_sq
            for name in sizes:
                np.testing.assert_allclose(read_tensor(handle, name).values, expect[name],
                                           rtol=2**-23, atol=1e-12)


# (transform, method); "given" is metagpt with coefficients passed in, which
# walks once like the norm-free methods
PEAK_CASES = [
    *itertools.product(merge_engine.TRANSFORMS, ("metagpt", "task_arithmetic_fixed")),
    ("ties", "given"),
]


class TestRunRecipe:
    def test_metagpt_lambdas_quarter_three_quarters(self, tmp_path):
        base_p, model_ps = family(
            tmp_path,
            {"w": np.zeros(4)},
            [
                {"w": np.array([1.0, 0.0, 0.0, 0.0])},  # sq norm 1
                {"w": np.array([0.0, 1.0, 1.0, 1.0])},  # sq norm 3
            ],
        )
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec("a", model_ps[0]), TaskSpec("b", model_ps[1])],
            output=str(tmp_path / "out.st"),
            method="metagpt",
        )
        handle, report = run_recipe(recipe)
        assert report.coefficients["lambdas"] == [0.25, 0.75]
        expect = 0.25 * np.array([1.0, 0, 0, 0]) + 0.75 * np.array([0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(read_tensor(handle, "w").values, expect, atol=1e-7)

    @pytest.mark.parametrize("walk", [1, 2])
    def test_interrupt_in_either_walk_leaves_no_partial(self, tmp_path, monkeypatch,
                                                         small_family, walk):
        paths, *_ = small_family
        calls = []
        real_dare = merge_engine.dare_transform

        def dare(values, p, key, offset=0):
            calls.append(key)
            if len(calls) == stop_at:
                raise KeyboardInterrupt
            real_dare(values, p, key, offset)

        monkeypatch.setattr(merge_engine, "dare_transform", dare)
        recipe = MergeRecipe(
            base=paths["base"], tasks=[TaskSpec("t1", paths["m1"]), TaskSpec("t2", paths["m2"])],
            output=str(tmp_path / "out.st"), transform="dare", dare_p=0.5,
        )
        # a clean run counts the calls: both walks make one per (node, task)
        stop_at = 0
        run_recipe(recipe)
        assert len(calls) == 8
        Path(recipe.output).unlink()
        stop_at = 1 if walk == 1 else 5
        calls.clear()
        with pytest.raises(KeyboardInterrupt):
            run_recipe(recipe)
        assert len(calls) == stop_at
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base.st", "m1.st", "m2.st"]

    def test_fixed_lambda_reported(self, tmp_path):
        base_p, model_ps = family(
            tmp_path, {"w": np.zeros(3)}, [{"w": np.ones(3)}, {"w": -np.ones(3)}]
        )
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec("a", model_ps[0]), TaskSpec("b", model_ps[1])],
            output=str(tmp_path / "out.st"),
            method="task_arithmetic_fixed",
        )
        _, report = run_recipe(recipe)
        assert report.coefficients["lambdas"] == [0.3, 0.3]

    def test_deterministic_bytes_and_report(self, tmp_path):
        rng = np.random.default_rng(5)
        base_p, model_ps = family(
            tmp_path,
            {"a": rng.standard_normal(64), "b": rng.standard_normal((4, 4))},
            [
                {"a": 0.1 * rng.standard_normal(64), "b": 0.1 * rng.standard_normal((4, 4))},
                {"a": 0.2 * rng.standard_normal(64), "b": 0.2 * rng.standard_normal((4, 4))},
            ],
        )
        outputs, reports = [], []
        for run in range(2):
            out = str(tmp_path / f"out{run}.st")
            recipe = MergeRecipe(
                base=base_p,
                tasks=[TaskSpec("a", model_ps[0]), TaskSpec("b", model_ps[1])],
                output=out,
                method="metagpt",
                transform="dare",
                dare_p=0.25,
                seed=99,
            )
            _, report = run_recipe(recipe)
            outputs.append(Path(out).read_bytes())
            # the echoed recipe differs in the output path, drop it
            d = json.loads(report.to_json())
            d["recipe"].pop("output")
            reports.append(json.dumps(d, sort_keys=True))
        assert outputs[0] == outputs[1]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("method", ["weight_average", "task_arithmetic_fixed", "metagpt"])
    @pytest.mark.parametrize("transform", ["none", "ties", "dare"])
    def test_matches_dense_reference(self, tmp_path, method, transform):
        rng = np.random.default_rng(17)
        base = {"w.x": rng.standard_normal((8, 9)), "w.y": rng.standard_normal(31)}
        tvs = [
            {n: 0.3 * rng.standard_normal(v.shape) for n, v in base.items()} for _ in range(3)
        ]
        base_p, model_ps = family(tmp_path, base, tvs)
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)],
            output=str(tmp_path / "out.st"),
            method=method,
            transform=transform,
            seed=31337,
        )
        handle, report = run_recipe(recipe)
        expect, lambdas = reference_merge(
            base_p, model_ps, method=method, transform=transform, seed=31337
        )
        np.testing.assert_allclose(report.coefficients["lambdas"], lambdas, rtol=1e-12)
        for name in expect:
            got = read_tensor(handle, name).values
            np.testing.assert_allclose(got, expect[name], atol=1e-6)

    @pytest.mark.parametrize("transform", ["none", "ties", "dare"])
    def test_external_coefficients_match_dense_reference(self, tmp_path, transform):
        rng = np.random.default_rng(23)
        base = {"w.x": rng.standard_normal(200), "w.y": rng.standard_normal((5, 5))}
        tvs = [
            {n: 0.3 * rng.standard_normal(v.shape) for n, v in base.items()} for _ in range(3)
        ]
        base_p, model_ps = family(tmp_path, base, tvs)
        external = [0.7, 0.2, 0.4]
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)],
            output=str(tmp_path / "out.st"),
            method="task_arithmetic_fixed",
            transform=transform,
            seed=5,
        )
        coeffs = CoefficientSet([f"t{i}" for i in range(3)], external, "external")
        handle, _ = run_recipe(recipe, coeffs_override=coeffs)
        expect, _ = reference_merge(
            base_p, model_ps, method="task_arithmetic_fixed", transform=transform,
            seed=5, lambdas=external,
        )
        for name in expect:
            np.testing.assert_allclose(
                read_tensor(handle, name).values, expect[name], atol=1e-6
            )

    def test_ties_density_one_consistent_signs_equals_plain(self, tmp_path):
        rng = np.random.default_rng(2)
        base = {"w": rng.standard_normal(128)}
        # strictly positive task vectors: signs agree everywhere
        tvs = [{"w": np.abs(rng.standard_normal(128)) + 0.01} for _ in range(3)]
        base_p, model_ps = family(tmp_path, base, tvs)
        tasks = [TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)]
        out_ties = str(tmp_path / "ties.st")
        out_plain = str(tmp_path / "plain.st")
        run_recipe(
            MergeRecipe(base=base_p, tasks=tasks, output=out_ties, method="metagpt",
                        transform="ties", ties_density=1.0)
        )
        run_recipe(
            MergeRecipe(base=base_p, tasks=tasks, output=out_plain, method="metagpt",
                        transform="none")
        )
        a = read_tensor(open_checkpoint(out_ties), "w").values
        b = read_tensor(open_checkpoint(out_plain), "w").values
        np.testing.assert_allclose(a, b, atol=1e-7)

    @pytest.mark.parametrize("dtype", ["BF16", "F32"])
    @pytest.mark.parametrize("tasks", [1, 4])
    @pytest.mark.parametrize("transform,method", PEAK_CASES)
    def test_peak_buffers_within_bound(self, tmp_path, peak_family, transform, method,
                                       tasks, dtype):
        # the documented bound holds, and the measured peak sits close below it
        specs, base_p = peak_family(tasks, dtype)
        recipe = MergeRecipe(
            base=base_p, tasks=specs, output=str(tmp_path / "out.st"),
            method="metagpt" if method == "given" else method, transform=transform,
            ties_density=0.2, dare_p=0.9,
        )
        given = None
        if method == "given":
            given = CoefficientSet([t.id for t in specs], [1 / tasks] * tasks, "external")
        peak = traced_peak(lambda: run_recipe(recipe, given))
        low, high = merge_peak_range(transform)
        assert low <= peak <= high

    @pytest.mark.parametrize("transform,tasks", [
        pytest.param("none", 2, id="none"),
        pytest.param("dare", 2, id="dare"),
        pytest.param("ties", 2, id="ties"),
        pytest.param("ties", 4, id="ties-4"),
        pytest.param("ties", 8, id="ties-8"),
    ])
    def test_node_walk_peak_does_not_grow_with_the_tensor(self, tmp_path, transform, tasks):
        # node by node, a tensor four times larger adds nothing to the peak,
        # at 2**20 and 2**22 elements; with TIES at any number of tasks, as
        # no buffer the size of a tensor is left
        peaks = []
        for rows in (1024, 4096):
            root = tmp_path / str(rows)
            root.mkdir()
            specs, base_p = ties_family(root, {"emb": (rows, 1024), "w": (256, 64)}, tasks,
                                        "BF16")
            recipe = MergeRecipe(base=base_p, tasks=specs, output=str(root / "out.st"),
                                 transform=transform, ties_density=0.2, dare_p=0.9)
            peak = traced_peak(lambda: run_recipe(recipe))
            low, high = merge_peak_range(transform)
            assert low <= peak <= high
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 64 << 10

    @pytest.mark.parametrize("transform", ["none", "dare", "ties"])
    def test_second_large_tensor_adds_nothing_to_the_peak(self, tmp_path, transform):
        # the walk's node arrays are made once, so a tensor's arrays are not
        # still held while the next tensor's nodes are read
        peaks = []
        for i, second in enumerate([(256, 64), (1024, 1024)]):
            root = tmp_path / str(i)
            root.mkdir()
            shapes = {"a": (1024, 1024), "b": second}
            specs, base_p = ties_family(root, shapes, 2, "BF16")
            recipe = MergeRecipe(base=base_p, tasks=specs, output=str(root / "out.st"),
                                 transform=transform, ties_density=0.2, dare_p=0.9)
            peaks.append(traced_peak(lambda: run_recipe(recipe)))
        assert abs(peaks[1] - peaks[0]) <= 64 << 10

    def test_mid_merge_failure_leaves_no_output(self, tmp_path):
        # tensor "zz" overflows F16 on write, after "aa" was already written
        base = {"aa": np.array([1.0, 2.0]), "zz": np.array([30000.0])}
        tvs = [{"aa": np.array([0.1, 0.1]), "zz": np.array([30000.0])}]
        base_p, model_ps = family(tmp_path, base, tvs, dtype="F16")
        out = tmp_path / "out.st"
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec("a", model_ps[0])],
            output=str(out),
            method="task_arithmetic_fixed",
            fixed_lambda=2.0,
        )
        with pytest.raises(ValidationError, match="overflow"):
            run_recipe(recipe)
        assert not out.exists()
        assert not any(p.name.startswith("out.st") for p in tmp_path.iterdir())

    def test_strict_missing_name_fails(self, tmp_path):
        base_p = write_ckpt(tmp_path / "b.st", {"x": np.zeros(2), "y": np.zeros(2)})
        model_p = write_ckpt(tmp_path / "m.st", {"x": np.ones(2)})
        recipe = MergeRecipe(
            base=base_p, tasks=[TaskSpec("a", model_p)], output=str(tmp_path / "o.st")
        )
        with pytest.raises(ValidationError, match="key-compatible"):
            run_recipe(recipe)
        assert not (tmp_path / "o.st").exists()

    def test_lenient_missing_and_extra_names(self, tmp_path):
        base_p = write_ckpt(tmp_path / "b.st", {"x": np.zeros(2), "y": np.full(3, 2.0)})
        model_p = write_ckpt(
            tmp_path / "m.st", {"x": np.array([3.0, 4.0]), "extra": np.ones(1)}
        )
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec("a", model_p)],
            output=str(tmp_path / "o.st"),
            method="task_arithmetic_fixed",
            fixed_lambda=1.0,
            strict_keys=False,
        )
        handle, report = run_recipe(recipe)
        assert report.skipped_names == ["extra"]
        assert report.missing_names == {"y": ["a"]}
        assert set(handle.index) == {"x", "y"}
        # missing tensor passes through from the base
        np.testing.assert_array_equal(read_tensor(handle, "y").values, np.full(3, 2.0))

    def test_output_dtype_f32_override(self, tmp_path):
        base_p, model_ps = family(
            tmp_path, {"w": np.array([1.0, 2.0])}, [{"w": np.array([0.5, 0.5])}], dtype="BF16"
        )
        recipe = MergeRecipe(
            base=base_p,
            tasks=[TaskSpec("a", model_ps[0])],
            output=str(tmp_path / "o.st"),
            output_dtype="F32",
        )
        handle, _ = run_recipe(recipe)
        assert handle.index["w"].dtype == "F32"

    def test_metadata_propagates(self, tmp_path):
        base_p = write_ckpt(tmp_path / "b.st", {"x": np.zeros(2)}, metadata={"family": "demo"})
        model_p = write_ckpt(tmp_path / "m.st", {"x": np.ones(2)})
        recipe = MergeRecipe(
            base=base_p, tasks=[TaskSpec("a", model_p)], output=str(tmp_path / "o.st")
        )
        handle, _ = run_recipe(recipe)
        assert handle.metadata == {"family": "demo"}

    def test_dare_p_zero_draws_nothing(self, tmp_path, monkeypatch):
        draws = []
        real_stream = merge_engine.uniform_stream

        def counting_stream(seed, count, offset=0):
            draws.append(count)
            return real_stream(seed, count, offset)

        monkeypatch.setattr(merge_engine, "uniform_stream", counting_stream)
        base_p, model_ps = family(
            tmp_path,
            {"w": np.array([0.5, -1.0, 2.0, 0.0])},
            [{"w": np.array([0.1, -0.2, 0.3, -0.4])}],
        )
        merged = {}
        for transform, p in (("dare", 0.0), ("none", 0.0), ("dare", 0.5)):
            out = str(tmp_path / f"{transform}-{p}.st")
            recipe = MergeRecipe(
                base=base_p, tasks=[TaskSpec("a", model_ps[0])], output=out,
                transform=transform, dare_p=p,
            )
            run_recipe(recipe)
            merged[transform, p] = Path(out).read_bytes()
            if p == 0.0:
                assert draws == []
        assert merged["dare", 0.0] == merged["none", 0.0]
        assert sum(draws) == 8  # the wrapper does see the draws of p > 0

    def test_norm_source_changes_dare_coefficients(self, tmp_path):
        rng = np.random.default_rng(12)
        base = {"w": rng.standard_normal(300)}
        tvs = [{"w": 0.5 * rng.standard_normal(300)} for _ in range(2)]
        base_p, model_ps = family(tmp_path, base, tvs)
        lambdas = {}
        for source in ("raw", "transformed"):
            recipe = MergeRecipe(
                base=base_p,
                tasks=[TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)],
                output=str(tmp_path / f"o_{source}.st"),
                method="metagpt",
                transform="dare",
                dare_p=0.5,
                seed=8,
                norm_source=source,
            )
            _, report = run_recipe(recipe)
            lambdas[source] = report.coefficients["lambdas"]
        assert lambdas["raw"] != lambdas["transformed"]


class TestRecipeSchema:
    def valid(self):
        return {
            "base": "b.st",
            "tasks": [{"id": "a", "path": "m.st"}],
            "output": "o.st",
        }

    def test_defaults(self):
        r = MergeRecipe.from_dict(self.valid())
        assert (r.method, r.transform) == ("metagpt", "none")
        assert (r.ties_density, r.dare_p, r.fixed_lambda) == (0.55, 0.5, 0.3)
        assert (r.seed, r.strict_keys) == (0, True)
        assert (r.norm_source, r.output_dtype) == ("transformed", "base")

    def test_density_out_of_range(self):
        bad = self.valid() | {"ties_density": 1.2}
        with pytest.raises(RecipeError, match="density out of range"):
            MergeRecipe.from_dict(bad)

    def test_dare_p_out_of_range(self):
        with pytest.raises(RecipeError, match="drop probability"):
            MergeRecipe.from_dict(self.valid() | {"dare_p": 1.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(RecipeError, match="unknown recipe keys"):
            MergeRecipe.from_dict(self.valid() | {"surprise": 1})

    def test_missing_required_key(self):
        spec = self.valid()
        del spec["output"]
        with pytest.raises(RecipeError, match="missing required key"):
            MergeRecipe.from_dict(spec)

    def test_duplicate_task_ids(self):
        spec = self.valid()
        spec["tasks"] = [{"id": "a", "path": "1.st"}, {"id": "a", "path": "2.st"}]
        with pytest.raises(RecipeError, match="unique"):
            MergeRecipe.from_dict(spec)

    @pytest.mark.parametrize("entry", [{"id": 5, "path": "m.st"}, {"id": "a", "path": None},
                                       {"id": ["a"], "path": "m.st"}])
    def test_non_string_task_id_or_path(self, entry):
        with pytest.raises(RecipeError, match="task (id|path) must be a string"):
            MergeRecipe.from_dict(self.valid() | {"tasks": [entry]})

    def test_bad_seed(self):
        with pytest.raises(RecipeError, match="seed"):
            MergeRecipe.from_dict(self.valid() | {"seed": -1})

    def test_roundtrip(self):
        r = MergeRecipe.from_dict(self.valid())
        assert MergeRecipe.from_dict(r.to_dict()).to_dict() == r.to_dict()
