"""Exact selection of the k-th largest magnitude of a diff that is read
node by node, in a buffer of fixed size, as the TIES trim needs it: the
threshold ``thr`` and how many elements equal to it to keep, whatever the
size of the diff. ``merge_engine`` feeds it the nodes of each pass."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np

from .rng import CHUNK
from .tensor_store import _CHUNK

# int64 bits of +inf, above every finite magnitude
_ABOVE_ALL = 0x7FF0_0000_0000_0000
# the buffer a TIES selection collects candidates in: 512 KiB, whatever the
# size of the tensor
_CANDIDATES = 2**16
# bins of the histogram a selection folds its candidates into when they
# overflow the buffer
_BINS = 2**12


class Selection:
    """The k-th largest of the n magnitudes of a diff, exactly, from passes
    over its nodes' magnitudes in order, holding one buffer of
    ``_CANDIDATES`` values and nothing that grows with n.

    A pass is given two pivots, ``low <= high``. It counts the magnitudes
    above ``high``, equal to it and equal to ``low``, and copies those
    strictly between into the buffer; what lies below ``low`` is passed
    over. The first pass of a task takes its pivots from its first node of
    m elements: the magnitudes at ranks ``r = k * m / n`` from the top, less
    and plus a margin of ``4 * sqrt(r * (1 - r / m)) + 2``, four standard
    deviations of the count above the k-th in that sample, widened when
    the node's sixteen blocks vary more than random draws would (rows of
    unlike scales, say). A sample of one value, as a first node of zeros,
    leaves ``high`` open above every magnitude. Should the buffer fill while
    the nodes so far vary no more than random draws, the first pass narrows
    its pivots in (``_narrow``). The k-th then nearly always lies between
    the pivots, and ``settle`` finds it and the number of its ties to keep
    with no further pass: ``(thr, need)``, as ``ties_trim`` keeps them.

    Otherwise the pass names the window that holds the k-th, and the next
    pass takes the window's ends as its pivots: above ``high``, below
    ``low``, or between them when more than ``_CANDIDATES`` candidates came.
    An overflowing pass that does not narrow counts its candidates into a
    histogram of ``_BINS`` bins, and the next window is the bin that holds
    the k-th. The bins span the middle of the candidates the buffer held,
    padded, with one more bin either side for the rest of the window; after
    a pass that ends in one of those two, the bins span the whole window.
    So every two such passes narrow the window about ``_BINS``-fold at
    least, and a bin one value wide settles the selection: a selection ends
    within a fixed number of passes whatever the values.

    Pivots and window ends are kept as the int64 bits of the magnitudes:
    for finite values with the sign bit clear, int64 order is float order,
    subnormals included, and the bins are ranges of bits. The compares run
    on the floats, which numpy vectorizes better.
    """

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        m = min(n, _CHUNK)
        self.capacity = min(n, _CANDIDATES)
        # the buffer holds a node too, so an overflowing pass can gather a
        # node's sparse candidates there to bin them
        self.buf = np.empty(max(self.capacity, m))
        self._mask, self._inner = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
        self.restart()

    def restart(self) -> None:
        """Begin the first pass over another task's diff."""
        self.low = self.high = None
        self._begin(first=True, fit=True)

    def _begin(self, first: bool, fit: bool) -> None:
        self.above = self.at_high = self.at_low = self.count = self.seen = 0
        self.hist = None
        self.first, self.fit = first, fit
        self._spread = _Spread()

    def finish(self, again: Callable[[], Iterable[np.ndarray]]) -> tuple[float, int]:
        """The selection, once the first pass is counted: runs the passes
        ``settle`` asks for, each over the node magnitudes ``again()``
        yields."""
        while (result := self.settle()) is None:
            for mag in again():
                self.add(mag)
        return result

    def add(self, mag: np.ndarray) -> None:
        """Count *mag*, the magnitudes of the pass's next node, which it may
        reorder or overwrite."""
        if self.high is None:
            self._pivot(mag)
        counts = self._count(mag)
        if self.hist is None and self.count + counts[3] > self.capacity and self._narrow():
            counts = self._count(mag)
        above, at_high, at_low, c = counts
        self.above += above
        self.at_high += at_high
        self.at_low += at_low
        self.seen += mag.size
        self._spread.add(above + at_high + c, mag.size)
        if not c:
            return
        mask = self._mask[: mag.size]
        if self.hist is None and self.count + c <= self.capacity:
            _gather(mask, mag, self.buf[self.count : self.count + c])
        else:
            self._bin(mag, mask, c)
        self.count += c

    def _count(self, mag: np.ndarray) -> tuple[int, int, int, int]:
        """How many of *mag* lie above ``high``, at it, at ``low`` and
        strictly between, those last where ``_mask`` then holds."""
        low, high = _magnitude(self.low), _magnitude(self.high)
        mask, inner = self._mask[: mag.size], self._inner[: mag.size]
        at_high = int(np.count_nonzero(np.equal(mag, high, out=mask)))
        if self.low == self.high:
            return int(np.count_nonzero(np.greater(mag, high, out=mask))), at_high, 0, 0
        at_low = int(np.count_nonzero(np.equal(mag, low, out=mask)))
        # above low lie the candidates, the ties of high and what is above it
        above_low = int(np.count_nonzero(np.greater(mag, low, out=mask)))
        mask &= np.less(mag, high, out=inner)
        c = int(np.count_nonzero(mask))
        return above_low - c - at_high, at_high, at_low, c

    def _pivot(self, mag: np.ndarray) -> None:
        m = mag.size
        r = self.k * m / self.n
        margin = 4 * math.sqrt(r * (1 - r / m)) + 2
        if m < self.n:
            # sixteen blocks of the node, each counted above the k-th as
            # every 16th element places it: blocks that vary more than
            # random draws would widen the margin
            sample = np.sort(mag[::16])
            above = np.greater(mag, sample[int((sample.size - 1) * (1 - r / m))],
                               out=self._mask[:m])
            blocks = _Spread()
            edges = [m * b // 16 for b in range(17)]
            for lo, hi in zip(edges, edges[1:]):
                blocks.add(int(np.count_nonzero(above[lo:hi])), hi - lo)
            if (ratio := blocks.ratio()) > 2:
                margin = (margin - 2) * math.sqrt(ratio) + 2
        top, bottom = max(1, math.floor(r - margin)), min(m, math.ceil(r + margin))
        # two partitions, the second on the top part only: faster in numpy
        # than one partition with two kth
        mag.partition(m - bottom)
        self.low = int(mag[m - bottom].view(np.int64))
        mag[m - bottom :].partition(bottom - top)
        self.high = int(mag[m - top].view(np.int64))
        if self.low == self.high and m < self.n and mag.max() == _magnitude(self.high):
            # a sample of one value, as a first node of zeros, says nothing
            # of what lies above it
            self.high = _ABOVE_ALL

    def _narrow(self) -> bool:
        """With the buffer full in a first pass: move the pivots in to the
        candidates about the rank the k-th has among the magnitudes seen so
        far, were they like the rest, ``capacity // 4`` ranks either side,
        and keep only the candidates strictly between. Returns whether it
        did; if not, the pass bins instead.

        It does so only when the spread is at least four standard
        deviations of that rank, taking the variance from how the nodes so
        far varied in their counts above ``low``, and when it leaves at
        most half the buffer full. A first node unlike the rest, or nodes
        that drift, show as a variance far above random draws'."""
        spread = self.capacity // 4
        r = self.k * self.seen / self.n
        if not self.first or spread < 1 or self._spread.nodes < 8:
            return False
        if 4 * math.sqrt(max(self._spread.ratio(), 1) * r * (1 - r / self.seen)) + 2 > spread:
            return False
        # ranks among the candidates, from the top
        r -= self.above + self.at_high
        count = self.count
        top = min(max(math.floor(r - spread), 0), count)
        bottom = max(min(math.ceil(r + spread), count + 1), 1)
        if bottom - top - 1 > self.capacity // 2 or (top, bottom) == (0, count + 1):
            return False
        cand = self.buf[:count]
        # ascending positions of the new high and low; count and -1 keep them
        j, i = count - top, count - bottom
        cand.partition([p for p in (i, j) if 0 <= p < count])
        if j < count:
            high = cand[j]
            self.above += self.at_high + int(np.count_nonzero(cand > high))
            self.at_high = int(np.count_nonzero(cand == high))
            self.high = int(high.view(np.int64))
        if i >= 0:
            low = cand[i]
            self.at_low = int(np.count_nonzero(cand == low))
            self.low = int(low.view(np.int64))
        self._spread = _Spread()
        if self.low == self.high:
            self.at_low = self.count = 0
            return True
        # the band cand[i + 1 : j] may hold ties of the new ends: its lowest
        # and highest values, partitioned out to its two ends
        band = cand[i + 1 : j]
        ties_low = int(np.count_nonzero(band == cand[i])) if i >= 0 else 0
        ties_high = int(np.count_nonzero(band == cand[j])) if j < count else 0
        if ties_low:
            band.partition(ties_low - 1)
        if ties_high:
            band[ties_low:].partition(band.size - ties_low - ties_high)
        s, e = i + 1 + ties_low, j - ties_high
        # to the front of the buffer, by one copy that never overlaps
        self.count = e - s
        if self.count <= s:
            cand[: self.count] = cand[s:e]
        else:
            cand[:s] = cand[e - s : e]
        return True

    def _bin(self, mag: np.ndarray, mask: np.ndarray, c: int) -> None:
        """Count the c candidates of *mag*, where *mask* holds, into the
        histogram, which begins with those the buffer holds. Sparse
        candidates are gathered into the buffer, then scratch, and binned
        there; dense ones are binned with the whole node in place, the
        others into bin 0 and then out of it, which costs less than
        gathering them."""
        if self.hist is None:
            # bins over the bits [lo, hi): the range of the middle 62/64 of
            # the candidates in the buffer, padded by half of it either
            # side, or the window
            lo, hi = self.low + 1, self.high
            if self.fit and self.count:
                cand, e = self.buf[: self.count], self.count // 64
                cand.partition([e, self.count - 1 - e])
                a, b = (int(x.view(np.int64)) for x in (cand[e], cand[self.count - 1 - e]))
                b += 1
                lo, hi = max(lo, a - (b - a) // 2), min(hi, b + (b - a) // 2)
            self.shift = max(0, (hi - lo - 1).bit_length() - _BINS.bit_length() + 1)
            self.origin = lo
            # bin 0 below lo, the last at and above the end of the others
            self.hist = np.zeros(((hi - lo - 1) >> self.shift) + 3, dtype=np.int64)
            self.hist += np.bincount(self._to_bins(self.buf[: self.count]),
                                     minlength=self.hist.size)
        if 8 * c < mag.size:
            np.compress(mask, mag, out=self.buf[:c])
            bins, others = self._to_bins(self.buf[:c]), 0
        else:
            bins, others = self._to_bins(mag), mag.size - c
            bins *= mask
        self.hist += np.bincount(bins, minlength=self.hist.size)
        self.hist[0] -= others

    def _to_bins(self, part: np.ndarray) -> np.ndarray:
        """The bins of the magnitudes *part*, in place of their bits."""
        bits = part.view(np.int64)
        bits -= np.int64(self.origin)
        bits >>= self.shift
        np.clip(bits, -1, self.hist.size - 2, out=bits)
        bits += 1
        return bits

    def settle(self) -> tuple[float, int] | None:
        """After a pass: ``(thr, need)``, the k-th largest magnitude and how
        many elements equal to it a selection of k keeps, or None when the
        window that holds it needs another pass, with its ends as pivots."""
        r = self.k - self.above  # the k-th's rank among magnitudes <= high
        fit = True
        if r <= 0:
            window = self.high, _ABOVE_ALL
        elif r <= self.at_high:
            return _magnitude(self.high), r
        elif (r := r - self.at_high) <= self.count:
            if self.hist is None:
                # every candidate is in the buffer: partition them there
                cand = self.buf[: self.count]
                i = self.count - r
                cand.partition(i)
                thr = float(cand[i])
                return thr, r - int(np.count_nonzero(cand[i + 1 :] != thr))
            above = np.cumsum(self.hist[::-1])
            j = int(np.searchsorted(above, r))
            b = self.hist.size - 1 - j
            last = self.hist.size - 1
            if b == 0:
                lo, hi = self.low + 1, self.origin
            else:
                lo = self.origin + ((b - 1) << self.shift)
                hi = min(lo + (1 << self.shift), self.high) if b < last else self.high
            if hi - lo == 1:
                return _magnitude(lo), r - int(above[j] - self.hist[b])
            window = lo - 1, hi
            fit = 0 < b < last
        elif (r := r - self.count) <= self.at_low:
            return _magnitude(self.low), r
        else:
            window = -1, self.low
        self.low, self.high = window
        self._begin(first=False, fit=fit)
        return None


class _Spread:
    """Counts of hits in groups (nodes, or blocks of a node), and how much
    more they vary than binomial draws of the pooled rate would:
    Pearson's chi-square over its degrees of freedom, about 1 for random
    draws."""

    def __init__(self):
        self.nodes = self.hits = self.size = 0
        self._sq = 0.0

    def add(self, hits: int, size: int) -> None:
        self.nodes += 1
        self.hits += hits
        self.size += size
        self._sq += hits * hits / size

    def ratio(self) -> float:
        if self.nodes < 2:
            return math.inf
        q = self.hits / self.size
        excess = self._sq - self.hits * q
        if excess <= 0:
            return 0.0
        return excess / (q * (1 - q) * (self.nodes - 1))


def _gather(mask: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """Copy the elements of *values* where *mask* holds into *out*, sized
    to their count. ``np.compress`` holds an index and a copy of what it
    gathers, so dense masks go ``CHUNK`` elements at a time."""
    if out.size <= CHUNK:
        np.compress(mask, values, out=out)
        return
    at = 0
    for lo in range(0, values.size, CHUNK):
        part = mask[lo : lo + CHUNK]
        c = int(np.count_nonzero(part))
        np.compress(part, values[lo : lo + CHUNK], out=out[at : at + c])
        at += c


def _magnitude(bits: int) -> float:
    """The float64 whose int64 bits are *bits*; -inf for -1, the window end
    below every magnitude."""
    return float(np.int64(bits).view(np.float64)) if bits >= 0 else -math.inf
