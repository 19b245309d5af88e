import numpy as np
import pytest

from blockinv.errors import InvalidOrder
from blockinv.partition import make_partition, partition_from_sizes

# Explicit blocking table: order -> diagonal block sizes
TABLE_ROWS = {
    2: [2],
    3: [3],
    4: [2, 2],
    5: [2, 3],
    6: [3, 3],
    7: [3, 4],
    8: [2, 2, 2, 2],
    9: [2, 2, 2, 3],
    21: [2, 2, 2, 3, 3, 3, 3, 3],
}


class TestMakePartition:
    @pytest.mark.parametrize("order,sizes", sorted(TABLE_ROWS.items()))
    def test_published_rows(self, order, sizes):
        scheme = make_partition(order)
        assert list(scheme.sizes) == sizes
        assert scheme.n_blocks == len(sizes)

    def test_order_100(self):
        scheme = make_partition(100)
        assert scheme.n_blocks == 32
        assert list(scheme.sizes) == [3] * 28 + [4] * 4
        assert sum(scheme.sizes) == 100

    def test_order_10000(self):
        assert make_partition(10000).n_blocks == 4096

    @pytest.mark.parametrize("order", list(range(2, 200)) + [333, 1024, 2047, 4096])
    def test_structure(self, order):
        scheme = make_partition(order)
        n = scheme.n_blocks
        assert n & (n - 1) == 0
        assert 2 * n <= order <= 4 * n
        assert sum(scheme.sizes) == order
        assert all(s in (2, 3, 4) for s in scheme.sizes)
        assert list(scheme.sizes) == sorted(scheme.sizes)
        assert scheme.offsets[-1] == order

    def test_invalid(self):
        with pytest.raises(InvalidOrder):
            make_partition(1)


class TestFromSizes:
    def test_large_custom_sizes(self):
        scheme = partition_from_sizes([5, 9, 7, 11])
        assert scheme.m_n == 32
        assert scheme.n_blocks == 4

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InvalidOrder):
            partition_from_sizes([2, 2, 2])

    def test_bad_size(self):
        with pytest.raises(InvalidOrder):
            partition_from_sizes([2, 0])


# (builder, its argument, the sizes it gives or InvalidOrder): Python and
# numpy integers build a partition; bools, floats and strings do not
_INTEGRAL_CASES = {
    "sizes-int": (partition_from_sizes, [2, 3], (2, 3)),
    "sizes-numpy-int": (partition_from_sizes, [np.int64(2), np.int32(3)], (2, 3)),
    "sizes-numpy-array": (partition_from_sizes, np.array([4, 5, 6, 7]), (4, 5, 6, 7)),
    "sizes-float": (partition_from_sizes, [2.7, 3.2, 1.9, 1.2], InvalidOrder),
    "sizes-whole-float": (partition_from_sizes, [2.0, 3.0], InvalidOrder),
    "sizes-numpy-float": (partition_from_sizes, [np.float64(2), np.float64(3)], InvalidOrder),
    "sizes-str": (partition_from_sizes, ["2", "3"], InvalidOrder),
    "sizes-one-str": (partition_from_sizes, "23", InvalidOrder),
    "sizes-bool": (partition_from_sizes, [True, True], InvalidOrder),
    "sizes-numpy-bool": (partition_from_sizes, [np.bool_(True), np.bool_(True)], InvalidOrder),
    "sizes-not-a-sequence": (partition_from_sizes, 4, InvalidOrder),
    "order-int": (make_partition, 5, (2, 3)),
    "order-numpy-int": (make_partition, np.int64(5), (2, 3)),
    "order-float": (make_partition, 2.5, InvalidOrder),
    "order-whole-float": (make_partition, 8.0, InvalidOrder),
    "order-str": (make_partition, "8", InvalidOrder),
    "order-bool": (make_partition, True, InvalidOrder),
}


@pytest.mark.parametrize("build, arg, expected", _INTEGRAL_CASES.values(), ids=_INTEGRAL_CASES)
def test_partition_input_must_be_integral(build, arg, expected):
    if expected is InvalidOrder:
        with pytest.raises(InvalidOrder):
            build(arg)
    else:
        scheme = build(arg)
        assert scheme.sizes == expected
        assert all(type(x) is int for x in (scheme.m_n, *scheme.sizes, *scheme.offsets))


def quad_views(scheme, level, quad, m):
    """(A, B, C, D) regions of ``m`` for one quad of ``scheme.quads(level)``."""
    first, mid, last = scheme.quads(level)[quad]
    off = scheme.offsets
    halves = (slice(off[first], off[mid]), slice(off[mid], off[last]))
    return tuple(m[rows, cols] for rows in halves for cols in halves)


class TestQuadViews:
    def test_order_8_level1_pair0(self):
        scheme = make_partition(8)
        m = np.arange(64, dtype=float).reshape(8, 8)
        a, b, c, d = quad_views(scheme, 1, 0, m)
        assert np.array_equal(a, m[0:2, 0:2])
        assert np.array_equal(b, m[0:2, 2:4])
        assert np.array_equal(c, m[2:4, 0:2])
        assert np.array_equal(d, m[2:4, 2:4])

    def test_order_8_level2(self):
        scheme = make_partition(8)
        m = np.arange(64, dtype=float).reshape(8, 8)
        a, b, c, d = quad_views(scheme, 2, 0, m)
        assert np.array_equal(a, m[0:4, 0:4])
        assert np.array_equal(d, m[4:8, 4:8])

    def test_order_9_level1_pair1_mixed_sizes(self):
        # sizes [2, 2, 2, 3]: pair 1 covers blocks 2 and 3
        scheme = make_partition(9)
        assert scheme.quads(1) == ((0, 1, 2), (2, 3, 4))
        m = np.arange(81, dtype=float).reshape(9, 9)
        a, b, c, d = quad_views(scheme, 1, 1, m)
        assert a.shape == (2, 2) and np.array_equal(a, m[4:6, 4:6])
        assert d.shape == (3, 3) and np.array_equal(d, m[6:9, 6:9])
        assert b.shape == (2, 3) and c.shape == (3, 2)

    def test_views_not_copies(self):
        scheme = make_partition(8)
        m = np.zeros((8, 8))
        a, _, _, _ = quad_views(scheme, 1, 0, m)
        a[0, 0] = 7.0
        assert m[0, 0] == 7.0

    def test_level_0_is_the_diagonal_blocks(self):
        assert make_partition(8).quads(0) == ((0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4))
        assert make_partition(8).quads(3) == ()

    @pytest.mark.parametrize("order", [8, 9, 21, 33, 100])
    def test_quads_tile_their_regions(self, order):
        scheme = make_partition(order)
        k = scheme.k
        for level in range(1, k + 1):
            quads = scheme.quads(level)
            assert len(quads) == scheme.n_blocks // 2**level
            cover = np.zeros((order, order), dtype=int)
            w = 2**level
            for pair, (first, mid, last) in enumerate(quads):
                assert (first, mid, last) == (pair * w, pair * w + w // 2, (pair + 1) * w)
                lo, hi = scheme.offsets[first], scheme.offsets[last]
                for view in quad_views(scheme, level, pair, cover):
                    view += 1
                # the quad's four windows exactly tile its square region
                assert np.all(cover[lo:hi, lo:hi] == 1)
            # and nothing outside any quad region was touched twice
            assert cover.max() == 1
