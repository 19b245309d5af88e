import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockinv import recursive
from blockinv.bench import KINDS, generate
from blockinv.core import (
    OpCounters,
    _mm_acc,
    check_result,
    gauss_jordan_oracle,
    invert_small,
    residual_norm,
)
from blockinv.errors import (
    AllPivotsSingular,
    DimensionMismatch,
    FormatError,
    NonFiniteResult,
    ScratchTooSmall,
    SingularBlock,
)
from blockinv.recursive import (
    LEAF_ORDER,
    _mm_rows,
    _SchurPool,
    invertor_by_a,
    invertor_by_ad,
    invertor_inplace_by_a,
    invertor_with_fallback,
)
from blockinv.schur import invert_with_fallback

from conftest import well_conditioned
from test_pinned_bits import _kron_schur_a


def schur_scratch_series(k):
    # 2^(k+1) (2^(k-1) - 1): total Schur workspace for an order-2^k input
    return 2 ** (k + 1) * (2 ** (k - 1) - 1)


class TestInvertorByA:
    def test_order_1(self):
        inv, c = invertor_by_a(np.array([[5.0]]))
        assert inv[0, 0] == 0.2
        assert c.inversions == 1 and c.multiplies == 0

    def test_identity_8_exact(self):
        inv, _ = invertor_by_a(np.eye(8))
        assert np.array_equal(inv, np.eye(8))
        assert residual_norm(np.eye(8), inv) == 0.0

    def test_random_64_residual_and_counter_audit(self):
        m = well_conditioned(64, 30)
        inv, c = invertor_by_a(m)
        assert residual_norm(m, inv) <= 1e-9
        assert c.multiplies == 6 * c.nodes
        assert c.reductions == 2 * c.nodes

    @pytest.mark.parametrize("k", range(1, 7))
    def test_multiplication_law_powers_of_two(self, k):
        order = 2**k
        m = well_conditioned(order, 100 + k)
        inv, c = invertor_by_a(m)
        # full binary recursion tree over 2x2 leaves
        assert c.nodes == 2 ** (k - 1) - 1
        assert c.multiplies == 6 * c.nodes
        assert c.reductions == 2 * c.nodes
        assert c.inversions == 2 ** (k - 1)
        assert residual_norm(m, inv) <= 1e-9 * order

    def test_input_untouched(self):
        m = well_conditioned(9, 31)
        copy = m.copy()
        invertor_by_a(m)
        assert np.array_equal(m, copy)

    def test_singular_path_reported(self):
        m = well_conditioned(4, 32)
        m[:2, :2] = 1.0  # leading 2x2 block singular -> fails inverting A
        with pytest.raises(SingularBlock) as info:
            invertor_by_a(m)
        assert info.value.path == ["A"]
        assert info.value.block == "A"


class TestInvertorInplace:
    def test_identity_6(self):
        m = np.eye(6)
        c = invertor_inplace_by_a(m)
        assert np.array_equal(m, np.eye(6))
        assert c.peak_scratch <= 6

    def test_matches_by_a(self):
        m = well_conditioned(5, 33)
        expect, _ = invertor_by_a(m)
        got = m.copy()
        invertor_inplace_by_a(got)
        assert np.max(np.abs(got - expect)) <= 1e-10

    def test_random_256(self):
        m = well_conditioned(256, 34)
        work = m.copy()
        c = invertor_inplace_by_a(work)
        assert residual_norm(m, work) <= 1e-8
        assert c.peak_scratch <= 256

    @pytest.mark.parametrize("k", range(1, 7))
    def test_multiplication_law(self, k):
        order = 2**k
        work = well_conditioned(order, 200 + k)
        c = invertor_inplace_by_a(work)
        assert c.nodes == 2 ** (k - 1) - 1
        assert c.multiplies == 6 * c.nodes
        assert c.reductions == 2 * c.nodes

    def test_peak_memory_stays_below_the_matrix(self):
        # "in place": temporaries stay bounded.  Every product and Schur
        # update runs over panels of at most 4,096 elements, 32 wide at the
        # top node (measured 0.20); whole-block
        # temporaries in the two Schur updates read 0.52, and a
        # whole-target temporary in the in-place products about 1.0
        work = well_conditioned(256, 36)
        tracemalloc.start()
        try:
            invertor_inplace_by_a(work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * work.nbytes, peak / work.nbytes

    def test_caller_scratch_and_too_small(self):
        m = well_conditioned(7, 35)
        buf = np.empty(7)
        invertor_inplace_by_a(m.copy(), buf)
        with pytest.raises(ScratchTooSmall):
            invertor_inplace_by_a(m.copy(), np.empty(3))


class TestInvertorByAD:
    def test_identity_4(self):
        inv, _ = invertor_by_ad(np.eye(4))
        assert np.array_equal(inv, np.eye(4))

    def test_random_8_vs_by_a_and_oracle(self):
        m = well_conditioned(8, 36)
        inv_ad, c = invertor_by_ad(m)
        inv_a, _ = invertor_by_a(m)
        assert np.max(np.abs(inv_ad - inv_a)) <= 1e-9
        assert np.max(np.abs(inv_ad - gauss_jordan_oracle(m))) <= 1e-9
        assert c.multiplies == 4 * c.nodes

    @pytest.mark.parametrize("k", range(2, 7))
    def test_schur_scratch_series(self, k):
        order = 2**k
        _, c = invertor_by_ad(well_conditioned(order, 300 + k))
        assert c.schur_scratch == schur_scratch_series(k)

    def test_pool_books_without_allocating_and_counts_once(self):
        c = OpCounters()
        pool = _SchurPool(c)
        pool.claim(4, 3, "sd")
        pool.claim(4, 3, "sd")
        pool.claim(0, 2, "sa")
        assert (c.schur_scratch, c.peak_scratch) == (9 + 4, 9 + 4)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_multiplication_law(self, k):
        order = 2**k
        _, c = invertor_by_ad(well_conditioned(order, 400 + k))
        assert c.multiplies == 4 * c.nodes
        assert c.reductions == 2 * c.nodes

    def test_singular_schur_path(self):
        m = np.eye(4)
        m[2:, 2:] = 0.0  # D singular at the top split
        with pytest.raises(SingularBlock) as info:
            invertor_by_ad(m)
        assert info.value.path[:1] == ["D"] or info.value.block == "D"


class TestPairwiseAgreement:
    def test_200_random_orders_2_to_128(self):
        g = np.random.default_rng(77)
        orders = [int(v) for v in g.integers(2, 129, size=200)]
        for i, order in enumerate(orders):
            m = well_conditioned(order, 5000 + i)
            inv_a, _ = invertor_by_a(m)
            inv_ip = m.copy()
            invertor_inplace_by_a(inv_ip)
            inv_ad, _ = invertor_by_ad(m)
            tol = 1e-9 * order
            assert np.max(np.abs(inv_a - inv_ip)) <= tol
            assert np.max(np.abs(inv_a - inv_ad)) <= tol
            assert np.max(np.abs(inv_ip - inv_ad)) <= tol


FALLBACK_KINDS = ["zeros", "reversal", "permutation", "swap", "zeroed_a", "well_conditioned"]


class TestFallbackInvertor:
    def test_reversal_permutation(self):
        p = np.eye(8)[::-1].copy()
        inv, _ = invertor_with_fallback(p)
        assert residual_norm(p, inv) <= 1e-12

    def test_matches_oracle(self):
        m = well_conditioned(13, 38)
        inv, _ = invertor_with_fallback(m)
        assert np.max(np.abs(inv - gauss_jordan_oracle(m))) <= 1e-9

    @pytest.mark.parametrize("kind", FALLBACK_KINDS)
    def test_matches_full_search(self, kind):
        # nodes of order 10 and below run on lists, and all-zero blocks skip
        # the search; the output bits, every counter and the raised label,
        # path and message must be those of the array search of every block
        for n in range(1, 41):
            m = _fallback_input(kind, n)
            got = _fallback_outcome(invertor_with_fallback, m)
            assert got == _fallback_outcome(_searching_fallback, m), n


def _fallback_input(kind, n):
    if kind == "zeros":
        return np.zeros((n, n))
    if kind == "reversal":
        return np.eye(n)[::-1].copy()
    if kind == "permutation":
        return np.eye(n)[np.random.default_rng(7700 + n).permutation(n)]
    if kind == "swap":
        # zero diagonal blocks and identity off-diagonal blocks at the n // 2
        # split: the kron swap for even n
        p = n // 2
        m = np.zeros((n, n))
        m[:p, p:] = np.eye(p, n - p)
        m[p:, :p] = np.eye(n - p, p)
        return m
    m = well_conditioned(n, 7800 + n)
    if kind == "zeroed_a":
        m[: n // 2, : n // 2] = 0.0
    return m


@settings(max_examples=200)
@given(
    order=st.integers(1, 24),
    seed=st.integers(0, 2**16),
    small_integers=st.booleans(),
    zeros=st.lists(st.tuples(*[st.floats(0, 1)] * 4), max_size=4),
)
def test_fallback_matches_full_search(order, seed, small_integers, zeros):
    # random entries (small integers make singular blocks common) with
    # generated blocks zeroed
    g = np.random.default_rng(seed)
    if small_integers:
        m = g.integers(-2, 3, (order, order)).astype(float)
    else:
        m = g.uniform(-1.0, 1.0, (order, order))
    for row, col, height, width in zeros:
        r, c = int(row * order), int(col * order)
        m[r : r + int(height * order) + 1, c : c + int(width * order) + 1] = 0.0
    with np.errstate(all="ignore"):
        got = _fallback_outcome(invertor_with_fallback, m)
        assert got == _fallback_outcome(_searching_fallback, m)


def _searching_fallback(x, counters):
    """invertor_with_fallback without the all-zero shortcut and on arrays
    only: every block of order above 2 goes through the full A, D, B, C
    search."""

    def sub(block, out):
        n = block.shape[0]
        if n <= LEAF_ORDER:
            invert_small(block, out, counters)
            return
        counters.nodes += 1
        try:
            invert_with_fallback(block, n // 2, out, invert_sub=sub, counters=counters)
        except AllPivotsSingular:
            raise SingularBlock("AllPivots", path=[]) from None

    out = np.empty_like(x)
    sub(x, out)
    return check_result(out), counters


def _fallback_outcome(invertor, m):
    c = OpCounters()
    try:
        inv, _ = invertor(m, c)
        result = inv.tobytes()
    except (SingularBlock, NonFiniteResult) as exc:
        result = (type(exc).__name__, getattr(exc, "block", None), getattr(exc, "path", None),
                  str(exc))
    fields = (c.multiplies, c.inversions, c.reductions, c.peak_scratch,
              c.schur_scratch, c.nodes, c._current_scratch)
    return result, fields


ALL_INVERTORS = [invertor_by_a, invertor_inplace_by_a, invertor_by_ad, invertor_with_fallback]


@pytest.mark.parametrize("invertor", ALL_INVERTORS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(invertor, bad):
    m = well_conditioned(12, 39)
    m[5, 7] = bad
    with pytest.raises(FormatError):
        invertor(m)


@pytest.mark.parametrize("invertor", ALL_INVERTORS)
def test_non_finite_result_raises(invertor):
    # finite input whose intermediates overflow: a typed error, not a NaN
    # "inverse", while the oracle inverts it
    m = generate(12, seed=1) * 1e-160
    assert np.isfinite(gauss_jordan_oracle(m)).all()
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResult):
        invertor(m.copy())


@pytest.mark.filterwarnings("error")
def test_ad_stacked_attempt_is_silent_where_the_node_by_node_run_is():
    # the lockstep run overflows past the singular block that stops the
    # node-by-node run; it must not warn for it
    m = generate(12, seed=1) * 1e160
    with pytest.raises(SingularBlock) as info:
        invertor_by_ad(m)
    assert (info.value.block, info.value.path) == ("A", ["A", "A", "D"])
    assert _backend_outcome("ad", m) == _backend_outcome("ad_sequential", m)


@pytest.mark.parametrize("data", [
    np.array([[2, 1], [1, 3]], dtype=np.int64),
    np.array([[2, 1], [1, 3]], dtype=np.float32),
    [[2.0, 1.0], [1.0, 3.0]],
], ids=["int64", "float32", "list"])
def test_inplace_rejects_what_it_cannot_overwrite(data):
    # a converted copy would be inverted and the caller's matrix left as is
    before = np.array(data).copy()
    with pytest.raises(FormatError):
        invertor_inplace_by_a(data)
    assert np.array_equal(np.array(data), before)


@pytest.mark.parametrize("invertor", ALL_INVERTORS)
@pytest.mark.parametrize("data", [
    np.eye(3) + 1j * np.eye(3),
    [["a", "b"], ["c", "d"]],
    [[1.0, 2.0], [3.0]],
], ids=["complex", "strings", "ragged"])
def test_non_numeric_input_rejected(invertor, data):
    with pytest.raises(FormatError):
        invertor(data)


@pytest.mark.parametrize("invertor", ALL_INVERTORS)
def test_order_zero_rejected(invertor):
    with pytest.raises(DimensionMismatch):
        invertor(np.zeros((0, 0)))


def test_inplace_rejects_read_only_array():
    m = well_conditioned(6, 40)
    m.flags.writeable = False
    before = m.copy()
    with pytest.raises(FormatError):
        invertor_inplace_by_a(m)
    assert m.tobytes() == before.tobytes()


@pytest.mark.parametrize("inner", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("negate", [False, True], ids=["plus", "minus"])
@pytest.mark.parametrize("into", [False, True], ids=["fresh", "into"])
def test_list_product_bitwise_equals_array_kernel(inner, negate, into):
    g = np.random.default_rng(4100 + inner)
    a = g.uniform(-1.0, 1.0, (4, inner))
    b = g.uniform(-1.0, 1.0, (inner, 3))
    base = g.uniform(-1.0, 1.0, (4, 3))
    a[0] = 0.0  # signed zeros: 0.0 start value against -0.0 terms
    base[1, 0] = -0.0
    out = base.copy() if into else np.zeros((4, 3))
    _mm_acc(a, b, out, negate)
    rows = _mm_rows(a.tolist(), b.tolist(), negate=negate,
                    into=base.tolist() if into else None)
    assert np.array(rows).tobytes() == out.tobytes()


@pytest.mark.parametrize("into", [False, True], ids=["fresh", "into"])
def test_list_product_rejects_inner_size_6(into):
    with pytest.raises(DimensionMismatch):
        _mm_rows([[1.0] * 6], [[1.0]] * 6, into=[[0.0]] if into else None)


def _backend_outcome(method, m, counters=None):
    """Output bytes, or the SingularBlock label and path, plus every
    OpCounters field (the live scratch count included).  ``ad_sequential``
    is ``invertor_by_ad`` one node after the other, without the stack
    backend."""
    c = counters if counters is not None else OpCounters()
    try:
        if method == "inplace":
            out = m.copy()
            invertor_inplace_by_a(out, counters=c)
        elif method == "ad_sequential":
            out = recursive._by_ad_sequential(m, c)
        else:
            out, _ = (invertor_by_a if method == "a" else invertor_by_ad)(m, c)
        result = out.tobytes()
    except SingularBlock as exc:
        result = (exc.block, exc.path)
    return result, dataclasses.asdict(c)


def _backend_inputs(n):
    yield well_conditioned(n, 4200 + n)
    yield np.ones((n, n))  # singular leaves or complements along the A path
    zeroed = well_conditioned(n, 4300 + n)
    zeroed[: n // 2, : n // 2] = 0.0  # singular top pivot
    yield zeroed
    twins = np.eye(n)  # A = B = C = D = I in its leading even part: S_A = 0
    twins[: n - n % 2, : n - n % 2] = np.kron(np.ones((2, 2)), np.eye(n // 2))
    yield twins


@pytest.mark.parametrize("method", ["a", "inplace", "ad"])
def test_array_backend_matches_list_backend(method, monkeypatch):
    # order 2 as the list threshold sends arrays down to the leaves; ad's
    # stack backend must match its sequential run at both thresholds
    reference = "ad_sequential" if method == "ad" else method
    expected = {
        (n, i): _backend_outcome(reference, m)
        for n in range(1, 41)
        for i, m in enumerate(_backend_inputs(n))
    }
    checks = [(2, reference)]
    if method == "ad":
        checks += [(recursive._PY_RECURSION_MAX, "ad"), (2, "ad")]
    for threshold, run in checks:
        monkeypatch.setattr(recursive, "_PY_RECURSION_MAX", threshold)
        for n in range(1, 41):
            for i, m in enumerate(_backend_inputs(n)):
                assert _backend_outcome(run, m) == expected[(n, i)], (run, threshold, n, i)


PIVOT_A_FORMULAS = [recursive._single_pivot, recursive._inplace]
COMPILED_FORMULAS = PIVOT_A_FORMULAS + [recursive._combined_pivot]
STACKED_FORMULAS = [recursive._single_pivot, recursive._combined_pivot]


@pytest.mark.parametrize("formula", COMPILED_FORMULAS, ids=lambda f: f.__name__)
def test_count_backend_matches_sequential_runs(formula, monkeypatch):
    # _Count's placeholders against the list backend (orders up to 10) and
    # the array backend down to the 2x2 leaves, with no compiled nodes
    monkeypatch.setattr(recursive, "_NODES", {})
    monkeypatch.setattr(recursive, "_PY_RECURSION_MAX", LEAF_ORDER)
    for n in range(1, 13):
        counted = OpCounters()
        recursive._Count(counted, formula).invert(range(n), [])
        m = well_conditioned(n, 4500 + n)
        c = OpCounters()
        recursive._Arrays(c, formula=formula, pool=_SchurPool(c), row=np.empty(n)).invert(
            m, [], 0, m if formula is recursive._inplace else None)
        assert dataclasses.asdict(c) == dataclasses.asdict(counted), n
        if n <= 10:
            c = OpCounters()
            recursive._Rows(c, formula, _SchurPool(c)).invert(m.tolist(), [])
            assert dataclasses.asdict(c) == dataclasses.asdict(counted), n


def _list_node_outcome(formula, m, compiled):
    """A list node's output bytes, or its SingularBlock label and path, plus
    every OpCounters field: its straight-line code (``node``) or the list
    backend node by node (``invert``), booking the Schur slots of
    ``_combined_pivot`` in a pool of its own."""
    c = OpCounters()
    rows = recursive._Rows(c, formula, _SchurPool(c))
    try:
        got = (rows.node if compiled else rows.invert)(m.tolist(), [])
        result = np.array(got).tobytes()
    except SingularBlock as exc:
        result = (exc.block, exc.path)
    return result, dataclasses.asdict(c)


def _signed_zero_inputs(n):
    g = np.random.default_rng(4600 + n)
    m = generate(n, seed=n, kind="block-diagonal")  # exact zeros off its blocks
    yield m
    flipped = m.copy()
    flipped[g.random((n, n)) < 0.5] *= -1.0  # -0.0 among them
    yield flipped
    diagonal = np.full((n, n), -0.0)
    diagonal[np.diag_indices(n)] = np.arange(1.0, n + 1.0)
    yield diagonal
    sparse = well_conditioned(n, 4700 + n)
    sparse[g.random((n, n)) < 0.3] = 0.0
    sparse[g.random((n, n)) < 0.3] = -0.0
    sparse[np.diag_indices(n)] = 2.0 * n
    yield sparse


@pytest.mark.parametrize("formula", COMPILED_FORMULAS, ids=lambda f: f.__name__)
def test_compiled_nodes_match_list_backend(formula):
    # bits and counters on every generated kind, signed zeros, and the
    # label, path and partial counters of singular leaves at every order
    for n in range(1, recursive._PY_RECURSION_MAX + 1):
        inputs = [generate(n, seed=4800 + n + s, kind=kind) for kind in KINDS for s in range(3)]
        # singular leaves on the A path, a zero top pivot, a zero complement
        inputs += [*_signed_zero_inputs(n), *_backend_inputs(n), np.zeros((n, n))]
        singular = 0
        for i, m in enumerate(inputs):
            expected = _list_node_outcome(formula, m, False)
            assert _list_node_outcome(formula, m, True) == expected, (n, i)
            singular += isinstance(expected[0], tuple)
        assert singular >= (1 if n == 1 else 3), n


_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=120)
@given(
    formula=st.sampled_from(COMPILED_FORMULAS),
    rows=st.integers(1, 10).flatmap(
        lambda n: st.lists(st.lists(_FLOATS, min_size=n, max_size=n), min_size=n, max_size=n)),
)
def test_compiled_nodes_match_list_backend_on_finite_matrices(formula, rows):
    m = np.array(rows)
    assert _list_node_outcome(formula, m, True) == _list_node_outcome(formula, m, False)


def _member_reference(formula, stack):
    """Each member of ``stack`` inverted node by node on the list backend."""
    c = OpCounters()
    rows = recursive._Rows(c, formula, _SchurPool(c))
    return np.array([rows.invert(m.tolist(), []) for m in stack])


def _member_stack(k, n, seed):
    kinds = ("well-conditioned", "block-diagonal")  # exact zeros off its blocks
    return np.stack([generate(n, seed=seed + i, kind=kinds[i % 2]) for i in range(k)])


@pytest.fixture
def compiled_calls(monkeypatch):
    """The orders of the compiled nodes called, in call order."""
    calls = []

    def spy(code, n):
        def node(x):
            calls.append(n)
            return code(x)

        return node

    monkeypatch.setattr(recursive, "_NODES", {
        formula: (None,) + tuple((spy(code, n), counts)
                                 for n, (code, counts) in enumerate(nodes[1:], 1))
        for formula, nodes in recursive._NODES.items()})
    return calls


@pytest.mark.parametrize("formula", STACKED_FORMULAS, ids=lambda f: f.__name__)
def test_stacks_up_to_the_row_limit_run_member_by_member(formula, compiled_calls):
    # at, just under and just over the limit, and one member at every order:
    # each member's bits are its list backend run's, and one singular member
    # makes the whole stack unusable
    limit = recursive._MEMBER_ROWS
    for n in range(1, recursive._PY_RECURSION_MAX + 1):
        at = limit // n if n > LEAF_ORDER else 1
        for k in sorted({1, max(at - 1, 1), at, at + 1}):
            stack = _member_stack(k, n, 5000 + 100 * n + k)
            del compiled_calls[:]
            got = recursive._invert_stacked(formula, stack)
            assert got.tobytes() == _member_reference(formula, stack).tobytes(), (n, k)
            member_path = k == 1 or k * n <= limit and n > LEAF_ORDER
            assert compiled_calls.count(n) == (k if member_path else 0), (n, k)
            singular = stack.copy()
            singular[k // 2] = 0.0
            assert recursive._invert_stacked(formula, singular) is None, (n, k)


@pytest.mark.parametrize("formula", STACKED_FORMULAS, ids=lambda f: f.__name__)
def test_stacks_of_order_2_stay_on_the_stacked_leaf(formula, compiled_calls, monkeypatch):
    leaves = []

    def spy(m, out):
        leaves.append(len(m))
        return inv2(m, out)

    inv2 = recursive._inv2_stack
    monkeypatch.setattr(recursive, "_inv2_stack", spy)
    for k in (2, 3, 16, 32, 33):
        stack = _member_stack(k, 2, 5900 + k)
        del leaves[:]
        got = recursive._invert_stacked(formula, stack)
        assert got.tobytes() == _member_reference(formula, stack).tobytes(), k
        assert leaves == [k] and not compiled_calls, k


def test_ad_reports_the_first_failure_in_sequential_order():
    # A's subtree fails only at its SchurA; D's fails at its first leaf,
    # which the stacked run, inverting A and D in lockstep, meets first
    m = np.zeros((48, 48))
    m[:24, :24] = _kron_schur_a()
    m[24:, 24:] = 1.0
    got = _backend_outcome("ad", m)
    assert got == _backend_outcome("ad_sequential", m)
    assert got[0] == ("A", ["A", "SchurA", "A", "A", "A"])
    with pytest.raises(SingularBlock) as info:
        invertor_by_ad(m)
    assert info.value.__context__ is None  # no lockstep failure chained onto it


@pytest.mark.parametrize("live, peak", [(20, 500), (20, 10**9)], ids=["run-peak", "caller-peak"])
def test_ad_adds_its_counts_to_a_callers_counters(live, peak):
    # the run's scratch peak sits on the caller's live scratch, unless an
    # earlier peak of the caller's is higher
    for m in (well_conditioned(40, 4400), well_conditioned(64, 4401), np.ones((40, 40))):
        outcomes = []
        for method in ("ad", "ad_sequential"):
            c = OpCounters(multiplies=3, inversions=2, reductions=1, schur_scratch=5, nodes=4)
            c.alloc(peak)
            c.release(peak - live)
            outcomes.append(_backend_outcome(method, m, c))
        assert outcomes[0] == outcomes[1]


@settings(max_examples=300)
@given(
    order=st.integers(1, 48),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(KINDS),
    zero=st.one_of(st.none(), st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))),
)
def test_ad_stacked_matches_sequential(order, seed, kind, zero):
    # output bits, every counter and the failure label and path, with an
    # optional zero block planted at a generated corner and size
    m = generate(order, seed=seed, kind=kind)
    if zero is not None:
        row, col, size = (int(f * order) for f in zero)
        m[row : row + size + 1, col : col + size + 1] = 0.0
    assert _backend_outcome("ad", m) == _backend_outcome("ad_sequential", m)


def test_a_peak_memory_at_order_256():
    # measured 3.14x the matrix (1.57 MiB), result included, with each
    # product into a strided quadrant summed in a contiguous copy
    m = well_conditioned(256, 4401)
    invertor_by_a(m)
    tracemalloc.start()
    try:
        invertor_by_a(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * m.nbytes, peak / m.nbytes


def test_ad_peak_memory_at_order_256():
    # measured 5.04x the matrix (2.52 MiB), against 3.56x (1.78 MiB) for
    # the node-by-node run before the stack backend: the stacks hold each
    # level's pair operands side by side
    m = well_conditioned(256, 4402)
    invertor_by_ad(m)  # the count of order 256 is memoised before the traced call
    tracemalloc.start()
    try:
        invertor_by_ad(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * m.nbytes, peak / m.nbytes
