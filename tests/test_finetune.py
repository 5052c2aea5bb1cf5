"""Tests for the downstream occupancy transfer: opacity filtering, k-NN
lookup, the local attention block, IoU scoring, and the training loop."""

import csv
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geometry import gaussian_records
from test_pretrain import tiny_model, tiny_sample

from querysplat import autodiff as ad
from querysplat import decoder as dec
from querysplat import encoder as enc
from querysplat import finetune as ft
from querysplat import pretrain as pt
from querysplat import scenes as sc
from querysplat.checkpoint import load_checkpoint


def small_task(grid=2, d_task=8, d_pre=8, k=3, pe_hidden=6, seed=0):
    cfg = ft.InteractionConfig(k=k, alpha_thresh=0.05, pe_hidden=pe_hidden)
    bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    return ft.build_task_model(
        bounds, grid=grid, cfg=cfg, d_task=d_task, d_pre=d_pre, seed=seed
    )


def random_frozen(n=5, d_pre=8, seed=1):
    rng = np.random.default_rng(seed)
    anchors = np.zeros((n, 11))
    anchors[:, :3] = rng.uniform(-0.9, 0.9, size=(n, 3))
    anchors[:, 3:6] = rng.uniform(0.05, 0.2, size=(n, 3))
    quat = rng.normal(size=(n, 4))
    anchors[:, 6:10] = quat / np.linalg.norm(quat, axis=1, keepdims=True)
    anchors[:, 10] = rng.uniform(0.1, 1.0, size=n)
    return ft.FrozenInference(anchors=anchors, features=rng.normal(size=(n, d_pre)))


def randomize_store(store, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    for name in store.names():
        store[name].data = rng.normal(size=store[name].data.shape) * scale


def mlp2_np(store, prefix, x):
    h = np.maximum(x @ store[f"{prefix}.w1"].data + store[f"{prefix}.b1"].data, 0.0)
    return h @ store[f"{prefix}.w2"].data + store[f"{prefix}.b2"].data


def knn_oracle(task_positions, anchor_positions, k):
    """k-NN by a full stable argsort of the squared distances: the result
    ft.knn_neighbors must reproduce bit for bit."""
    tp = np.asarray(task_positions, dtype=np.float64)
    ap = np.asarray(anchor_positions, dtype=np.float64)
    d2 = ((tp[:, None, :] - ap[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    n = ap.shape[0]
    if n >= k:
        return order[:, :k]
    fill = np.repeat(order[:, :1], k - n, axis=1)
    return np.concatenate([order, fill], axis=1)


def interaction_np(store, positions, feats_t, anchors, feats_a, k):
    """Plain-numpy replica of the local attention block."""
    neigh = knn_oracle(positions, anchors[:, :3], k)
    q = feats_t + mlp2_np(store, "task.interact.pos", positions)
    kv = feats_a @ store["task.interact.adapter.w"].data + mlp2_np(
        store, "task.interact.gk", anchors
    )
    kn = kv[neigh]
    scores = (q[:, None, :] * kn).sum(axis=2) / np.sqrt(feats_t.shape[1])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    attended = (w[:, :, None] * kn).sum(axis=1)
    return feats_t + attended @ store["task.interact.out.w"].data


class TestFilterByOpacity:
    def make(self, opacities):
        n = len(opacities)
        anchors = np.zeros((n, 11))
        anchors[:, 0] = np.arange(n)  # track row identity through the filter
        anchors[:, 10] = opacities
        feats = np.arange(n, dtype=np.float64)[:, None] * np.ones(4)
        return anchors, feats

    def test_threshold_keeps_expected_rows(self):
        anchors, feats = self.make([0.01, 0.5, 0.04, 0.9])
        kept_a, kept_f = ft.filter_by_opacity(anchors, feats, 0.05)
        np.testing.assert_array_equal(kept_a[:, 0], [1, 3])
        np.testing.assert_array_equal(kept_f[:, 0], [1, 3])

    def test_zero_threshold_keeps_all(self):
        anchors, feats = self.make([0.0, 0.3, 1.0])
        kept_a, kept_f = ft.filter_by_opacity(anchors, feats, 0.0)
        assert kept_a.shape == (3, 11)
        assert kept_f.shape == (3, 4)

    def test_threshold_one_drops_all_below(self):
        anchors, feats = self.make([0.2, 0.99, 0.5])
        kept_a, kept_f = ft.filter_by_opacity(anchors, feats, 1.0)
        assert kept_a.shape == (0, 11)
        assert kept_f.shape == (0, 4)

    def test_exact_threshold_is_kept(self):
        anchors, feats = self.make([0.05, 0.049])
        kept_a, _ = ft.filter_by_opacity(anchors, feats, 0.05)
        np.testing.assert_array_equal(kept_a[:, 0], [0])

    def test_order_preserved(self):
        rng = np.random.default_rng(42)
        anchors, feats = self.make(rng.uniform(size=30))
        kept_a, _ = ft.filter_by_opacity(anchors, feats, 0.5)
        assert np.all(np.diff(kept_a[:, 0]) > 0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        anchors, feats = self.make(rng.uniform(size=50))
        previous = None
        for thresh in np.linspace(0.0, 1.0, 11):
            kept_a, _ = ft.filter_by_opacity(anchors, feats, thresh)
            current = set(kept_a[:, 0].astype(int).tolist())
            if previous is not None:
                assert current <= previous
            previous = current

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            ft.filter_by_opacity(np.zeros((4, 10)), np.zeros((4, 2)), 0.5)
        with pytest.raises(ValueError):
            ft.filter_by_opacity(np.zeros((4, 11)), np.zeros((3, 2)), 0.5)


class TestKnnNeighbors:
    def test_single_anchor_fills_all_columns(self):
        rng = np.random.default_rng(0)
        tasks = rng.uniform(-1, 1, size=(7, 3))
        neigh = ft.knn_neighbors(tasks, np.array([[0.2, 0.1, 0.0]]), k=4)
        np.testing.assert_array_equal(neigh, np.zeros((7, 4), dtype=int))

    def test_two_nearest_of_three(self):
        anchors = np.array([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        neigh = ft.knn_neighbors(np.zeros((1, 3)), anchors, k=2)
        np.testing.assert_array_equal(neigh, [[1, 2]])

    def test_ties_broken_by_ascending_index(self):
        anchors = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        neigh = ft.knn_neighbors(np.zeros((1, 3)), anchors, k=2)
        np.testing.assert_array_equal(neigh, [[0, 1]])

    def test_fill_repeats_nearest(self):
        anchors = np.array([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        neigh = ft.knn_neighbors(np.zeros((2, 3)), anchors, k=5)
        np.testing.assert_array_equal(neigh, [[1, 2, 0, 1, 1], [1, 2, 0, 1, 1]])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        tasks = rng.uniform(-2, 2, size=(40, 3))
        anchors = rng.uniform(-2, 2, size=(300, 3))
        k = 5
        neigh = ft.knn_neighbors(tasks, anchors, k)
        d2 = ((tasks[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
        for t in range(tasks.shape[0]):
            want = sorted(range(300), key=lambda i: (d2[t, i], i))[:k]
            np.testing.assert_array_equal(neigh[t], want)

    def test_zero_anchors_rejected(self):
        with pytest.raises(ValueError):
            ft.knn_neighbors(np.zeros((2, 3)), np.zeros((0, 3)), k=1)

    def test_nan_rows_match_oracle(self):
        tasks = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.5, 0.5, 0.5]])
        anchors = np.array([[1.0, 0, 0], [0, np.nan, 0], [0, 0, 1.0], [0.2, 0, 0]])
        for k in (1, 2, 3, 5):
            np.testing.assert_array_equal(
                ft.knn_neighbors(tasks, anchors, k), knn_oracle(tasks, anchors, k)
            )

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            ft.knn_neighbors(np.zeros((2, 3)), np.zeros((3, 3)), k=0)


def points(seed, n, snap):
    """n points in [-1, 1]^3; with snap > 0, rounded to a 1/snap grid so many
    distances tie exactly."""
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 3))
    return np.round(pts * snap) / snap if snap else pts


def assert_matches_oracle(tasks, anchors, k):
    got = ft.knn_neighbors(tasks, anchors, k)
    want = knn_oracle(tasks, anchors, k)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestKnnMatchesOracle:
    """The partial-select k-NN against the stable-argsort oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 2 * ft._KNN_CHUNK + 40),
        n=st.integers(1, 300),
        k=st.integers(1, 12),
    )
    def test_random_anchors(self, seed, m, n, k):
        assert_matches_oracle(points(seed, m, 0), points(seed + 1, n, 0), k)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 2 * ft._KNN_CHUNK + 40),
        n=st.integers(1, 300),
        k=st.integers(1, 12),
        snap=st.sampled_from([1, 2, 4]),
    )
    def test_grid_snapped_anchors_with_ties(self, seed, m, n, k, snap):
        assert_matches_oracle(points(seed, m, snap), points(seed + 1, n, snap), k)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 10),
        extra=st.sampled_from([-3, -1, 0]),
        snap=st.sampled_from([0, 1]),
    )
    def test_fewer_or_exactly_k_anchors(self, seed, k, extra, snap):
        n = max(1, k + extra)
        assert_matches_oracle(points(seed, 50, snap), points(seed + 1, n, snap), k)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 200),
        snap=st.sampled_from([0, 1, 2]),
    )
    def test_single_neighbour(self, seed, n, snap):
        assert_matches_oracle(points(seed, 70, snap), points(seed + 1, n, snap), 1)

    @pytest.mark.parametrize("snap", [0, 2])
    def test_row_count_not_a_multiple_of_the_chunk(self, snap):
        m = 2 * ft._KNN_CHUNK + 37
        assert_matches_oracle(points(0, m, snap), points(1, 150, snap), 8)

    def test_voxel_centres_against_coincident_anchors(self):
        # Task queries on voxel centres and anchors repeated on a coarse
        # lattice: nearly every row ties at its k-th distance.
        tasks = ft.voxel_centers(np.array([[-1.0] * 3, [1.0] * 3]), 8)
        lattice = ft.voxel_centers(np.array([[-1.0] * 3, [1.0] * 3]), 2)
        anchors = np.repeat(lattice, 5, axis=0)[::-1]
        for k in (1, 4, 8, 39, 40, 41):
            assert_matches_oracle(tasks, anchors, k)


def grid_tasks(g):
    return ft.voxel_centers(np.array([[-1.0] * 3, [1.0] * 3]), g)


class TestKnnBoundedScan:
    """Voxel-grid task queries, whose (x, y) columns the bounded scan settles
    from their 8k nearest anchors, against the oracle: rows it cannot settle
    must come out of the full search unchanged."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        g=st.integers(1, 12),
        n=st.integers(1, 400),
        k=st.integers(1, 12),
    )
    def test_uniform_anchors(self, seed, g, n, k):
        assert_matches_oracle(grid_tasks(g), points(seed, n, 0), k)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        g=st.integers(2, 12),
        n=st.integers(50, 400),
        k=st.integers(1, 6),
    )
    def test_anchors_in_one_corner(self, seed, g, n, k):
        # Far from the cluster a column's scan set spans it all: most rows
        # have their k-th distance at or past the bound and fall back.
        anchors = -1.0 + 0.15 * (points(seed, n, 0) + 1.0)
        assert_matches_oracle(grid_tasks(g), anchors, k)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        g=st.integers(2, 12),
        n=st.integers(20, 400),
        k=st.integers(1, 8),
        snap=st.sampled_from([1, 2, 4]),
    )
    def test_grid_snapped_anchors_tie_at_the_bound(self, seed, g, n, k, snap):
        # Snapped x and y give many anchors the same partial distance, so a
        # column's bound is often tied with its scan set and its rows'
        # distances tie at the k-th.
        assert_matches_oracle(grid_tasks(g), points(seed, n, snap), k)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        g=st.integers(1, 8),
        k=st.integers(1, 12),
        share=st.floats(0.0, 1.0),
        snap=st.sampled_from([0, 2]),
    )
    def test_at_most_8k_anchors(self, seed, g, k, share, snap):
        # From one anchor to exactly 8k: below k the row is filled, and no
        # scan set leaves an anchor out to bound.
        n = 1 + int(share * (8 * k - 1))
        assert_matches_oracle(grid_tasks(g), points(seed, n, snap), k)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        g=st.integers(2, 10),
        n=st.integers(20, 300),
        k=st.integers(1, 6),
        data=st.data(),
    )
    def test_nan_rows(self, seed, g, n, k, data):
        tasks, anchors = grid_tasks(g), points(seed, n, 0)
        rows = data.draw(st.lists(st.integers(0, g**3 - 1), min_size=1, max_size=8))
        axes = data.draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
        tasks[rows, axes] = np.nan
        anchors[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))] = np.nan
        assert_matches_oracle(tasks, anchors, k)

    def test_scan_settles_most_rows(self, monkeypatch):
        # The full search hands _k_smallest one column per anchor: fewer
        # than a tenth of a 16^3 grid's rows may reach it.
        tasks, anchors = grid_tasks(16), points(0, 512, 0)
        searched = []
        k_smallest = ft._k_smallest

        def spy(d2, k):
            if d2.shape[1] == anchors.shape[0]:
                searched.append(d2.shape[0])
            return k_smallest(d2, k)

        monkeypatch.setattr(ft, "_k_smallest", spy)
        assert_matches_oracle(tasks, anchors, 8)
        assert sum(searched) < tasks.shape[0] / 10


class TestKnnAxisTables:
    """The per-axis distance tables on coordinates np.unique treats specially."""

    def test_repeated_coordinates_off_a_grid(self):
        rng = np.random.default_rng(7)
        centres = ft.voxel_centers(np.array([[-1.0] * 3, [1.0] * 3]), 6)
        tasks = np.concatenate([rng.permutation(centres), rng.uniform(-1, 1, (90, 3))])
        tasks = tasks[rng.permutation(tasks.shape[0])]
        anchors = np.concatenate([points(8, 60, 3), points(9, 60, 0)])
        for k in (1, 8, 40):
            assert_matches_oracle(tasks, anchors, k)

    def test_signed_zeros(self):
        rng = np.random.default_rng(3)
        tasks = rng.choice([0.0, -0.0, 0.5, -0.5], size=(300, 3))
        assert np.signbit(tasks).any() and (tasks == 0).any()
        anchors = rng.choice([0.0, -0.0, 0.25, -0.5, 1.0], size=(40, 3))
        for k in (1, 3, 12):
            assert_matches_oracle(tasks, anchors, k)

    def test_several_nan_task_rows(self):
        tasks = points(4, 200, 2)
        tasks[[0, 17, 130, 199], [0, 1, 2, 0]] = np.nan
        tasks[50] = np.nan
        for k in (1, 5):
            assert_matches_oracle(tasks, points(5, 30, 2), k)


def composed_neighbor_attention(q, kv, neigh):
    """neighbor_attention's oracle: gather, dot, softmax and sum as engine ops."""
    m, d = q.data.shape
    k = neigh.shape[1]
    kv_n = ad.gather(kv, neigh)
    scores = ad.reduce_sum(ad.reshape(q, (m, 1, d)) * kv_n, axis=2) * (1.0 / np.sqrt(d))
    weights = ad.softmax(scores, axis=1)
    return ad.reduce_sum(ad.reshape(weights, (m, k, 1)) * kv_n, axis=1)


class TestNeighborAttention:
    """The fused attention node against the composed ops it replaces."""

    def setup_method(self):
        rng = np.random.default_rng(4)
        self.q = rng.normal(size=(7, 5))
        self.kv = rng.normal(size=(4, 5))
        # Repeated rows, within and across queries, exercise the scatter.
        self.neigh = rng.integers(0, 4, size=(7, 3))
        self.probe = rng.normal(size=(7, 5))

    def composed(self, q, kv):
        return composed_neighbor_attention(q, kv, self.neigh)

    def grads(self, attend):
        q, kv = ad.Tensor(self.q.copy()), ad.Tensor(self.kv.copy())
        out = attend(q, kv)
        out.backward(self.probe)
        return out.data, q.grad, kv.grad

    def test_forward_and_gradients_match_composed_ops(self):
        fused = self.grads(lambda q, kv: ft.neighbor_attention(q, kv, self.neigh))
        for got, want in zip(fused, self.grads(self.composed)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_gradcheck_queries(self):
        kv = ad.constant(self.kv)

        def fn(t):
            out = ft.neighbor_attention(t, kv, self.neigh)
            return ad.reduce_sum(out * ad.constant(self.probe))

        assert ad.finite_difference_check(fn, self.q) < 1e-5

    def test_gradcheck_keys_values(self):
        q = ad.constant(self.q)

        def fn(t):
            out = ft.neighbor_attention(q, t, self.neigh)
            return ad.reduce_sum(out * ad.constant(self.probe))

        assert ad.finite_difference_check(fn, self.kv) < 1e-5

    def test_single_neighbour_passes_its_row_through(self):
        neigh = self.neigh[:, :1]
        out = ft.neighbor_attention(ad.constant(self.q), ad.constant(self.kv), neigh)
        np.testing.assert_array_equal(out.data, self.kv[neigh[:, 0]])


def unblocked_neighbor_attention(qd, kvd, neigh, g):
    """neighbor_attention over the whole (M, k, D) neighbour array at once:
    (out, q cotangent, kv cotangent), the formula the blocked node must
    match bit for bit."""
    kn = kvd[neigh]
    scale = 1.0 / np.sqrt(qd.shape[1])
    scores = np.einsum("md,mkd->mk", qd, kn) * scale
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    out = np.einsum("mk,mkd->md", w, kn)
    gw = np.einsum("md,mkd->mk", g, kn)
    gs = w * (gw - (gw * w).sum(axis=1, keepdims=True)) * scale
    gq = np.einsum("mk,mkd->md", gs, kn)
    gkn = w[:, :, None] * g[:, None, :] + gs[:, :, None] * qd[:, None, :]
    return out, gq, ad._index_add(kvd.shape, neigh, gkn)


class TestBlockedAttentionBits:
    """neighbor_attention's row blocks change no bit of its value or VJP."""

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("blocks, n, k, d", [(1, 300, 8, 64), (3, 50, 5, 7)])
    def test_matches_the_unblocked_formula(self, blocks, n, k, d, extra):
        m = blocks * ft._ATTEND_BLOCK + extra
        rng = np.random.default_rng(m + d)
        qd, kvd, g = rng.normal(size=(m, d)), rng.normal(size=(n, d)), rng.normal(size=(m, d))
        neigh = rng.integers(0, n, size=(m, k))
        node = ft.neighbor_attention(ad.constant(qd), ad.constant(kvd), neigh)
        gq, gkv = node._vjp(g)
        want = unblocked_neighbor_attention(qd, kvd, neigh, g)
        for got, expected in zip((node.data, gq, gkv), want):
            np.testing.assert_array_equal(got, expected)


class TestKvCotangentBits:
    """neighbor_attention's channel-major kv cotangent against the scatter
    of the (M, k, D) products by ad._index_add."""

    def check(self, m, n, d, neigh, seed=0):
        rng = np.random.default_rng(seed)
        qd, kvd, g = rng.normal(size=(m, d)), rng.normal(size=(n, d)), rng.normal(size=(m, d))
        out = ft.neighbor_attention(ad.constant(qd), ad.constant(kvd), neigh)
        _, gkv = out._vjp(g)
        want = unblocked_neighbor_attention(qd, kvd, neigh, g)[2]
        assert gkv.shape == want.shape
        np.testing.assert_array_equal(gkv, want)
        return gkv

    @pytest.mark.parametrize("d", [5, 67])
    def test_repeats_and_an_unreferenced_anchor(self, d):
        # Anchor 9 is never a neighbour; the rows repeat anchors within and
        # across rows.
        neigh = np.random.default_rng(d).integers(0, 9, size=(40, 6))
        assert any(len(set(row)) < 6 for row in neigh.tolist())
        gkv = self.check(40, 10, d, neigh)
        assert not gkv[9].any()

    def test_single_neighbour(self):
        self.check(30, 7, 8, np.random.default_rng(1).integers(0, 7, size=(30, 1)))

    def test_fewer_anchors_than_k(self):
        neigh = ft.knn_neighbors(points(2, 25, 0), points(3, 3, 0), 5)
        assert neigh.shape == (25, 5)
        self.check(25, 3, 16, neigh)

    def test_no_query_rows(self):
        gkv = self.check(0, 4, 6, np.zeros((0, 3), dtype=np.intp))
        assert not gkv.any()


class TestLocalQueryInteraction:
    def setup_method(self):
        self.task = small_task(grid=2, d_task=8, d_pre=8, k=3)
        randomize_store(self.task.store, seed=11)
        self.frozen = random_frozen(n=6, d_pre=8, seed=1)

    def run_block(self, k=None, anchors=None, feats=None):
        k = self.task.cfg.k if k is None else k
        a = self.frozen.anchors if anchors is None else anchors
        f = self.frozen.features if feats is None else feats
        neigh = ft.knn_neighbors(self.task.positions, a[:, dec.anchor_slice("pos")], k)
        return ft.local_query_interaction(
            self.task.positions, self.task.store["task.queries"], a, f, self.task.store, neigh
        )

    def test_matches_numpy_replica(self):
        out = self.run_block()
        want = interaction_np(
            self.task.store,
            self.task.positions,
            self.task.store["task.queries"].data,
            self.frozen.anchors,
            self.frozen.features,
            self.task.cfg.k,
        )
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_single_neighbor_weight_is_exactly_one(self):
        out = self.run_block(k=1)
        neigh = ft.knn_neighbors(self.task.positions, self.frozen.anchors[:, :3], 1)
        kv = self.frozen.features @ self.task.store[
            "task.interact.adapter.w"
        ].data + mlp2_np(self.task.store, "task.interact.gk", self.frozen.anchors)
        want = (
            self.task.store["task.queries"].data
            + kv[neigh[:, 0]] @ self.task.store["task.interact.out.w"].data
        )
        np.testing.assert_array_equal(out.data, want)

    def test_identical_neighbors_give_uniform_weights(self):
        anchors = np.repeat(self.frozen.anchors[:1], 4, axis=0)
        feats = np.repeat(self.frozen.features[:1], 4, axis=0)
        out = self.run_block(k=4, anchors=anchors, feats=feats)
        kv = feats[:1] @ self.task.store["task.interact.adapter.w"].data + mlp2_np(
            self.task.store, "task.interact.gk", anchors[:1]
        )
        want = (
            self.task.store["task.queries"].data
            + kv @ self.task.store["task.interact.out.w"].data
        )
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_empty_anchors_identity_with_warning(self, caplog):
        features = self.task.store["task.queries"]
        with caplog.at_level(logging.WARNING, logger="querysplat.finetune"):
            out = ft.local_query_interaction(
                self.task.positions, features, np.zeros((0, 11)), np.zeros((0, 8)),
                self.task.store, None,
            )
        assert out is features
        assert any("identity" in r.message for r in caplog.records)

    def test_empty_anchors_with_a_table_pass_through(self, caplog):
        features = self.task.store["task.queries"]
        neigh = np.zeros((self.task.positions.shape[0], self.task.cfg.k), dtype=np.intp)
        with caplog.at_level(logging.WARNING, logger="querysplat.finetune"):
            out = ft.local_query_interaction(
                self.task.positions, features, np.zeros((0, 11)), np.zeros((0, 8)),
                self.task.store, neigh,
            )
        assert out is features
        assert any("identity" in r.message for r in caplog.records)

    def test_permutation_invariant_in_anchor_order(self):
        out = self.run_block()
        rng = np.random.default_rng(5)
        perm = rng.permutation(self.frozen.anchors.shape[0])
        out_p = self.run_block(
            anchors=self.frozen.anchors[perm], feats=self.frozen.features[perm]
        )
        np.testing.assert_allclose(out.data, out_p.data, atol=1e-12)

    def test_feature_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.run_block(feats=np.zeros((6, 9)))

    def test_gradcheck_through_interaction_and_head(self):
        task = self.task
        frozen = self.frozen
        gt = np.random.default_rng(3).integers(0, 2, size=8)
        neigh = ft.knn_neighbors(
            task.positions, frozen.anchors[:, dec.anchor_slice("pos")], task.cfg.k
        )

        def forward():
            features = ft.local_query_interaction(
                task.positions, task.store["task.queries"], frozen.anchors,
                frozen.features, task.store, neigh,
            )
            logits = ft.occupancy_head(features, task.grid, task.store)
            return ad.cross_entropy(logits, gt)

        for name in task.store.names():
            def fn(t, name=name):
                with task.store.substitute(name, t):
                    return forward()

            err = ad.finite_difference_check(fn, task.store[name].data.copy())
            assert err < 1e-4, f"gradient mismatch for {name}: {err}"


class TestOccupancyHead:
    def test_fresh_head_gives_uniform_logits(self):
        task = small_task(grid=2, d_task=8)
        logits = ft.occupancy_head(task.store["task.queries"], task.grid, task.store)
        assert logits.data.shape == (8, 2)
        np.testing.assert_array_equal(logits.data, np.zeros((8, 2)))

    def test_deterministic_per_seed(self):
        a = small_task(seed=5).store.state_dict()
        b = small_task(seed=5).store.state_dict()
        c = small_task(seed=6).store.state_dict()
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)
        assert any(a[k].tobytes() != c[k].tobytes() for k in a)

    def test_wrong_query_count_rejected(self):
        task = small_task(grid=2, d_task=8)
        with pytest.raises(ValueError):
            ft.occupancy_head(task.store["task.queries"], 3, task.store)


class TestVoxelGrid:
    def test_centers_layout(self):
        bounds = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
        centers = ft.voxel_centers(bounds, 2)
        assert centers.shape == (8, 3)
        np.testing.assert_allclose(centers[0], [0.5, 0.5, 0.5])
        grid = centers.reshape(2, 2, 2, 3)
        np.testing.assert_allclose(grid[1, 0, 1], [1.5, 0.5, 1.5])

    def scene_with(self, gaussians, bounds):
        base, _ = tiny_sample(seed=3, n_views=1)
        return replace(base, gaussians=np.concatenate(gaussians), bounds=np.asarray(bounds))

    def prim(self, mu, opacity):
        return gaussian_records(
            mu=mu, quat=[1, 0, 0, 0], scale=[0.1] * 3, opacity=opacity,
            color=[0.5] * 3,
        )

    def test_single_gaussian_marks_its_voxel(self):
        bounds = [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]
        scene = self.scene_with([self.prim([0.5, 0.5, 0.5], 0.9)], bounds)
        occ = ft.make_ground_truth_grid(scene, grid=2)
        assert occ[0, 0, 0] == 1
        assert occ.sum() == 1

    def test_opacity_at_half_is_excluded(self):
        bounds = [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]
        scene = self.scene_with(
            [self.prim([0.5, 0.5, 0.5], 0.5), self.prim([1.5, 1.5, 1.5], 0.51)],
            bounds,
        )
        occ = ft.make_ground_truth_grid(scene, grid=2)
        assert occ[0, 0, 0] == 0
        assert occ[1, 1, 1] == 1

    def test_mean_on_upper_bound_lands_in_last_voxel(self):
        bounds = [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]
        scene = self.scene_with([self.prim([2.0, 2.0, 2.0], 0.9)], bounds)
        occ = ft.make_ground_truth_grid(scene, grid=2)
        assert occ[1, 1, 1] == 1

    def test_flat_index_matches_voxel_centers(self):
        bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
        centers = ft.voxel_centers(bounds, 4)
        scene = self.scene_with([self.prim(centers[13], 0.9)], bounds)
        occ = ft.make_ground_truth_grid(scene, grid=4)
        assert occ.reshape(-1)[13] == 1
        assert occ.sum() == 1


def ground_truth_grid_oracle(scene, grid):
    """Per-Gaussian loop form of make_ground_truth_grid's rule."""
    lo, hi = scene.bounds
    size = (hi - lo) / grid
    occ = np.zeros((grid,) * 3, dtype=np.int64)
    for g in scene.gaussians:
        if g.opacity <= 0.5 or np.any(g.mu < lo) or np.any(g.mu > hi):
            continue
        idx = np.minimum(((g.mu - lo) / size).astype(np.int64), grid - 1)
        occ[idx[0], idx[1], idx[2]] = 1
    return occ


class TestGroundTruthGridOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop(self, seed):
        spec = {"n_objects": 3, "bounds": [[-1.0, -2.0, 0.0], [1.0, 2.0, 1.5]],
                "n_views": 1, "image_size": (8, 8)}
        scene = sc.generate_scene(spec, seed=seed)
        # Opacities straddling the 0.5 cut and means on the upper faces.
        scene.gaussians.opacity[::3] = 0.5
        scene.gaussians.opacity[1::7] = np.nextafter(0.5, 1.0)
        scene.gaussians.mu[::5] = scene.bounds[1]
        for grid in (1, 4, 16):
            np.testing.assert_array_equal(
                ft.make_ground_truth_grid(scene, grid), ground_truth_grid_oracle(scene, grid)
            )


class TestEvaluateIoU:
    def test_perfect_prediction(self):
        grid = np.array([[[0, 1], [1, 0]], [[0, 0], [1, 1]]])
        per_class, miou = ft.evaluate_iou(grid, grid)
        assert per_class == {0: 1.0, 1: 1.0}
        assert miou == 1.0

    def test_disjoint_prediction(self):
        pred = np.array([1, 1, 0, 0]).reshape(1, 2, 2)
        gt = np.array([0, 0, 1, 1]).reshape(1, 2, 2)
        per_class, miou = ft.evaluate_iou(pred, gt)
        assert per_class == {0: 0.0, 1: 0.0}
        assert miou == 0.0

    def test_partial_overlap_by_hand(self):
        pred = np.zeros(8, dtype=int)
        gt = np.zeros(8, dtype=int)
        pred[[0, 1]] = 1
        gt[[1, 2]] = 1
        per_class, miou = ft.evaluate_iou(pred.reshape(2, 2, 2), gt.reshape(2, 2, 2))
        np.testing.assert_allclose(per_class[1], 1.0 / 3.0)
        np.testing.assert_allclose(per_class[0], 5.0 / 7.0)
        np.testing.assert_allclose(miou, (1.0 / 3.0 + 5.0 / 7.0) / 2.0)

    def test_class_absent_from_both_is_excluded(self):
        empty = np.zeros((2, 2, 2), dtype=int)
        per_class, miou = ft.evaluate_iou(empty, empty)
        assert per_class == {0: 1.0}
        assert miou == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ft.evaluate_iou(np.zeros((2, 2, 2)), np.zeros((2, 2)))


class TestInferFrozen:
    def test_anchor_layout_and_ranges(self):
        scene, sample = tiny_sample(seed=3)
        model = tiny_model(scene)
        frozen = ft.infer_frozen(model, sample)
        assert frozen.anchors.shape == (16, 11)
        assert frozen.features.shape == (16, model.decoder_cfg.feature_dim)
        assert np.all(np.isfinite(frozen.anchors))
        assert np.all(frozen.anchors[:, 3:6] > 0)  # scales
        np.testing.assert_allclose(
            np.linalg.norm(frozen.anchors[:, 6:10], axis=1), 1.0, atol=1e-12
        )
        assert np.all((frozen.anchors[:, 10] >= 0) & (frozen.anchors[:, 10] <= 1))

    def test_anchor_columns_hold_the_decoded_fields(self):
        scene, sample = tiny_sample(seed=3)
        model = tiny_model(scene)
        frozen = ft.infer_frozen(model, sample)
        images = [sample.rgb[v] for v in range(sample.n_views)]
        pyramid = enc.encode(model.store, images)
        head, working = dec.decode(
            model.query_set(), pyramid, sample.cameras, model.decoder_cfg, model.store
        )
        assert frozen.anchors.shape == (16, dec.ANCHOR_DIM)
        for group in dec.ANCHOR_COLUMNS:
            want = getattr(head, "mu" if group == "pos" else group).data
            got = frozen.anchors[:, dec.anchor_slice(group)]
            assert got.tobytes() == want.reshape(got.shape).tobytes(), group
        assert frozen.features.tobytes() == working.features.data.tobytes()


class TestFinetuneStep:
    @classmethod
    def setup_class(cls):
        cls.scene, cls.sample = tiny_sample(seed=3, n_views=2, n_objects=2)
        cls.model = tiny_model(cls.scene)
        cls.frozen = ft.infer_frozen(cls.model, cls.sample)
        cls.gt = ft.make_ground_truth_grid(cls.scene, grid=4)

    def fresh_task(self, seed=0):
        cfg = ft.InteractionConfig(k=4, pe_hidden=16)
        return ft.build_task_model(
            self.scene.bounds, grid=4, cfg=cfg, d_task=16, d_pre=64, seed=seed
        )

    def run_steps(self, task, n, lr, use_interaction=True):
        state = pt.OptimizerState()
        return [
            ft.finetune_step(task, self.frozen, self.gt, state, lr, use_interaction)
            for _ in range(n)
        ]

    def test_pretrained_weights_unchanged(self):
        before = {
            n: self.model.store[n].data.tobytes() for n in self.model.store.names()
        }
        self.run_steps(self.fresh_task(), 10, lr=1e-2)
        after = {
            n: self.model.store[n].data.tobytes() for n in self.model.store.names()
        }
        assert before == after

    def test_zero_lr_keeps_loss_constant(self):
        losses = self.run_steps(self.fresh_task(), 3, lr=0.0)
        assert losses[0] == losses[1] == losses[2]

    def test_loss_decreases(self):
        losses = self.run_steps(self.fresh_task(), 40, lr=1e-2)
        assert losses[-1] < 0.5 * losses[0]

    def test_ablation_mode_also_trains(self):
        losses = self.run_steps(self.fresh_task(), 40, lr=1e-2, use_interaction=False)
        assert losses[-1] < 0.5 * losses[0]

    def test_interaction_is_identity_at_init(self):
        with_block = self.run_steps(self.fresh_task(), 1, lr=0.0)[0]
        without = self.run_steps(self.fresh_task(), 1, lr=0.0, use_interaction=False)[0]
        assert with_block == without

    def test_deterministic(self):
        a = self.run_steps(self.fresh_task(), 5, lr=1e-2)
        b = self.run_steps(self.fresh_task(), 5, lr=1e-2)
        assert a == b

    def test_bad_grid_shape_rejected(self):
        state = pt.OptimizerState()
        with pytest.raises(ValueError):
            ft.finetune_step(
                self.fresh_task(), self.frozen, np.zeros((3, 3, 3)), state, 1e-2
            )

    def test_non_finite_gradient_names_the_parameters(self, monkeypatch):
        logits = ft._task_logits

        def poisoned(*args):
            # The loss stays finite; the VJP turns every cotangent into NaN.
            out = logits(*args)
            return ad.custom((out,), out.data, lambda g: (g * np.nan,), name="poison")

        monkeypatch.setattr(ft, "_task_logits", poisoned)
        task = self.fresh_task()
        before = {n: t.data.tobytes() for n, t in task.store.items()}
        with pytest.raises(pt.PretrainDivergedError, match="non-finite gradients") as e:
            ft.finetune_step(task, self.frozen, self.gt, pt.OptimizerState(), 1e-2)
        assert e.value.diagnostics["params"] == task.store.names()
        assert {n: t.data.tobytes() for n, t in task.store.items()} == before


class TestRunFinetuning:
    def test_history_csv_and_checkpoint(self, tmp_path):
        scene, sample = tiny_sample(seed=3, n_views=2, n_objects=2)
        model = tiny_model(scene)
        cfg = ft.InteractionConfig(k=4, pe_hidden=16)
        log = tmp_path / "metrics.csv"
        ckpt = tmp_path / "task.ckpt"

        def run(log_path, ckpt_path):
            task = ft.build_task_model(
                scene.bounds, grid=4, cfg=cfg, d_task=16, d_pre=64, seed=0
            )
            return task, ft.run_finetuning(
                task, model, [sample], [scene], total_steps=5, lr=1e-2,
                log_path=log_path, checkpoint_path=ckpt_path,
            )

        task, history = run(log, ckpt)
        assert [h["step"] for h in history] == [1, 2, 3, 4, 5]
        assert all(0.0 <= h["miou"] <= 1.0 for h in history)

        with open(log, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "loss", "iou_occupied", "miou"]
        assert len(rows) == 6
        assert float(rows[1][1]) == history[0]["loss"]
        assert float(rows[-1][3]) == history[-1]["miou"]

        saved = load_checkpoint(ckpt)
        assert set(saved) == set(task.store.names())

        first_bytes = log.read_bytes()
        run(log, ckpt)
        assert log.read_bytes() == first_bytes

    @pytest.fixture(scope="class")
    def two_scenes(self):
        pairs = [tiny_sample(seed=s, n_views=2, n_objects=2) for s in (3, 4)]
        scenes, samples = [p[0] for p in pairs], [p[1] for p in pairs]
        return scenes, samples, tiny_model(scenes[0])

    def fresh_task(self, scene):
        cfg = ft.InteractionConfig(k=4, pe_hidden=16)
        return ft.build_task_model(
            scene.bounds, grid=4, cfg=cfg, d_task=16, d_pre=64, seed=0
        )

    @pytest.mark.parametrize("total_steps", [2, 3, 7])
    def test_knn_runs_once_per_scene(self, two_scenes, monkeypatch, total_steps):
        scenes, samples, model = two_scenes
        calls = []
        knn = ft.knn_neighbors
        monkeypatch.setattr(
            ft, "knn_neighbors", lambda *args: calls.append(args) or knn(*args)
        )
        ft.run_finetuning(
            self.fresh_task(scenes[0]), model, samples, scenes,
            total_steps=total_steps, lr=1e-2,
        )
        assert len(calls) == len(scenes)

    def test_history_matches_fresh_inference_every_step(self, two_scenes):
        scenes, samples, model = two_scenes
        task = self.fresh_task(scenes[0])
        history = ft.run_finetuning(
            task, model, samples, scenes, total_steps=5, lr=1e-2
        )

        # The same loop with nothing carried between steps: a fresh frozen
        # inference, so a fresh neighbour table, for every call.
        ref = self.fresh_task(scenes[0])
        grids = [ft.make_ground_truth_grid(s, ref.grid) for s in scenes]
        state = pt.OptimizerState(weight_decay=0.01)
        want = []
        for step in range(1, 6):
            i = (step - 1) % len(scenes)
            loss = ft.finetune_step(
                ref, ft.infer_frozen(model, samples[i]), grids[i], state, 1e-2
            )
            pred = ft.predict_occupancy(ref, ft.infer_frozen(model, samples[i]))
            per_class, miou = ft.evaluate_iou(pred, grids[i])
            want.append({"step": step, "loss": loss,
                         "iou_occupied": per_class.get(1, 0.0), "miou": miou})
        assert history == want
        got_state, want_state = task.store.state_dict(), ref.store.state_dict()
        assert all(got_state[n].tobytes() == want_state[n].tobytes() for n in want_state)

    def test_memo_is_keyed_by_task_values(self, two_scenes):
        scenes, samples, model = two_scenes
        frozen = ft.infer_frozen(model, samples[0])
        task = self.fresh_task(scenes[0])
        first = ft.predict_occupancy(task, frozen)
        coarse = ft.build_task_model(
            scenes[0].bounds, grid=2, cfg=replace(task.cfg, k=2), d_task=16,
            d_pre=64, seed=0,
        )
        # A second task on the same frozen inference gets its own table, and
        # the first task's predictions do not change.
        assert ft.predict_occupancy(coarse, frozen).shape == (2, 2, 2)
        np.testing.assert_array_equal(ft.predict_occupancy(task, frozen), first)
        want = ft.predict_occupancy(coarse, ft.infer_frozen(model, samples[0]))
        np.testing.assert_array_equal(ft.predict_occupancy(coarse, frozen), want)
