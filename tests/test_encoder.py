"""Tests for the convolutional backbone, FPN neck, and bilinear sampling."""

import numpy as np
import pytest

from querysplat import autodiff as ad
from querysplat import encoder as enc


def make_store(seed=42):
    store = ad.ParamStore()
    enc.init_encoder_params(store, np.random.default_rng(seed))
    return store


class TestConvPrimitives:
    def test_identity_1x1(self):
        x = ad.constant(np.random.default_rng(0).normal(size=(5, 6, 4)))
        w = ad.constant(np.eye(4))
        b = ad.constant(np.zeros(4))
        out = enc.conv1x1(x, w, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_conv2d_center_tap_identity(self):
        # A kernel that only passes through the center tap reproduces the
        # input (stride 1).
        rng = np.random.default_rng(1)
        x = ad.constant(rng.normal(size=(6, 7, 3)))
        w = np.zeros((27, 3))
        w[4 * 3 + 0, 0] = 1.0  # tap (ky=1, kx=1) is flat index 4
        w[4 * 3 + 1, 1] = 1.0
        w[4 * 3 + 2, 2] = 1.0
        out = enc.conv2d(x, ad.constant(w), ad.constant(np.zeros(3)), stride=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_conv2d_box_sum_with_padding(self):
        # All-ones kernel on an all-ones image counts in-bounds taps.
        x = ad.constant(np.ones((4, 4, 1)))
        w = ad.constant(np.ones((9, 1)))
        out = enc.conv2d(x, w, ad.constant(np.zeros(1)), stride=1)
        assert out.data[0, 0, 0] == 4.0  # corner: 2x2 window in bounds
        assert out.data[0, 1, 0] == 6.0  # edge
        assert out.data[1, 1, 0] == 9.0  # interior

    def test_conv2d_stride2_shape(self):
        x = ad.constant(np.zeros((16, 12, 2)))
        w = ad.constant(np.zeros((18, 5)))
        out = enc.conv2d(x, w, ad.constant(np.zeros(5)), stride=2)
        assert out.data.shape == (8, 6, 5)

    def test_upsample_nearest(self):
        x = ad.constant(np.arange(6.0).reshape(2, 3, 1))
        up = enc.upsample2x_nearest(x)
        assert up.data.shape == (4, 6, 1)
        np.testing.assert_array_equal(up.data[0, :, 0], [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(up.data[:, 0, 0], [0, 0, 3, 3])

    def test_conv2d_gradcheck(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4, 2))
        w0 = rng.normal(size=(18, 3))
        seed_w = rng.normal(size=(2, 2, 3))

        def fn(t):
            out = enc.conv2d(
                ad.constant(x), t, ad.constant(np.zeros(3)), stride=2
            )
            return ad.reduce_sum(out * ad.constant(seed_w))

        assert ad.finite_difference_check(fn, w0) < 1e-5


class TestEncode:
    def test_level_sizes_64(self):
        store = make_store()
        pyramid = enc.encode(store, [np.zeros((64, 64, 3))])
        sizes = [lvl[0].data.shape for lvl in pyramid.levels]
        assert sizes == [(16, 16, 32), (8, 8, 32), (4, 4, 32), (2, 2, 32)]
        assert pyramid.strides == (4, 8, 16, 32)

    def test_rectangular_input(self):
        store = make_store()
        pyramid = enc.encode(store, [np.zeros((32, 96, 3))])
        assert pyramid.levels[0][0].data.shape == (8, 24, 32)
        assert pyramid.levels[3][0].data.shape == (1, 3, 32)

    def test_indivisible_size_rejected(self):
        store = make_store()
        with pytest.raises(ValueError, match="divisible"):
            enc.encode(store, [np.zeros((60, 64, 3))])

    def test_identical_views_identical_features(self):
        store = make_store()
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(32, 32, 3))
        pyramid = enc.encode(store, [img, img.copy()])
        for lvl in pyramid.levels:
            assert lvl[0].data.tobytes() == lvl[1].data.tobytes()

    def test_deterministic(self):
        store = make_store()
        img = np.random.default_rng(6).uniform(size=(32, 32, 3))
        a = enc.encode(store, [img]).levels[0][0].data
        b = enc.encode(store, [img]).levels[0][0].data
        assert a.tobytes() == b.tobytes()

    def test_translation_consistency_at_stride_32(self):
        store = make_store()
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(32, 192, 3))
        shifted = np.zeros_like(x)
        shifted[:, 32:] = x[:, :160]
        p_orig = enc.encode(store, [x])
        p_shift = enc.encode(store, [shifted])
        # Level 32: cells whose receptive fields stay inside the overlap.
        a = p_orig.levels[3][0].data
        b = p_shift.levels[3][0].data
        np.testing.assert_allclose(b[:, 3], a[:, 2], atol=1e-9)
        # Level 4: the 32 px shift is 8 cells.
        a4 = p_orig.levels[0][0].data
        b4 = p_shift.levels[0][0].data
        np.testing.assert_allclose(b4[:, 28], a4[:, 20], atol=1e-9)

    def test_gradcheck_wrt_input_patch(self):
        store = make_store()
        rng = np.random.default_rng(8)
        img = rng.uniform(size=(32, 32, 3))
        patch0 = img[10:12, 7:9, :].copy()

        def fn(t):
            top = ad.constant(img[:10])
            mid_left = ad.constant(img[10:12, :7])
            mid_right = ad.constant(img[10:12, 9:])
            bottom = ad.constant(img[12:])
            mid = ad.concat([mid_left, t, mid_right], axis=1)
            full = ad.concat([top, mid, bottom], axis=0)
            levels = enc.encode_view(store, full)
            total = None
            for lvl in levels:
                s = ad.reduce_sum(lvl)
                total = s if total is None else ad.add(total, s)
            return total * (1.0 / 2000.0)

        assert ad.finite_difference_check(fn, patch0, epsilon=1e-5) < 1e-4

    def test_gradcheck_wrt_weights(self):
        store = make_store()
        rng = np.random.default_rng(9)
        img = rng.uniform(size=(32, 32, 3))
        name = "encoder.lateral2.w"
        w0 = store[name].data[:8, :2].copy()

        def fn(t):
            # Splice the probe block into the full weight matrix.
            orig = store[name].data
            right = ad.constant(orig[:8, 2:])
            top = ad.concat([t, right], axis=1)
            bottom = ad.constant(orig[8:])
            full = ad.concat([top, bottom], axis=0)
            with store.substitute(name, full):
                levels = enc.encode_view(store, img)
                return ad.reduce_sum(levels[2]) * (1.0 / 100.0)

        assert ad.finite_difference_check(fn, w0, epsilon=1e-5) < 1e-4


# (h, w, c) maps on both sides of bilinear_sample_batch's rule, which samples
# maps with h*w + 1 <= 4*c through a dense interpolation matrix and larger
# maps through a corner gather: one gather map, one matmul map, one map
# exactly at the rule (matmul) and one a cell past it (gather).
MAPS = {"gather": (4, 5, 3), "matmul": (4, 5, 8), "at-rule": (3, 5, 4), "past-rule": (4, 4, 4)}


def bilinear_sample(level_map, pixel, stride):
    """Sample a single (x, y) pixel through bilinear_sample_batch -> (c,)."""
    pixel = np.asarray(pixel, dtype=np.float64).reshape(1, 2)
    c = level_map.data.shape[2]
    return ad.reshape(enc.bilinear_sample_batch(level_map, pixel, stride), (c,))


def loop_bilinear(level, pixels, stride, g, mask=None):
    """Four-corner loop oracle for zero-padded bilinear sampling.

    Returns the (M, c) samples and, for the output cotangent g, the map and
    pixel cotangents.
    """
    h, w, c = level.shape
    out = np.zeros((len(pixels), c))
    gmap = np.zeros_like(level)
    gpix = np.zeros((len(pixels), 2))
    for m, (px, py) in enumerate(pixels):
        keep = 1.0 if mask is None else float(mask[m])
        u, v = px / stride, py / stride
        x0, y0 = int(np.floor(u)), int(np.floor(v))
        fu, fv = u - x0, v - y0
        for dy in (0, 1):
            for dx in (0, 1):
                x, y = x0 + dx, y0 + dy
                if not (0 <= x < w and 0 <= y < h):
                    continue
                au = fu if dx else 1.0 - fu
                av = fv if dy else 1.0 - fv
                out[m] += keep * au * av * level[y, x]
                gmap[y, x] += keep * au * av * g[m]
                dot = keep * float(g[m] @ level[y, x]) / stride
                gpix[m, 0] += (1.0 if dx else -1.0) * av * dot
                gpix[m, 1] += (1.0 if dy else -1.0) * au * dot
    return out, gmap, gpix


class TestBilinearSample:
    def _map(self, shape=MAPS["gather"], seed=10):
        rng = np.random.default_rng(seed)
        return ad.constant(rng.uniform(size=shape))

    def test_constant_map(self):
        for name, (h, w, c) in MAPS.items():
            level = ad.constant(np.full((h, w, c), 7.5))
            for pixel in [(0.0, 0.0), (5.3, 2.1), (4 * (w - 1) - 0.1, 4 * (h - 1) - 0.1)]:
                out = bilinear_sample(level, pixel, stride=4)
                np.testing.assert_allclose(out.data, 7.5, atol=1e-12, err_msg=name)

    def test_integer_coordinates_exact(self):
        for name, shape in MAPS.items():
            level = self._map(shape)
            out = bilinear_sample(level, (8.0, 4.0), stride=4)  # cell (2, 1)
            np.testing.assert_array_equal(out.data, level.data[1, 2], err_msg=name)

    def test_out_of_bounds_zero(self):
        for name, (h, w, c) in MAPS.items():
            level = self._map((h, w, c))
            for pixel in [(-5.0, -5.0), (w + 0.5, 1.0), (1.0, -1.5)]:
                out = bilinear_sample(level, pixel, stride=1)
                np.testing.assert_array_equal(out.data, np.zeros(c), err_msg=name)

    def test_linear_along_axis(self):
        for name, shape in MAPS.items():
            level = self._map(shape)
            a = bilinear_sample(level, (1.0, 2.0), stride=1).data
            b = bilinear_sample(level, (2.0, 2.0), stride=1).data
            mid = bilinear_sample(level, (1.25, 2.0), stride=1).data
            np.testing.assert_allclose(mid, 0.75 * a + 0.25 * b, atol=1e-12, err_msg=name)

    def test_continuity_at_cell_boundary(self):
        eps = 1e-9
        for name, shape in MAPS.items():
            level = self._map(shape)
            lo = bilinear_sample(level, (2.0 - eps, 1.5), stride=1).data
            hi = bilinear_sample(level, (2.0 + eps, 1.5), stride=1).data
            np.testing.assert_allclose(lo, hi, atol=1e-7, err_msg=name)

    def test_continuity_at_image_border(self):
        # Zero-padded bilinear: approaching the border from inside fades
        # linearly toward zero outside; no jump at the edge.
        eps = 1e-9
        for name, (h, w, c) in MAPS.items():
            level = self._map((h, w, c))
            inside = bilinear_sample(level, (w - 1 - eps, 1.0), stride=1).data
            outside = bilinear_sample(level, (w - 1 + eps, 1.0), stride=1).data
            np.testing.assert_allclose(inside, outside, atol=1e-7, err_msg=name)
            np.testing.assert_allclose(inside, level.data[1, w - 1], atol=1e-7, err_msg=name)

    def test_batch_matches_single(self):
        pixels = np.array([[0.5, 0.5], [3.7, 2.2], [-9.0, 1.0], [2.0, 3.0]])
        for name, (h, w, c) in MAPS.items():
            level = self._map((h, w, c))
            batch = enc.bilinear_sample_batch(level, pixels, stride=1)
            # The gather path is exact; BLAS may sum a one-row matmul in
            # another order than a four-row one (1 ulp seen).
            atol = 1e-15 if h * w + 1 <= 4 * c else 0.0
            for i, p in enumerate(pixels):
                single = bilinear_sample(level, p, stride=1)
                np.testing.assert_allclose(batch.data[i], single.data, rtol=0, atol=atol,
                                           err_msg=name)

    def test_gradcheck_wrt_pixels(self):
        pixels0 = np.array([[1.3, 0.7], [2.9, 2.1], [7.5, 1.1]])
        for name, shape in MAPS.items():
            level = self._map(shape, seed=11)
            seed_w = np.random.default_rng(12).normal(size=(3, shape[2]))

            def fn(t):
                out = enc.bilinear_sample_batch(level, t, stride=2)
                return ad.reduce_sum(out * ad.constant(seed_w))

            assert ad.finite_difference_check(fn, pixels0) < 1e-5, name

    def test_gradcheck_wrt_map(self):
        pixels = np.array([[0.4, 1.1], [1.9, 0.2], [2.5, 2.5], [4.6, -0.3]])
        for name, shape in MAPS.items():
            rng = np.random.default_rng(13)
            map0 = rng.uniform(size=shape)
            seed_w = rng.normal(size=(4, shape[2]))

            def fn(t):
                out = enc.bilinear_sample_batch(t, pixels, stride=1)
                return ad.reduce_sum(out * ad.constant(seed_w))

            assert ad.finite_difference_check(fn, map0) < 1e-5, name

    def test_out_of_bounds_zero_gradient(self):
        for name, shape in MAPS.items():
            level = ad.Tensor(np.random.default_rng(14).uniform(size=shape))
            pix = ad.Tensor(np.array([[-4.0, -4.0], [shape[1] + 1.0, 0.5]]))
            out = enc.bilinear_sample_batch(level, pix, stride=1)
            ad.reduce_sum(out).backward()
            assert not pix.grad.any(), name
            assert not level.grad.any(), name

    def test_mask_zeroes_value_and_gradient(self):
        pixels = np.array([[1.3, 0.7], [2.9, 2.1], [0.2, 1.8]])
        mask = np.array([[1.0], [0.0], [1.0]])
        for name, shape in MAPS.items():
            level = ad.Tensor(np.random.default_rng(15).uniform(size=shape))
            pix = ad.Tensor(pixels.copy())
            out = enc.bilinear_sample_batch(level, pix, stride=1, mask=mask)
            unmasked = enc.bilinear_sample_batch(level, pixels, stride=1)
            np.testing.assert_array_equal(out.data[1], np.zeros(shape[2]), err_msg=name)
            np.testing.assert_allclose(out.data[[0, 2]], unmasked.data[[0, 2]], rtol=0,
                                       atol=1e-15, err_msg=name)
            ad.reduce_sum(out).backward()
            assert not pix.grad[1].any(), name
            assert pix.grad[[0, 2]].all(), name

    def test_matches_loop_oracle(self):
        # Both paths, on the test maps and on the decoder's 16x16 (gather)
        # and 8x8 (matmul) levels, against the four-corner loop: values,
        # map and pixel cotangents, with a mask and out-of-bounds samples.
        shapes = dict(MAPS, level0=(16, 16, 32), level1=(8, 8, 32))
        for name, (h, w, c) in shapes.items():
            rng = np.random.default_rng(16)
            stride = 4
            pixels = rng.uniform(-1.5, 1.2, size=(60, 2)) * stride * np.array([w, h])
            mask = (rng.uniform(size=(60, 1)) < 0.8).astype(np.float64)
            g = rng.normal(size=(60, c))
            level = ad.Tensor(rng.uniform(size=(h, w, c)))
            pix = ad.Tensor(pixels.copy())
            out = enc.bilinear_sample_batch(level, pix, stride, mask=mask)
            ad.reduce_sum(out * ad.constant(g)).backward()
            want, want_gmap, want_gpix = loop_bilinear(level.data, pixels, stride, g, mask[:, 0])
            np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(level.grad, want_gmap, rtol=0, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(pix.grad, want_gpix, rtol=0, atol=1e-12, err_msg=name)
