"""Tests for the reverse-mode autodiff engine."""

import copy
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysplat import autodiff as ad
from querysplat.autodiff import Tensor


def transpose(x, axes=None):
    """Axis permutation as a tape node, for composed-ops oracles."""
    inverse = None if axes is None else tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return Tensor(np.ascontiguousarray(np.transpose(x.data, axes)), (x,), vjp, name="transpose")


def _gradcheck(fn, point, tol=1e-5, epsilon=1e-5):
    err = ad.finite_difference_check(fn, point, epsilon=epsilon)
    assert err < tol, f"max relative gradient error {err:.3e} >= {tol}"


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        out = ad.sigmoid(Tensor([0.0]))
        np.testing.assert_allclose(out.data, [0.5], rtol=0, atol=0)

    def test_matmul_identity(self):
        a = Tensor(np.eye(3))
        b = Tensor(np.arange(9.0).reshape(3, 3))
        out = ad.matmul(a, b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(5, 7)))
        out = ad.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_relu_clamps_negative(self):
        out = ad.relu(Tensor([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_layer_norm_zero_mean_unit_var(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 16)) * 3.0 + 5.0)
        out = ad.layer_norm(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-3)

    def test_tanh_matches_numpy(self):
        x = np.linspace(-4, 4, 17)
        out = ad.tanh(Tensor(x))
        np.testing.assert_allclose(out.data, np.tanh(x), atol=1e-12)

    def test_concat_and_narrow_roundtrip(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(6.0, 12.0).reshape(2, 3))
        cat = ad.concat([a, b], axis=0)
        back = ad.narrow(cat, 0, 2, 2)
        np.testing.assert_array_equal(back.data, b.data)

    def test_gather_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.gather(x, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.data, x.data[[2, 0, 2]])

    def test_scatter_add_accumulates(self):
        x = Tensor(np.ones((4, 2)))
        out = ad.scatter_add(x, np.array([0, 1, 0, 1]), num=3)
        np.testing.assert_array_equal(out.data, [[2.0, 2.0], [2.0, 2.0], [0.0, 0.0]])

    def test_reciprocal_and_sqrt_positive_domain(self):
        x = Tensor([0.25, 1.0, 4.0])
        np.testing.assert_allclose(ad.reciprocal_pos(x).data, [4.0, 1.0, 0.25], atol=1e-12)
        np.testing.assert_allclose(ad.sqrt_pos(x).data, [0.5, 1.0, 2.0], atol=1e-12)


class TestBackwardValues:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(5.0))
        ad.reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones(5))

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor([0.0])
        ad.reduce_sum(ad.sigmoid(x)).backward()
        np.testing.assert_allclose(x.grad, [0.25], atol=1e-15)

    def test_l1_zero_at_minimum(self):
        x = Tensor([1.0, -2.0, 3.0])
        y = Tensor([1.0, -2.0, 3.0])
        ad.l1_loss(x, y).backward()
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_l1_sign_gradient(self):
        x = Tensor([2.0, -1.0])
        y = Tensor([0.0, 0.0])
        ad.l1_loss(x, y).backward()
        np.testing.assert_array_equal(x.grad, [1.0, -1.0])
        np.testing.assert_array_equal(y.grad, [-1.0, 1.0])

    def test_quadratic_matches_finite_difference(self):
        # f(x) = x^2 has gradient 2x; at x=3 expect 6 to within 1e-6.
        err = ad.finite_difference_check(lambda t: ad.reduce_sum(t * t), np.array(3.0))
        assert err < 1e-6

    def test_fan_out_accumulates(self):
        x = Tensor([2.0])
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        ad.reduce_sum(y).backward()
        np.testing.assert_allclose(x.grad, [7.0], atol=1e-15)

    def test_broadcast_add_unbroadcasts(self):
        a = Tensor(np.zeros((3, 4)))
        b = Tensor(np.zeros((4,)))
        ad.reduce_sum(a + b).backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0))

    def test_matmul_grads(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        g = rng.normal(size=(3, 2))
        ad.matmul(a, b).backward(g)
        np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)

    def test_seed_shape_validated(self):
        x = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="seed"):
            ad.reduce_sum(x, axis=0).backward(np.zeros((3,)))

    def test_backward_linear_in_seed(self):
        rng = np.random.default_rng(7)
        point = rng.normal(size=(4,))

        def grad_for(scale):
            x = Tensor(point.copy())
            ad.reduce_sum(ad.sigmoid(x) * x).backward(np.array(scale))
            return x.grad

        g1 = grad_for(1.0)
        g2 = grad_for(2.0)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)


class TestConsumedGraph:
    """backward consumes its graph: it frees forward state as it goes, and a
    second pass through the graph is an error."""

    def test_second_backward_raises(self):
        x = Tensor(np.array([1.0, -2.0]))
        loss = ad.reduce_sum(ad.sigmoid(x) * x)
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(ad.AutodiffError, match="consumed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, first)
        assert loss.data.shape == ()  # the value outlives its graph

    def test_new_root_over_a_consumed_graph_raises(self):
        x = Tensor(np.array([0.5, 1.5]))
        h = ad.exp(x)
        ad.reduce_sum(h).backward()
        with pytest.raises(ad.AutodiffError, match="node 'exp'"):
            ad.reduce_sum(h * 2.0).backward()

    def test_forward_state_is_freed_during_the_pass(self):
        # The probe sits under exp; by the time its VJP runs, exp and the
        # sum above it have run theirs and dropped their closures and
        # parents, so exp's output array is gone.
        x = Tensor(np.arange(3.0))
        seen = []

        def probe_vjp(g):
            seen.append(ref() is None)
            return (g,)

        probe = ad.custom((x,), x.data.copy(), probe_vjp, name="probe")
        h = ad.exp(probe)
        ref = weakref.ref(h.data)
        loss = ad.reduce_sum(h)
        del h
        loss.backward()
        assert seen == [True]
        np.testing.assert_array_equal(x.grad, np.exp(np.arange(3.0)))


class TestCopiedTensors:
    """A copied leaf is a new node: backward keeps the two apart."""

    @pytest.mark.parametrize(
        "clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copy_gets_its_own_gradient(self, clone):
        a = Tensor(np.array([1.0, 2.0, 3.0]))
        b = clone(a)
        b.data = b.data * 10.0
        ad.reduce_sum(ad.mul(a, b)).backward()
        np.testing.assert_array_equal(a.grad, b.data)
        np.testing.assert_array_equal(b.grad, a.data)

    def test_non_finite_error_names_the_node(self):
        ad.set_check_finite(True)
        try:
            with pytest.raises(ad.NonFiniteError, match="node 'log'"), np.errstate(divide="ignore"):
                ad.log(Tensor([0.0]))
        finally:
            ad.set_check_finite(False)


class TestGradcheckPerPrimitive:
    """Central-difference validation of every primitive's VJP."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add(self):
        p = self.rng.normal(size=8)
        _gradcheck(lambda t: ad.reduce_sum((t + Tensor(p[::-1].copy())) * 2.0), p)

    def test_mul(self):
        p = self.rng.normal(size=8)
        _gradcheck(lambda t: ad.reduce_sum(t * t * 0.5), p)

    def test_matmul(self):
        p = self.rng.normal(size=8)
        w = self.rng.normal(size=(4, 3))
        _gradcheck(lambda t: ad.reduce_sum(ad.matmul(ad.reshape(t, (2, 4)), Tensor(w))), p)

    def test_sigmoid(self):
        _gradcheck(lambda t: ad.reduce_sum(ad.sigmoid(t)), self.rng.normal(size=8))

    def test_relu(self):
        # Keep away from the kink at 0 where FD is invalid.
        p = self.rng.normal(size=8)
        p[np.abs(p) < 0.1] += 0.2
        _gradcheck(lambda t: ad.reduce_sum(ad.relu(t)), p)

    def test_exp(self):
        _gradcheck(lambda t: ad.reduce_sum(ad.exp(t)), self.rng.normal(size=8) * 0.5)

    def test_log(self):
        _gradcheck(lambda t: ad.reduce_sum(ad.log(t)), self.rng.uniform(0.5, 3.0, size=8))

    def test_softmax(self):
        p = self.rng.normal(size=8)
        w = self.rng.normal(size=8)
        _gradcheck(lambda t: ad.reduce_sum(ad.softmax(t) * Tensor(w)), p)

    def test_layer_norm(self):
        p = self.rng.normal(size=8)
        w = self.rng.normal(size=8)
        _gradcheck(lambda t: ad.reduce_sum(ad.layer_norm(t) * Tensor(w)), p)

    def test_concat(self):
        p = self.rng.normal(size=8)
        w = self.rng.normal(size=16)

        def fn(t):
            cat = ad.concat([t, t * 2.0], axis=0)
            return ad.reduce_sum(cat * Tensor(w))

        _gradcheck(fn, p)

    def test_narrow(self):
        p = self.rng.normal(size=8)
        _gradcheck(lambda t: ad.reduce_sum(ad.narrow(t, 0, 2, 4) * 3.0), p)

    def test_reshape_transpose(self):
        p = self.rng.normal(size=8)
        w = self.rng.normal(size=(4, 2))

        def fn(t):
            m = transpose(ad.reshape(t, (2, 4)))
            return ad.reduce_sum(m * Tensor(w))

        _gradcheck(fn, p)

    def test_reduce_sum_axis(self):
        p = self.rng.normal(size=8)
        w = self.rng.normal(size=2)
        _gradcheck(
            lambda t: ad.reduce_sum(ad.reduce_sum(ad.reshape(t, (2, 4)), axis=1) * Tensor(w)),
            p,
        )

    def test_gather(self):
        p = self.rng.normal(size=8)
        idx = np.array([0, 3, 3, 7, 1])
        w = self.rng.normal(size=5)
        _gradcheck(lambda t: ad.reduce_sum(ad.gather(t, idx) * Tensor(w)), p)

    def test_scatter_add(self):
        p = self.rng.normal(size=8)
        idx = np.array([0, 1, 0, 2, 1, 2, 0, 1])
        w = self.rng.normal(size=3)
        _gradcheck(lambda t: ad.reduce_sum(ad.scatter_add(t, idx, 3) * Tensor(w)), p)

    def test_l1(self):
        p = self.rng.normal(size=8)
        target = self.rng.normal(size=8)
        # Keep away from |diff| = 0 kinks.
        mask = np.abs(p - target) < 0.1
        p[mask] += 0.3
        _gradcheck(lambda t: ad.l1_loss(t, Tensor(target)), p)

    def test_tanh_composite(self):
        _gradcheck(lambda t: ad.reduce_sum(ad.tanh(t)), self.rng.normal(size=8))

    def test_reciprocal_sqrt_composites(self):
        p = self.rng.uniform(0.5, 3.0, size=8)
        _gradcheck(lambda t: ad.reduce_sum(ad.reciprocal_pos(t)), p)
        _gradcheck(lambda t: ad.reduce_sum(ad.sqrt_pos(t)), p)

    def test_cross_entropy(self):
        p = self.rng.normal(size=8)
        targets = np.array([1, 3])
        _gradcheck(lambda t: ad.cross_entropy(ad.reshape(t, (2, 4)), targets), p)


class TestDeterminism:
    def test_backward_bit_identical(self):
        rng = np.random.default_rng(42)
        point = rng.normal(size=(6, 6))
        w = rng.normal(size=(6, 6))

        def run():
            x = Tensor(point.copy())
            h = ad.relu(ad.matmul(x, Tensor(w)))
            out = ad.reduce_sum(ad.softmax(h) * h)
            out.backward()
            return out.data.tobytes(), x.grad.tobytes()

        assert run() == run()

    def test_fd_check_rejects_nondeterminism(self):
        calls = [0]

        def impure(t):
            calls[0] += 1
            return ad.reduce_sum(t * float(calls[0]))

        with pytest.raises(ad.NondeterministicError):
            ad.finite_difference_check(impure, np.array([1.0]))

    def test_check_finite_flag(self):
        ad.set_check_finite(True)
        try:
            with np.errstate(invalid="ignore"):
                with pytest.raises(ad.NonFiniteError):
                    ad.log(Tensor([-1.0]))
        finally:
            ad.set_check_finite(False)


class TestParamStore:
    def test_sorted_iteration(self):
        store = ad.ParamStore()
        store.param("zebra", np.zeros(2))
        store.param("alpha", np.zeros(2))
        assert store.names() == ["alpha", "zebra"]

    def test_duplicate_rejected(self):
        store = ad.ParamStore()
        store.param("w", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.param("w", np.zeros(2))

    def test_state_dict_roundtrip(self):
        store = ad.ParamStore()
        store.param("w", np.arange(4.0))
        state = store.state_dict()
        store["w"].data[:] = 0.0
        store.load_state_dict(state)
        np.testing.assert_array_equal(store["w"].data, np.arange(4.0))

    def test_load_rejects_name_mismatch(self):
        store = ad.ParamStore()
        store.param("w", np.zeros(2))
        with pytest.raises(ValueError, match="disagree"):
            store.load_state_dict({"v": np.zeros(2)})


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
    def test_softmax_gradcheck_random(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=n)
        w = rng.normal(size=n)
        err = ad.finite_difference_check(
            lambda t: ad.reduce_sum(ad.softmax(t) * ad.Tensor(w)), p
        )
        assert err < 1e-4

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_unbroadcast_preserves_total(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 1)))
        b = Tensor(rng.normal(size=(1, 4)))
        ad.reduce_sum(a * b).backward()
        # grad wrt a sums b over its broadcast axis.
        np.testing.assert_allclose(a.grad[:, 0], np.full(3, b.data.sum()), rtol=1e-12)
