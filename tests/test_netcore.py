import numpy as np
import pytest

from careql.netcore import (
    MLP,
    Adam,
    Dense,
    DuelingQNetwork,
    TRAIN_DTYPE,
    NonFiniteGradientError,
    Tensor,
    as_dtype,
    cast_params,
    clone_param_values,
    collect_params,
    concat,
    linear,
    load_checkpoint,
    load_param_values,
    no_grad,
    save_checkpoint,
    zero_grads,
)

import reference_ops as ops
from reference_ops import gradient_check


def make_net(seed, input_dim=7, width=11, n_actions=25):
    rng = np.random.default_rng(seed)
    return DuelingQNetwork(input_dim, rng, width=width, depth=3, n_actions=n_actions)


def dueling_oracle(net, x):
    """Straight-line numpy re-implementation of the dueling forward pass."""
    h = x
    for layer in net.trunk:
        h = np.maximum(h @ layer.W.data.T + layer.b.data, 0.0)
    v = h @ net.value_head.W.data.T + net.value_head.b.data
    a = h @ net.advantage_head.W.data.T + net.advantage_head.b.data
    return v + a - a.mean(axis=1, keepdims=True)


class TestForwardQ:
    def test_zero_weights_give_zero_q(self):
        net = make_net(0)
        for p in net.params().values():
            p.data[...] = 0.0
        q = net(Tensor(np.random.default_rng(1).normal(size=(4, 7)))).data
        assert np.all(q == 0.0)

    def test_zero_advantage_head_collapses_to_value(self):
        net = make_net(1)
        net.advantage_head.W.data[...] = 0.0
        net.advantage_head.b.data[...] = 0.0
        x = Tensor(np.random.default_rng(2).normal(size=(5, 7)))
        q = net(x).data
        h = x.data
        for layer in net.trunk:
            h = np.maximum(h @ layer.W.data.T + layer.b.data, 0.0)
        v = h @ net.value_head.W.data.T + net.value_head.b.data
        assert np.allclose(q, np.repeat(v, 25, axis=1), atol=1e-12)
        assert np.ptp(q, axis=1).max() == 0.0

    def test_matches_matrix_oracle(self):
        net = make_net(3)
        x = np.random.default_rng(4).normal(size=(16, 7))
        assert np.abs(net(Tensor(x)).data - dueling_oracle(net, x)).max() < 1e-10

    def test_dueling_identity(self):
        # mean_a [Q(s,a) - V(s)] == 0
        for seed in range(5):
            net = make_net(seed)
            x = np.random.default_rng(100 + seed).normal(size=(8, 7))
            q = net(Tensor(x)).data
            h = x
            for layer in net.trunk:
                h = np.maximum(h @ layer.W.data.T + layer.b.data, 0.0)
            v = (h @ net.value_head.W.data.T + net.value_head.b.data)[:, 0]
            assert np.abs(q.mean(axis=1) - v).max() < 1e-9

    def test_dimension_mismatch_raises(self):
        net = make_net(5)
        with pytest.raises(ValueError):
            net(Tensor(np.zeros((2, 9))))


class TestMLP:
    def test_zero_depth_passes_input_through(self):
        trunk = MLP(4, 8, 0, np.random.default_rng(0), "t")
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        assert trunk(x) is x and trunk.n_out == 4 and trunk.params() == {}


class TestBackward:
    def test_quadratic_gradient_is_parameter(self):
        rng = np.random.default_rng(0)
        theta = Tensor(rng.normal(size=(4, 3)), requires_grad=True, name="theta")
        loss = ops.mul(ops.sum(ops.square(theta)), 0.5)
        loss.backward()
        assert np.allclose(theta.grad, theta.data, atol=1e-15)

    def test_grad_linearity(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True, name="w")
        x = Tensor(rng.normal(size=(5, 3)))

        def loss_a():
            return ops.mean(ops.square(ops.matmul(x, w)))

        def loss_b():
            return ops.mul(ops.sum(ops.relu(ops.matmul(x, w))), 0.1)

        zero_grads({"w": w})
        loss_a().backward()
        ga = w.grad.copy()
        zero_grads({"w": w})
        loss_b().backward()
        gb = w.grad.copy()
        zero_grads({"w": w})
        ops.add(loss_a(), loss_b()).backward()
        assert np.abs(w.grad - (ga + gb)).max() < 1e-12

    def test_detached_parameter_gets_zero_gradient(self):
        rng = np.random.default_rng(2)
        used = Tensor(rng.normal(size=(2, 2)), requires_grad=True, name="used")
        unused = Tensor(rng.normal(size=(2, 2)), requires_grad=True, name="unused")
        zero_grads({"used": used, "unused": unused})
        ops.sum(ops.square(used)).backward()
        assert np.all(unused.grad == 0.0)
        assert np.any(used.grad != 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_agreement_random_net(self, seed):
        rng = np.random.default_rng(seed)
        net = DuelingQNetwork(5, rng, width=6, depth=2, n_actions=4)
        x = rng.normal(size=(3, 5))
        actions = rng.integers(0, 4, size=3)
        targets = rng.normal(size=3)

        def loss_fn():
            q = net(Tensor(x))
            diff = ops.sub(ops.pick(q, actions), Tensor(targets))
            return ops.mul(ops.mean(ops.square(diff)), 0.5)

        assert gradient_check(loss_fn, net.params()) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference_each_op(self, seed):
        rng = np.random.default_rng(1000 + seed)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True, name="w")
        b = Tensor(rng.normal(size=(4,)), requires_grad=True, name="b")
        x = rng.normal(size=(6, 4))
        params = {"w": w, "b": b}
        target = rng.normal(size=(6,))

        def xw():
            return ops.matmul(Tensor(x), w)

        def xwb():
            return ops.add(xw(), b)

        def xwt():
            return ops.matmul(Tensor(x), ops.transpose(w))

        cases = {
            "sigmoid": lambda: ops.mean(ops.sigmoid(xwb())),
            "logsumexp": lambda: ops.mean(ops.logsumexp(xwb(), axis=1)),
            "softmax": lambda: ops.sum(ops.mul(ops.softmax(xwb(), axis=1), Tensor(x))),
            "concat": lambda: ops.mean(ops.square(
                concat([xw(), ops.relu(xwt())], axis=1))),
            "pick": lambda: ops.mean(ops.square(ops.sub(
                ops.pick(xwb(), np.array([0, 1, 2, 3, 0, 1])), Tensor(target)))),
            "mean_keepdims": lambda: ops.sum(ops.square(ops.sub(
                xw(), ops.mean(xw(), axis=1, keepdims=True)))),
            "mul_gate": lambda: ops.mean(ops.square(ops.add(
                ops.mul(ops.sigmoid(xwb()), xw()),
                ops.mul(ops.sub(1.0, ops.sigmoid(xwb())), xwt())))),
        }
        for name, fn in cases.items():
            err = gradient_check(fn, params)
            assert err < 1e-4, f"{name}: {err}"

    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ops.add(t, 1.0).backward()


def every_op(a, b, w):
    """One node of each op, on (3, 4) operands a and b and a (4, 5) weight."""
    return [ops.add(a, b), ops.mul(a, b), ops.sub(a, b), ops.sub(2.0, a), ops.neg(a),
            ops.div(a, 2.0), ops.matmul(a, w), ops.transpose(a), ops.relu(a),
            ops.sigmoid(a), ops.square(a), ops.sum(a), ops.mean(a, axis=0),
            ops.logsumexp(a, axis=1), ops.softmax(a, axis=1),
            ops.pick(a, np.array([0, 3, 1])), concat([a, b], axis=1)]


class TestNoGrad:
    def operands(self):
        rng = np.random.default_rng(5)
        return (Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                Tensor(rng.normal(size=(3, 4))),
                Tensor(rng.normal(size=(4, 5)), requires_grad=True))

    def test_nodes_inside_record_no_parents_and_same_values(self):
        a, b, w = self.operands()
        taped = every_op(a, b, w)
        with no_grad():
            untaped = every_op(a, b, w)
            q = make_net(0)(Tensor(np.ones((2, 7))))
        assert all(node._parents for node in taped)
        for node, ref in zip(untaped, taped):
            assert node._parents == () and node._backward is None
            assert np.array_equal(node.data, ref.data)
        assert q._parents == () and q._backward is None

    def test_mode_restored_after_nesting_and_exception(self):
        a, b, _ = self.operands()
        with no_grad():
            with no_grad():
                pass
            assert ops.mul(a, b)._parents == ()
        assert ops.mul(a, b)._parents == (a, b)
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("inside")
        assert ops.mul(a, b)._parents == (a, b)

    def test_loss_after_block_backpropagates_same_gradients(self):
        net = make_net(3)
        params = net.params()
        x = np.random.default_rng(4).normal(size=(6, 7))
        actions = np.array([0, 5, 24, 3, 3, 11])

        def loss():
            q = net(Tensor(x))
            return ops.mean(ops.sub(ops.logsumexp(q, axis=1), ops.pick(q, actions)))

        zero_grads(params)
        loss().backward()
        reference = {k: p.grad.copy() for k, p in params.items()}
        zero_grads(params)
        with no_grad():
            untaped = loss()
        untaped.backward()     # no tape: reaches no parameter
        assert all(not p.grad.any() for p in params.values())
        loss().backward()
        for key, p in params.items():
            assert np.array_equal(p.grad, reference[key]), key


class TestLinear:
    def graphs(self, bias):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(7, 5)), requires_grad=True, name="x")
        W = Tensor(rng.normal(size=(3, 5)), requires_grad=True, name="W")
        b = Tensor(rng.normal(size=(3,)), requires_grad=True, name="b") if bias else None
        weights = rng.normal(size=(7, 3))
        return x, W, b, weights

    @pytest.mark.parametrize("bias", [True, False])
    def test_bitwise_equal_to_matmul_transpose_add(self, bias):
        x, W, b, weights = self.graphs(bias)
        params = {"x": x, "W": W} if b is None else {"x": x, "W": W, "b": b}
        reference = ops.affine(x, W, b)
        ops.sum(ops.sigmoid(ops.mul(reference, Tensor(weights)))).backward()
        expected = {k: p.grad.copy() for k, p in params.items()}
        zero_grads(params)
        fused = linear(x, W, b)
        ops.sum(ops.sigmoid(ops.mul(fused, Tensor(weights)))).backward()
        assert np.array_equal(fused.data, reference.data)
        for key, p in params.items():
            assert np.array_equal(p.grad, expected[key]), key

    @pytest.mark.parametrize("bias", [True, False])
    def test_finite_difference_agreement(self, bias):
        x, W, b, weights = self.graphs(bias)
        params = {"W": W} if b is None else {"W": W, "b": b}
        err = gradient_check(
            lambda: ops.mean(ops.sigmoid(ops.mul(linear(Tensor(x.data), W, b),
                                                 Tensor(weights)))),
            params)
        assert err < 1e-4


class TestTapeRecording:
    def test_input_and_constant_get_no_gradient(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(6, 4)))
        target = Tensor(rng.normal(size=(6, 2)))
        W = Tensor(rng.normal(size=(2, 4)), requires_grad=True, name="W")
        loss = ops.mean(ops.square(ops.sub(linear(x, W), target)))
        loss.backward()
        assert x.grad is None and target.grad is None
        assert W.grad.any()

    def test_gradient_shared_by_both_operands_of_add(self):
        # c takes the same gradient array as s from the outer add, then more
        # from s's own add; adding that in place would also change s's
        rng = np.random.default_rng(24)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True, name="w")
        x = rng.normal(size=(3, 4))

        def loss():
            a = ops.mul(Tensor(x), w)
            c = ops.square(a)
            s = ops.add(a, c)
            return ops.sum(ops.add(s, c))

        assert gradient_check(loss, {"w": w}) < 1e-6

    def test_node_from_non_grad_leaves_records_nothing(self):
        rng = np.random.default_rng(23)
        a, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 5)))
        for node in every_op(a, b, w) + [linear(a, ops.transpose(w), Tensor(np.ones(5)))]:
            assert node._parents == () and node._backward is None
            assert not node.requires_grad


def per_tensor_adam(values, grads_per_step, lr, grad_clip, b1=0.9, b2=0.999, eps=1e-8):
    """Reference: the per-tensor Adam recursion, one loop over parameters per step."""
    values = {k: v.copy() for k, v in values.items()}
    m = {k: np.zeros_like(v) for k, v in values.items()}
    s = {k: np.zeros_like(v) for k, v in values.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        for key, value in values.items():
            g = grads[key] if grads[key] is not None else np.zeros_like(value)
            if grad_clip is not None:
                norm = float(np.sqrt((g * g).sum()))
                if norm > grad_clip:
                    g = g * (grad_clip / norm)
            m[key] *= b1
            m[key] += (1.0 - b1) * g
            s[key] *= b2
            s[key] += (1.0 - b2) * (g * g)
            value -= lr * (m[key] / (1.0 - b1 ** t)) / (
                np.sqrt(s[key] / (1.0 - b2 ** t)) + eps)
    return values


class TestAdam:
    def test_flat_update_matches_per_tensor_reference(self):
        rng = np.random.default_rng(24)
        shapes = {"big": (4, 6), "small": (5,), "none": (2, 3), "scalar": (1,)}
        params = {k: Tensor(rng.normal(size=shape), requires_grad=True, name=k)
                  for k, shape in shapes.items()}
        start = clone_param_values(params)
        grads_per_step = []
        for _ in range(30):
            grads = {k: rng.normal(size=shape) for k, shape in shapes.items()}
            grads["big"] *= 10.0          # norm well above the clip
            grads["small"] *= 0.01        # norm well below it
            grads["none"] = None
            grads_per_step.append(grads)
        opt = Adam(params, lr=1e-2, grad_clip=1.5)
        for grads in grads_per_step:
            for key, p in params.items():
                p.grad = None if grads[key] is None else grads[key].copy()
            opt.step()
        expected = per_tensor_adam(start, grads_per_step, lr=1e-2, grad_clip=1.5)
        for key, p in params.items():
            assert np.array_equal(p.data, expected[key]), key

    def test_non_finite_gradient_names_first_bad_key(self):
        params = {k: Tensor(np.zeros(2), requires_grad=True, name=k)
                  for k in ("fine", "first_bad", "second_bad")}
        opt = Adam(params)
        params["first_bad"].grad = np.array([0.0, np.inf])
        params["second_bad"].grad = np.array([np.nan, 0.0])
        with pytest.raises(NonFiniteGradientError, match="'first_bad'"):
            opt.step()
        assert all(not p.data.any() for p in params.values())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float32_gradient_clipped_by_its_float64_norm(self):
        # the gradient's square overflows float32; its norm does not
        p = Tensor(np.zeros(3), requires_grad=True, name="p")
        cast_params({"p": p})
        opt = Adam({"p": p}, lr=0.1, grad_clip=1.0)
        p.grad[:] = [1e20, 0.0, -1e20]
        opt.step()
        assert p.data.dtype == TRAIN_DTYPE
        assert p.data.tolist() == pytest.approx([-0.1, 0.0, 0.1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_whose_square_overflows_names_its_key(self):
        params = {k: Tensor(np.zeros(2), requires_grad=True, name=k) for k in ("fine", "big")}
        cast_params(params)
        opt = Adam(params)
        params["big"].grad[:] = [1e20, 0.0]
        with pytest.raises(NonFiniteGradientError, match="'big' overflows"):
            opt.step()
        assert all(not p.data.any() for p in params.values())

    def test_updates_after_load_param_values_rebinds_data(self):
        rng = np.random.default_rng(25)
        params = {"w": Tensor(rng.normal(size=(3, 2)), requires_grad=True, name="w")}
        opt = Adam(params, lr=1e-2)
        g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        params["w"].grad = g1.copy()
        opt.step()
        loaded = rng.normal(size=(3, 2))
        load_param_values(params, {"w": loaded})
        params["w"].grad = g2.copy()
        opt.step()
        # the moments carry over from step 1; the step applies to the loaded values
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * (g1 * g1)) + 0.001 * (g2 * g2)
        update = 1e-2 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
        assert np.abs(params["w"].data - (loaded - update)).max() < 1e-15
        assert params["w"].data is not loaded

    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, name="p")
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.1)
        zero_grads({"p": p})
        opt.step()
        assert np.array_equal(p.data, before)

    def test_step_count_increments(self):
        p = Tensor(np.zeros(3), requires_grad=True, name="p")
        opt = Adam({"p": p})
        for expected in range(1, 5):
            opt.step()
            assert opt.step_count == expected

    def test_constant_gradient_approaches_lr_magnitude(self):
        # With a constant gradient the bias-corrected update tends to
        # lr * g / (|g| + eps), i.e. magnitude -> lr.
        p = Tensor(np.array([0.0]), requires_grad=True, name="p")
        lr = 1e-2
        opt = Adam({"p": p}, lr=lr)
        g = np.array([3.7])
        prev = p.data.copy()
        for _ in range(600):
            p.grad = g.copy()
            opt.step()
            delta = p.data - prev
            prev = p.data.copy()
        assert abs(abs(delta[0]) - lr) < 1e-6

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(7)
        p = Tensor(rng.normal(size=(3,)), requires_grad=True, name="p")
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = Adam({"p": p}, lr=lr)

        ref = p.data.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t in range(1, 40):
            g = rng.normal(size=3)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            p.grad = g.copy()
            opt.step()
            assert np.abs(p.data - ref).max() < 1e-14

    def test_non_finite_gradient_names_parameter(self):
        p = Tensor(np.zeros(2), requires_grad=True, name="p")
        opt = Adam({"bad_param": p})
        p.grad = np.array([np.nan, 0.0])
        with pytest.raises(NonFiniteGradientError, match="bad_param"):
            opt.step()

    def test_grads_cleared_after_step(self):
        p = Tensor(np.zeros(2), requires_grad=True, name="p")
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.ones(2)
        opt.step()
        assert np.all(p.grad == 0.0)


class TestDeterminism:
    def test_identical_seeds_bit_identical_training(self):
        def run():
            rng = np.random.default_rng(42)
            net = DuelingQNetwork(4, rng, width=8, depth=2, n_actions=3)
            opt = Adam(net.params(), lr=1e-3)
            data_rng = np.random.default_rng(7)
            for _ in range(25):
                x = data_rng.normal(size=(6, 4))
                a = data_rng.integers(0, 3, size=6)
                y = data_rng.normal(size=6)
                loss = ops.mean(ops.square(ops.sub(ops.pick(net(Tensor(x)), a), Tensor(y))))
                loss.backward()
                opt.step()
            return clone_param_values(net.params())

        first, second = run(), run()
        for key in first:
            assert np.array_equal(first[key], second[key]), key


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = make_net(11, input_dim=5, width=6)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, net.params(), metadata={"note": "test"})
        values, meta = load_checkpoint(path)
        assert meta["note"] == "test"
        for key, p in net.params().items():
            assert np.array_equal(values[key], p.data), key

        other = make_net(12, input_dim=5, width=6)
        load_param_values(other.params(), values)
        x = np.random.default_rng(0).normal(size=(3, 5))
        assert np.array_equal(other(Tensor(x)).data, net(Tensor(x)).data)

    def test_float32_round_trip_bit_exact(self, tmp_path):
        # each float32 value is written as its shortest decimal, which reads
        # back to it once cast to float32
        net = make_net(15, input_dim=5, width=6)
        cast_params(net.params())
        net.params()["q.value.b"].data[0] = np.float32(np.pi)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, net.params())
        values, _ = load_checkpoint(path)
        assert '"values": [3.1415927]' in path.read_text()
        for key, p in net.params().items():
            assert as_dtype(values[key], TRAIN_DTYPE).tobytes() == p.data.tobytes(), key

    def test_value_beyond_float32_range_rejected(self, tmp_path):
        net = make_net(16, input_dim=5, width=6)
        net.params()["q.advantage.W"].data[0, 0] = 1e39
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, net.params())
        with pytest.raises(ValueError, match="'q.advantage.W'.*float32's range"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        net = make_net(13, input_dim=5, width=6)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, net.params())
        values, _ = load_checkpoint(path)
        other = make_net(14, input_dim=5, width=7)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_param_values(other.params(), values)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format_version": 99, "tensors": {}}')
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(path)


def test_collect_params_rejects_duplicates():
    rng = np.random.default_rng(0)
    a = Dense(2, 2, rng, "layer")
    b = Dense(2, 2, rng, "layer")
    with pytest.raises(ValueError, match="duplicate"):
        collect_params(a, b)
