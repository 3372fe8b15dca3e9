"""Each module and loss node against the op-by-op graph of reference ops.

A network module (``MLP``, ``DuelingQNetwork``, ``StructuredEncoder``,
``GatedFusion``, ``CrossModalAttention``) and each loss (``cql_loss``,
``cross_entropy_loss``) is one tape node with a hand-written backward. The
references below build the same computation from the ops of
``reference_ops`` (matmul, transpose, add, relu, sigmoid, concat, pick,
logsumexp, mean), one node per op. A node must equal its reference bit for bit: the forward, and
the gradient of every parameter and every input that requires one.

Sizes are drawn small (batches of 1-6 rows, widths of 4-6) and at training
scale (batches of 64-256 rows, widths of 16-64), because BLAS picks its
kernel by shape: some reorderings of a product round exactly like the
reference at the small sizes and differ in the last bits only at the large
ones (with 4 input columns and 16 or more output columns, the input gradient
``g @ W`` written as ``(W.T @ g.T).T`` is one).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from careql.encoder import (
    CrossModalAttention,
    EncoderConfig,
    GatedFusion,
    NoteStrategy,
    STRATEGY_KINDS,
    StateEncoder,
    StructuredEncoder,
)
from careql.netcore import (
    MLP,
    DuelingQNetwork,
    Tensor,
    concat,
    no_grad,
    zero_grads,
)
from careql.trainer import cql_loss, cross_entropy_loss

import reference_ops as ops
from reference_ops import gradient_check

SETTINGS = settings(max_examples=25, deadline=None)
seeds = st.integers(0, 2**32 - 1)
batches = st.one_of(st.integers(1, 6), st.integers(64, 256))
widths = st.one_of(st.integers(4, 6), st.integers(16, 64))


# ---------------------------------------------------------------------------
# References: the same modules built from reference ops, one node per op
# ---------------------------------------------------------------------------


def ref_affine(x, layer):
    return ops.affine(x, layer.W, layer.b)


def ref_mlp(mlp, x):
    for layer in mlp.layers:
        x = ops.relu(ref_affine(x, layer))
    return x


def ref_dueling(net, x):
    h = ref_mlp(net.trunk, x)
    v = ref_affine(h, net.value_head)
    a = ref_affine(h, net.advantage_head)
    return ops.sub(ops.add(v, a), ops.mean(a, axis=1, keepdims=True))


def ref_structured(enc, x):
    h = ref_affine(x, enc.in_proj)
    for mix, out in enc.blocks:
        h = ops.add(h, ref_affine(ops.relu(ref_affine(h, mix)), out))
    return h


def ref_gate(gate, f_c, f_e):
    psi = ops.sigmoid(ops.affine(concat([f_c, f_e], axis=1), gate.W, gate.b))
    return ops.add(ops.mul(psi, f_c), ops.mul(ops.sub(1.0, psi), f_e))


def ref_attention(attn, n, l):
    a_struct_to_note = ops.affine(n, attn.Wv_n)
    a_note_to_struct = ops.affine(l, attn.Wv_l)
    l_tilde = ops.affine(concat([l, a_note_to_struct], axis=1), attn.out_l)
    n_tilde = ops.affine(concat([n, a_struct_to_note], axis=1), attn.out_n)
    return concat([l_tilde, n_tilde], axis=1)


def ref_state(enc, structured, f_c, f_e):
    l = ref_structured(enc.structured, structured)
    n = ref_affine(f_e, enc.note_proj)
    if enc.gate is not None:
        n = ref_gate(enc.gate, ref_affine(f_c, enc.note_proj), n)
    if enc.attention is not None:
        return ref_attention(enc.attention, n, l)
    return concat([l, n], axis=1)


def ref_cql(q, actions, targets, alpha):
    q_taken = ops.pick(q, actions)
    bellman = ops.mul(ops.mean(ops.square(ops.sub(q_taken, Tensor(targets)))), 0.5)
    diag = {"bellman": float(bellman.data), "mean_q": float(q.data.mean())}
    if alpha == 0.0:
        diag["reg"] = 0.0
        return bellman, diag
    reg = ops.sub(ops.mean(ops.logsumexp(q, axis=1)), ops.mean(q_taken))
    diag["reg"] = float(reg.data)
    return ops.add(bellman, ops.mul(reg, alpha)), diag


def ref_cross_entropy(logits, actions):
    return ops.mean(ops.sub(ops.logsumexp(logits, axis=1), ops.pick(logits, actions)))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.tobytes()


def leaf(rng, shape, requires_grad=True, name=None):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad, name=name)


def run(build, leaves, upstream):
    """Forward value and every leaf gradient of ``sum(build() * upstream)``."""
    zero_grads(leaves)
    out = build()
    ops.sum(ops.mul(out, Tensor(upstream))).backward()
    return out.data.copy(), {k: p.grad.copy() for k, p in leaves.items()}


def assert_node_equals_reference(node, reference, leaves, upstream):
    got, got_grads = run(node, leaves, upstream)
    want, want_grads = run(reference, leaves, upstream)
    assert bits(got) == bits(want)
    for key in leaves:
        assert bits(got_grads[key]) == bits(want_grads[key]), key
    with no_grad():
        untaped = node()
    assert untaped._parents == () and untaped._backward is None
    assert not untaped.requires_grad
    assert bits(untaped.data) == bits(want)


def gradient_error(node, leaves, upstream):
    trainable = {k: p for k, p in leaves.items() if p.requires_grad}
    return gradient_check(lambda: ops.sum(ops.mul(node(), Tensor(upstream))), trainable)


def with_input(params, **inputs):
    leaves = dict(params)
    leaves.update({k: x for k, x in inputs.items() if x.requires_grad})
    return leaves


# ---------------------------------------------------------------------------
# Network modules
# ---------------------------------------------------------------------------


class TestMlpNode:
    @SETTINGS
    @given(seed=seeds, batch=batches, width=widths, depth=st.integers(0, 3),
           input_grad=st.booleans())
    @example(seed=0, batch=256, width=64, depth=2, input_grad=True)
    def test_bit_equal_to_ops(self, seed, batch, width, depth, input_grad):
        rng = np.random.default_rng(seed)
        mlp = MLP(4, width, depth, rng, "t")
        x = leaf(rng, (batch, 4), requires_grad=input_grad or depth == 0)
        if depth == 0:
            assert mlp(x) is x
            return
        leaves = with_input(mlp.params(), x=x)
        assert_node_equals_reference(lambda: mlp(x), lambda: ref_mlp(mlp, x), leaves,
                                     rng.normal(size=(batch, width)))

    @pytest.mark.parametrize("depth", [1, 3])
    def test_gradient_check(self, depth):
        rng = np.random.default_rng(depth)
        mlp = MLP(4, 5, depth, rng, "t")
        x = leaf(rng, (3, 4))
        leaves = with_input(mlp.params(), x=x)
        assert gradient_error(lambda: mlp(x), leaves, rng.normal(size=(3, 5))) < 1e-4


class TestDuelingNode:
    @SETTINGS
    @given(seed=seeds, batch=batches, width=widths, depth=st.integers(0, 3),
           input_grad=st.booleans())
    @example(seed=0, batch=256, width=64, depth=2, input_grad=True)
    def test_bit_equal_to_ops(self, seed, batch, width, depth, input_grad):
        rng = np.random.default_rng(seed)
        net = DuelingQNetwork(4, rng, width=width, depth=depth, n_actions=6)
        x = leaf(rng, (batch, 4), requires_grad=input_grad)
        leaves = with_input(net.params(), x=x)
        assert_node_equals_reference(lambda: net(x), lambda: ref_dueling(net, x), leaves,
                                     rng.normal(size=(batch, 6)))

    @pytest.mark.parametrize("depth", [0, 2])
    def test_gradient_check(self, depth):
        rng = np.random.default_rng(10 + depth)
        net = DuelingQNetwork(4, rng, width=5, depth=depth, n_actions=6)
        x = leaf(rng, (3, 4))
        leaves = with_input(net.params(), x=x)
        assert gradient_error(lambda: net(x), leaves, rng.normal(size=(3, 6))) < 1e-4


class TestEncoderNodes:
    @SETTINGS
    @given(seed=seeds, batch=batches, width=widths, depth=st.integers(0, 2),
           input_grad=st.booleans())
    @example(seed=0, batch=256, width=64, depth=1, input_grad=True)
    def test_structured_bit_equal_to_ops(self, seed, batch, width, depth, input_grad):
        rng = np.random.default_rng(seed)
        enc = StructuredEncoder(4, width, depth, rng)
        x = leaf(rng, (batch, 4), requires_grad=input_grad)
        leaves = with_input(enc.params(), x=x)
        assert_node_equals_reference(lambda: enc(x), lambda: ref_structured(enc, x),
                                     leaves, rng.normal(size=(batch, width)))

    @SETTINGS
    @given(seed=seeds, batch=batches, width=widths,
           grads=st.lists(st.booleans(), min_size=4, max_size=4))
    def test_gate_bit_equal_to_ops(self, seed, batch, width, grads):
        rng = np.random.default_rng(seed)
        gate = GatedFusion(width, rng)
        gate.W.requires_grad, gate.b.requires_grad = grads[:2]
        f_c = leaf(rng, (batch, width), requires_grad=grads[2])
        f_e = leaf(rng, (batch, width), requires_grad=grads[3])
        leaves = with_input(gate.params(), f_c=f_c, f_e=f_e)
        assert_node_equals_reference(lambda: gate(f_c, f_e),
                                     lambda: ref_gate(gate, f_c, f_e), leaves,
                                     rng.normal(size=(batch, width)))

    @SETTINGS
    @given(seed=seeds, batch=batches, width=widths,
           grads=st.lists(st.booleans(), min_size=6, max_size=6))
    def test_attention_bit_equal_to_ops(self, seed, batch, width, grads):
        rng = np.random.default_rng(seed)
        attn = CrossModalAttention(width, 3, rng)
        for p, flag in zip((attn.Wv_l, attn.Wv_n, attn.out_l, attn.out_n), grads):
            p.requires_grad = flag
        n = leaf(rng, (batch, width), requires_grad=grads[4])
        l = leaf(rng, (batch, width), requires_grad=grads[5])
        leaves = with_input(attn.params(), n=n, l=l)
        assert_node_equals_reference(lambda: attn(n, l), lambda: ref_attention(attn, n, l),
                                     leaves, rng.normal(size=(batch, 2 * width)))

    def test_gradient_checks(self):
        rng = np.random.default_rng(7)
        enc = StructuredEncoder(4, 5, 2, rng)
        gate = GatedFusion(5, rng)
        attn = CrossModalAttention(5, 3, rng)
        x, a, b = (leaf(rng, (3, k)) for k in (4, 5, 5))
        up = rng.normal(size=(3, 10))
        assert gradient_error(lambda: enc(x), with_input(enc.params(), x=x), up[:, :5]) < 1e-4
        assert gradient_error(lambda: gate(a, b), with_input(gate.params(), a=a, b=b),
                              up[:, :5]) < 1e-4
        assert gradient_error(lambda: attn(a, b), with_input(attn.params(), a=a, b=b),
                              up) < 1e-4


class TestStateEncoderNodes:
    @SETTINGS
    @given(seed=seeds, batch=batches, width=widths, kind=st.sampled_from(STRATEGY_KINDS),
           use_attention=st.booleans(), data=st.data())
    def test_bit_equal_to_ops(self, seed, batch, width, kind, use_attention, data):
        rng = np.random.default_rng(seed)
        cfg = EncoderConfig(n_features=4, d_n=3, d=width, d_k=2, depth=1,
                            strategy=NoteStrategy(kind), use_attention=use_attention)
        enc = StateEncoder(cfg, rng)
        params = enc.params()
        frozen = data.draw(st.lists(st.booleans(), min_size=len(params),
                                    max_size=len(params)))
        for p, flag in zip(params.values(), frozen):
            p.requires_grad = not flag
        inputs = {key: leaf(rng, (batch, width), requires_grad=data.draw(st.booleans()))
                  for key, width in (("structured", 4), ("f_c", 3), ("f_e", 3))}
        leaves = with_input(params, **inputs)
        args = tuple(inputs.values())
        assert_node_equals_reference(lambda: enc.forward(*args),
                                     lambda: ref_state(enc, *args), leaves,
                                     rng.normal(size=(batch, 2 * width)))

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @pytest.mark.parametrize("use_attention", [True, False])
    def test_gradient_check(self, kind, use_attention):
        rng = np.random.default_rng(3)
        cfg = EncoderConfig(n_features=4, d_n=3, d=5, d_k=2, depth=1,
                            strategy=NoteStrategy(kind), use_attention=use_attention)
        enc = StateEncoder(cfg, rng)
        args = tuple(leaf(rng, (3, w)) for w in (4, 3, 3))
        leaves = with_input(enc.params(), s=args[0], c=args[1], e=args[2])
        assert gradient_error(lambda: enc.forward(*args), leaves,
                              rng.normal(size=(3, 10))) < 1e-4


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss_case(seed, batch, n_actions=6):
    rng = np.random.default_rng(seed)
    q = leaf(rng, (batch, n_actions), name="q")
    actions = rng.integers(0, n_actions, size=batch)
    targets = rng.normal(size=batch)
    return rng, q, actions, targets


class TestLossNodes:
    @SETTINGS
    @given(seed=seeds, batch=batches, alpha=st.sampled_from([0.0, 0.5, 2.0, 3.7]))
    def test_cql_bit_equal_to_ops(self, seed, batch, alpha):
        rng, q, actions, targets = loss_case(seed, batch)
        upstream = rng.normal()
        assert_node_equals_reference(lambda: cql_loss(q, actions, targets, alpha)[0],
                                     lambda: ref_cql(q, actions, targets, alpha)[0],
                                     {"q": q}, upstream)
        assert cql_loss(q, actions, targets, alpha)[1] == ref_cql(q, actions, targets,
                                                                  alpha)[1]

    @SETTINGS
    @given(seed=seeds, batch=batches)
    def test_cross_entropy_bit_equal_to_ops(self, seed, batch):
        rng, logits, actions, _ = loss_case(seed, batch)
        assert_node_equals_reference(lambda: cross_entropy_loss(logits, actions),
                                     lambda: ref_cross_entropy(logits, actions),
                                     {"logits": logits}, rng.normal())

    def test_unit_upstream_gradient_of_a_training_step(self):
        # a loss is the root of a training step's tape: its gradient is 1.0
        _, q, actions, targets = loss_case(5, 4)
        for alpha in (0.0, 2.0):
            zero_grads({"q": q})
            ref_cql(q, actions, targets, alpha)[0].backward()
            want = q.grad.copy()
            zero_grads({"q": q})
            cql_loss(q, actions, targets, alpha)[0].backward()
            assert bits(q.grad) == bits(want)

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_gradient_check(self, alpha):
        _, q, actions, targets = loss_case(9, 4)
        assert gradient_check(lambda: cql_loss(q, actions, targets, alpha)[0],
                              {"q": q}) < 1e-4
        assert gradient_check(lambda: cross_entropy_loss(q, actions), {"q": q}) < 1e-4
