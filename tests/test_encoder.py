import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from careql.dataset import JointObservation
from careql.encoder import (
    CrossModalAttention,
    EncoderConfig,
    EncoderError,
    GatedFusion,
    NoteStrategy,
    StateEncoder,
    StructuredEncoder,
    frame_note_inputs,
)
from careql.netcore import Tensor, gradient_check


def obs(features, emb=None, present=False, d_n=4):
    if emb is None:
        emb = np.zeros(d_n)
    return JointObservation(np.asarray(features, float), np.asarray(emb, float),
                            present)


def last_note_inputs(embeddings, present, strategy):
    """(f_c, f_e) of ``frame_note_inputs`` at a note history's latest frame."""
    f_c, f_e = frame_note_inputs(embeddings, present, strategy)
    return f_c[-1], f_e[-1]


def history_state(history, encoder):
    """The fused state at the last frame of an observation history."""
    emb = np.stack([o.note_embedding for o in history])
    f_c, f_e = frame_note_inputs(emb, [o.note_present for o in history], encoder.config.strategy)
    return encoder.forward(history[-1].structured, f_c[-1], f_e[-1])


def loop_note_inputs(embeddings, present, strategy):
    """Reference for ``frame_note_inputs`` on one note history: a Python loop
    over its frames."""
    emb = np.asarray(embeddings, dtype=np.float64)
    pres = np.asarray(present, dtype=bool)
    K, d_n = emb.shape
    f_c = np.zeros((K, d_n))
    f_e = np.zeros((K, d_n))

    if strategy.kind == "raw":
        f_e[pres] = emb[pres]
        return f_c, f_e

    # forward-fill, shared by impute and context
    filled = np.zeros((K, d_n))
    last = np.zeros(d_n)
    for k in range(K):
        if pres[k]:
            last = emb[k]
        filled[k] = last

    if strategy.kind == "impute":
        return f_c, filled

    if strategy.kind == "stack":
        for k in range(K):
            lo = max(0, k - strategy.window + 1)
            mask = pres[lo:k + 1]
            if mask.any():
                f_e[k] = emb[lo:k + 1][mask].mean(axis=0)
        return f_c, f_e

    # context: event side forward-fills, context side freezes the first note
    present_idx = np.flatnonzero(pres)
    if present_idx.size:
        first = present_idx[0]
        f_c[first:] = emb[first]
    return f_c, filled


def loop_episode_note_inputs(episode, strategy):
    """The reference loop over an episode's frames, read through its objects."""
    frames = episode.frames()
    return loop_note_inputs(np.stack([f.note_embedding for f in frames]),
                            np.array([f.note_present for f in frames]), strategy)


@st.composite
def note_histories(draw):
    """Histories of 1-15 frames laid end to end, with notes on random frames.
    Embedding values are random doubles over six decades, so that the order
    of a sum shows in its rounding, and about one in five is a signed zero."""
    d_n = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 15), min_size=1, max_size=8))
    K = sum(lengths)
    present = np.array(draw(st.lists(st.booleans(), min_size=K, max_size=K)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    emb = rng.normal(size=(K, d_n)) * 10.0 ** rng.uniform(-3, 3, size=(K, d_n))
    emb[rng.random((K, d_n)) < 0.2] = rng.choice([0.0, -0.0])
    emb[~present] = 0.0
    return emb, present, np.cumsum(lengths) - np.array(lengths)


class TestSegmentNoteInputs:
    @settings(max_examples=150, deadline=None)
    @given(note_histories(), st.sampled_from(["raw", "impute", "stack", "context"]),
           st.integers(1, 12))
    def test_byte_equal_to_the_loop_on_every_history(self, histories, kind, window):
        emb, present, starts = histories
        strategy = NoteStrategy(kind, window)
        f_c, f_e = frame_note_inputs(emb, present, strategy, starts)
        # NumPy's mean of one column of eight or more values sums it pairwise,
        # not oldest first, so a stack of d_n = 1 over a window of 8 or more
        # may differ in the last bits
        pairwise = kind == "stack" and emb.shape[1] == 1 and window >= 8
        for lo, hi in zip(starts, [*starts[1:], len(present)]):
            ref_c, ref_e = loop_note_inputs(emb[lo:hi], present[lo:hi], strategy)
            assert f_c[lo:hi].tobytes() == ref_c.tobytes()
            if pairwise:
                scale = np.abs(emb[lo:hi]).max(initial=0.0)
                assert np.abs(f_e[lo:hi] - ref_e).max() <= 1e-14 * scale
            else:
                assert f_e[lo:hi].tobytes() == ref_e.tobytes()

    def test_stack_adds_oldest_first_beyond_eight_notes(self):
        rng = np.random.default_rng(6)
        emb = rng.normal(size=(12, 1)) * 10.0 ** rng.uniform(-3, 3, size=(12, 1))
        present = np.ones(12, dtype=bool)
        _, f_e = frame_note_inputs(emb, present, NoteStrategy("stack", 12))
        total = np.zeros(1)
        for row in emb:
            total = total + row
        assert f_e[-1].tobytes() == (total / 12).tobytes()
        ref = loop_note_inputs(emb, present, NoteStrategy("stack", 12))[1]
        assert np.abs(f_e - ref).max() <= 1e-14 * np.abs(emb).max()

    def test_a_history_never_reads_the_one_before(self):
        emb = np.array([[5.0], [0.0], [0.0], [2.0]])
        present = np.array([True, False, False, True])
        for kind in ("impute", "stack", "context"):
            f_c, f_e = frame_note_inputs(emb, present, NoteStrategy(kind), [0, 2])
            assert not f_c[2:3].any() and not f_e[2:3].any(), kind


class TestNoteStrategies:
    def history(self):
        emb = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        present = np.array([True, False, False, True])
        return emb, present

    def test_impute_forward_fills(self):
        emb, present = self.history()
        _, fe = last_note_inputs(emb[:3], present[:3], NoteStrategy("impute"))
        assert np.array_equal(fe, emb[0])

    def test_raw_uses_current_frame_or_zeros(self):
        emb, present = self.history()
        _, fe = last_note_inputs(emb[:2], present[:2], NoteStrategy("raw"))
        assert np.array_equal(fe, np.zeros(2))
        _, fe0 = last_note_inputs(emb[:1], present[:1], NoteStrategy("raw"))
        assert np.array_equal(fe0, emb[0])

    def test_stack_singleton_is_identity(self):
        emb, present = self.history()
        _, fe = last_note_inputs(emb[:3], present[:3], NoteStrategy("stack", window=3))
        assert np.array_equal(fe, emb[0])  # only frame 0 present in window

    def test_stack_means_present_notes(self):
        emb = np.array([[2.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
        present = np.array([True, True, False])
        _, fe = last_note_inputs(emb, present, NoteStrategy("stack", window=3))
        assert np.allclose(fe, [1.0, 2.0])

    def test_stack_window_limits_lookback(self):
        emb = np.array([[2.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
        present = np.array([True, True, False])
        _, fe = last_note_inputs(emb, present, NoteStrategy("stack", window=2))
        assert np.allclose(fe, [0.0, 4.0])  # frame 0 fell out of the window

    def test_context_pins_first_note(self):
        emb, present = self.history()
        for k in range(1, 5):
            fc, fe = last_note_inputs(emb[:k], present[:k], NoteStrategy("context"))
            assert np.array_equal(fc, emb[0])
        # event side forward-fills like impute
        assert np.array_equal(fe, emb[3])

    def test_context_zero_until_first_note(self):
        emb = np.array([[0.0, 0.0], [3.0, 1.0], [0.0, 0.0]])
        present = np.array([False, True, False])
        fc, _ = frame_note_inputs(emb, present, NoteStrategy("context"))
        assert np.array_equal(fc[0], np.zeros(2))
        assert np.array_equal(fc[1], emb[1])
        assert np.array_equal(fc[2], emb[1])

    def test_non_context_strategies_return_no_context(self):
        emb, present = self.history()
        for kind in ("raw", "impute", "stack"):
            fc, _ = last_note_inputs(emb, present, NoteStrategy(kind))
            assert not fc.any()

    def test_bad_strategy_rejected(self):
        with pytest.raises(EncoderError):
            NoteStrategy("fancy")
        with pytest.raises(EncoderError):
            NoteStrategy("stack", window=0)


class TestStructuredEncoder:
    def test_zero_parameters_zero_output(self):
        enc = StructuredEncoder(5, 3, depth=2, rng=np.random.default_rng(0))
        for p in enc.params().values():
            p.data[...] = 0.0
        out = enc(Tensor(np.random.default_rng(1).normal(size=(4, 5))))
        assert np.all(out.data == 0.0)

    def test_zero_blocks_reduce_to_affine_map(self):
        enc = StructuredEncoder(4, 3, depth=1, rng=np.random.default_rng(2))
        for mix, out in enc.blocks:
            for p in {**mix.params(), **out.params()}.values():
                p.data[...] = 0.0
        x = np.random.default_rng(3).normal(size=(6, 4))
        expected = x @ enc.in_proj.W.data.T + enc.in_proj.b.data
        assert np.abs(enc(Tensor(x)).data - expected).max() < 1e-12

    def test_gradient_check(self):
        rng = np.random.default_rng(4)
        enc = StructuredEncoder(4, 3, depth=2, rng=rng)
        x = rng.normal(size=(5, 4))

        def loss():
            return enc(Tensor(x)).square().mean()

        assert gradient_check(loss, enc.params()) < 1e-4


class TestGatedFusion:
    def test_zero_gate_parameters_average(self):
        gate = GatedFusion(3, np.random.default_rng(0))
        gate.W.data[...] = 0.0
        gate.b.data[...] = 0.0
        fc = np.array([[1.0, 2.0, 3.0]])
        fe = np.array([[3.0, 0.0, -1.0]])
        out = gate(Tensor(fc), Tensor(fe))
        assert np.allclose(out.data, (fc + fe) / 2.0, atol=1e-12)

    def test_saturated_gate_returns_context(self):
        gate = GatedFusion(3, np.random.default_rng(1))
        gate.W.data[...] = 0.0
        gate.b.data[...] = 20.0
        fc = np.array([[1.0, -2.0, 0.5]])
        fe = np.array([[2.0, 0.0, 1.5]])
        assert np.abs(gate(Tensor(fc), Tensor(fe)).data - fc).max() < 1e-8

    def test_equal_inputs_identity(self):
        gate = GatedFusion(4, np.random.default_rng(2))
        v = np.random.default_rng(3).normal(size=(2, 4))
        assert np.abs(gate(Tensor(v), Tensor(v)).data - v).max() < 1e-12

    def test_output_between_inputs_random_draws(self):
        # convexity over 1e4 random parameter/input draws
        rng = np.random.default_rng(4)
        for _ in range(100):
            gate = GatedFusion(5, rng)
            gate.W.data[...] = rng.normal(scale=3.0, size=gate.W.data.shape)
            gate.b.data[...] = rng.normal(scale=3.0, size=gate.b.data.shape)
            fc = rng.normal(size=(100, 5))
            fe = rng.normal(size=(100, 5))
            out = gate(Tensor(fc), Tensor(fe)).data
            lo = np.minimum(fc, fe) - 1e-12
            hi = np.maximum(fc, fe) + 1e-12
            assert np.all((out >= lo) & (out <= hi))

    def test_shape_mismatch_rejected(self):
        gate = GatedFusion(3, np.random.default_rng(5))
        with pytest.raises(EncoderError):
            gate(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))

    def test_gradient_check(self):
        rng = np.random.default_rng(6)
        gate = GatedFusion(3, rng)
        fc, fe = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

        def loss():
            return gate(Tensor(fc), Tensor(fe)).square().mean()

        assert gradient_check(loss, gate.params()) < 1e-4


def attention_oracle(attn, n, l):
    """Straight-line numpy re-implementation of the attention forward pass."""
    v_note = n @ attn.Wv_n.data.T
    v_struct = l @ attn.Wv_l.data.T
    # single-token softmax is identically 1, so attended == value projection
    l_tilde = np.concatenate([l, v_struct], axis=1) @ attn.out_l.data.T
    n_tilde = np.concatenate([n, v_note], axis=1) @ attn.out_n.data.T
    return np.concatenate([l_tilde, n_tilde], axis=1)


class TestCrossModalAttention:
    def test_single_token_softmax_collapse(self):
        # full query/key/softmax attention over one token equals the value
        # projection exactly, so the module's output does too
        rng = np.random.default_rng(0)
        attn = CrossModalAttention(4, 3, rng)
        n, l = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))

        def attend(query_src, kv_src, Wq, Wk, Wv):
            score = ((query_src @ Wq.data.T) * (kv_src @ Wk.data.T)).sum(
                axis=1, keepdims=True) / np.sqrt(attn.d_k)
            alpha = np.exp(score - score.max(axis=1, keepdims=True))
            alpha = alpha / alpha.sum(axis=1, keepdims=True)
            return alpha * (kv_src @ Wv.data.T)

        a_struct_to_note = attend(l, n, attn.Wq_l, attn.Wk_n, attn.Wv_n)
        a_note_to_struct = attend(n, l, attn.Wq_n, attn.Wk_l, attn.Wv_l)
        assert np.array_equal(a_struct_to_note, n @ attn.Wv_n.data.T)
        full = np.concatenate(
            [np.concatenate([l, a_note_to_struct], axis=1) @ attn.out_l.data.T,
             np.concatenate([n, a_struct_to_note], axis=1) @ attn.out_n.data.T], axis=1)
        assert np.array_equal(attn(Tensor(n), Tensor(l)).data, full)

    def test_zero_parameters_zero_state(self):
        attn = CrossModalAttention(4, 3, np.random.default_rng(1))
        for p in attn.params().values():
            p.data[...] = 0.0
        out = attn(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))))
        assert np.all(out.data == 0.0)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        attn = CrossModalAttention(5, 3, rng)
        n, l = rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
        out = attn(Tensor(n), Tensor(l)).data
        assert np.abs(out - attention_oracle(attn, n, l)).max() < 1e-10

    def test_output_width_is_twice_d(self):
        attn = CrossModalAttention(5, 2, np.random.default_rng(3))
        out = attn(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5))))
        assert out.data.shape == (2, 10)

    def test_gradient_check(self):
        rng = np.random.default_rng(4)
        attn = CrossModalAttention(3, 2, rng)
        n, l = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

        def loss():
            return attn(Tensor(n), Tensor(l)).square().mean()

        assert gradient_check(loss, attn.params()) < 1e-4


def small_config(kind="context", use_attention=True, window=3):
    return EncoderConfig(n_features=4, d_n=3, d=5, d_k=2, depth=1,
                         strategy=NoteStrategy(kind, window),
                         use_attention=use_attention)


class TestStateEncoder:
    def test_raw_without_notes_still_depends_on_structured(self):
        enc = StateEncoder(small_config("raw"), np.random.default_rng(0))
        hist_a = [obs([1.0, 0.0, 0.0, 0.0], d_n=3), obs([0.5, 1.0, 0.0, 0.0], d_n=3)]
        hist_b = [obs([1.0, 0.0, 0.0, 0.0], d_n=3), obs([-2.0, 1.0, 3.0, 0.0], d_n=3)]
        sa = history_state(hist_a, enc).data
        sb = history_state(hist_b, enc).data
        assert np.isfinite(sa).all()
        assert not np.allclose(sa, sb)

    def test_context_reduces_to_impute_when_gate_saturates_low(self):
        rng = np.random.default_rng(1)
        ctx_enc = StateEncoder(small_config("context"), rng)
        imp_enc = StateEncoder(small_config("impute"), np.random.default_rng(1))
        # align shared parameters, then drive the gate to (1 - psi) ~= 1
        shared = set(imp_enc.params())
        ctx_params = ctx_enc.params()
        for key, p in imp_enc.params().items():
            ctx_key = key.replace("state.", "state.")
            ctx_params[ctx_key].data[...] = p.data
        ctx_enc.gate.W.data[...] = 0.0

        hist = [obs([0.1, -0.2, 0.3, 0.0], emb=[1.0, 0.0, 2.0], present=True, d_n=3),
                obs([0.5, 0.5, 0.5, 0.5], d_n=3)]
        ctx_enc.gate.b.data[...] = -20.0
        close = history_state(hist, ctx_enc).data
        assert np.abs(close - history_state(hist, imp_enc).data).max() < 1e-7
        # float64 sigmoid underflows to exactly zero here: bit-for-bit equal
        ctx_enc.gate.b.data[...] = -1000.0
        exact = history_state(hist, ctx_enc).data
        assert np.array_equal(exact, history_state(hist, imp_enc).data)

    def test_stack_window_one_matches_raw_when_present(self):
        rng_a = np.random.default_rng(2)
        stack_enc = StateEncoder(small_config("stack", window=1), rng_a)
        raw_enc = StateEncoder(small_config("raw"), np.random.default_rng(2))
        hist = [obs([0.1, 0.2, 0.3, 0.4], emb=[1.0, -1.0, 0.5], present=True, d_n=3)]
        assert np.array_equal(history_state(hist, stack_enc).data,
                              history_state(hist, raw_enc).data)

    def test_no_attention_concatenates(self):
        enc = StateEncoder(small_config("impute", use_attention=False),
                           np.random.default_rng(3))
        hist = [obs([1.0, 2.0, 3.0, 4.0], emb=[1.0, 1.0, 1.0], present=True, d_n=3)]
        s = history_state(hist, enc)
        assert s.data.shape == (1, 10)

    @pytest.mark.parametrize("kind,use_attention", [
        ("context", True), ("impute", True), ("context", False), ("raw", True),
    ])
    def test_full_pipeline_gradient_check(self, kind, use_attention):
        rng = np.random.default_rng(5)
        enc = StateEncoder(small_config(kind, use_attention), rng)
        structured = rng.normal(size=(3, 4))
        f_c = rng.normal(size=(3, 3))
        f_e = rng.normal(size=(3, 3))

        def loss():
            return enc.forward(structured, f_c, f_e).square().mean()

        assert gradient_check(loss, enc.params()) < 1e-4
