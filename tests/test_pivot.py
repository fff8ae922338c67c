import json
import math

import numpy as np
import pytest

from babelkit import checks
from babelkit import pivot as P
from babelkit.cli import bundled_path
from babelkit.tape import DiffTape, ShapeError
from tests.gradcheck import finite_diff_check


def small_world(seed=0, concepts=("ship", "bridge"), **overrides):
    cfg = P.AlignConfig(concepts=concepts, seed=seed, **overrides)
    return cfg, *P.build_world(cfg)


def encode_one(encoder, x, alpha):
    """Tape-free (token_count, embed_dim) encoding of one image."""
    return encoder.encode(encoder.params, x[None, :], alpha).data[0]


def sample_loss(encoder, pivot, sample):
    """One sample's alignment loss value: ``batch_loss`` over a batch of one
    at alpha 1, taped and differentiated as a training step would."""
    tp = DiffTape()
    loss = P.batch_loss(encoder.register(tp), encoder, pivot, [sample], 1.0)
    tp.backward(loss)
    return float(loss.data)


def reference_next_token_probs(pivot, tokens, z):
    """Numpy decoder: softmax((embed[prev] + mean visual token) @ W + b),
    one row per response position of one sample."""
    q, r = tokens
    prev = (q[-1],) + tuple(r[:-1])
    logits = (pivot.embed[list(prev)] + z.mean(axis=0)) @ pivot.W + pivot.b
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestVocabulary:
    def test_distinct_token_sequences(self):
        vocab = P.ConceptVocabulary.build(["a", "b", "c"], latent_dim=4)
        seqs = list(vocab.token_seqs.values())
        assert len(set(seqs)) == len(seqs)

    def test_unit_norm_latents(self):
        vocab = P.ConceptVocabulary.build(["a", "b"], latent_dim=5)
        for z in vocab.latents.values():
            assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)

    def test_latent_dim_check(self):
        with pytest.raises(ValueError):
            P.ConceptVocabulary.build(["a", "b", "c"], latent_dim=2)

    def test_duplicate_concepts_rejected(self):
        with pytest.raises(ValueError):
            P.ConceptVocabulary.build(["a", "a"], latent_dim=4)


class TestGenerator:
    def test_noiseless_is_affine(self):
        vocab = P.ConceptVocabulary.build(["a", "b"], latent_dim=3)
        gen = P.SyntheticModalityGenerator.random("sar", 8, 3, seed=0)
        s = gen.generate_sample(vocab, "a")
        np.testing.assert_array_equal(s.image, gen.mixing @ vocab.latents["a"] + gen.offset)

    def test_determinism(self):
        vocab = P.ConceptVocabulary.build(["a", "b"], latent_dim=3)
        gen = P.SyntheticModalityGenerator.random("sar", 8, 3, seed=0, noise_sigma=0.3)
        s1 = gen.generate_sample(vocab, "a", rng_seed=7)
        s2 = gen.generate_sample(vocab, "a", rng_seed=7)
        np.testing.assert_array_equal(s1.image, s2.image)

    def test_shared_concept_different_pixels_same_response(self):
        vocab = P.ConceptVocabulary.build(["a", "b"], latent_dim=3)
        g1 = P.SyntheticModalityGenerator.random("sar", 8, 3, seed=1)
        g2 = P.SyntheticModalityGenerator.random("opt", 8, 3, seed=2)
        s1 = g1.generate_sample(vocab, "a")
        s2 = g2.generate_sample(vocab, "a")
        assert not np.array_equal(s1.image, s2.image)
        assert s1.response_tokens == s2.response_tokens

    def test_unknown_concept(self):
        vocab = P.ConceptVocabulary.build(["a"], latent_dim=2, tokens_per_concept=2)
        gen = P.SyntheticModalityGenerator.random("sar", 4, 2, seed=0)
        with pytest.raises(KeyError):
            gen.generate_sample(vocab, "zzz")

    def test_rank_deficient_mixing_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            P.SyntheticModalityGenerator("m", np.zeros((4, 2)), np.zeros(4))


class TestEncoder:
    def test_batch_rows_match_single_images(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        images = np.stack([s.image for s in P.training_batch(vocab, gens, cfg, step=0)])
        tp = DiffTape()
        z = encoder.encode(encoder.register(tp), images, 0.5)
        assert z.shape == (len(images), cfg.token_count, cfg.embed_dim)
        for row, x in zip(z.data, images):
            np.testing.assert_allclose(row, encode_one(encoder, x, 0.5), rtol=1e-12, atol=1e-15)


class TestLanguagePivot:
    def test_distributions_normalized(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        batch = P.training_batch(vocab, gens, cfg, step=0)
        z = encoder.encode(encoder.params, np.stack([s.image for s in batch]), 1.0)
        probs = pivot.next_token_probs([(s.instruction_tokens, s.response_tokens) for s in batch], z)
        assert probs.tape is None
        assert probs.shape == (sum(len(s.response_tokens) for s in batch), vocab.vocab_size)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_uniform_pivot_loss(self):
        # 3 concepts, 2 tokens each, 2 prompt tokens -> V=8; forcing the
        # decoder to zero logits gives uniform predictions: loss = |r| ln 8
        cfg, vocab, gens, pivot, encoder = small_world(concepts=("a", "b", "c"))
        assert vocab.vocab_size == 8
        pivot.W = np.zeros_like(pivot.W)
        pivot.b = np.zeros_like(pivot.b)
        s = gens["sar"].generate_sample(vocab, "a")
        loss = sample_loss(encoder, pivot, s)
        assert loss == pytest.approx(2 * math.log(8), rel=1e-12)

    def test_pivot_not_on_tape(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        s = gens["sar"].generate_sample(vocab, "ship")
        frozen = [pivot.embed.copy(), pivot.W.copy(), pivot.b.copy()]
        tp = DiffTape()
        loss = P.batch_loss(encoder.register(tp), encoder, pivot, [s], 1.0)
        grads = tp.backward(loss)
        assert set(tp.parameters) == set(grads) == set(encoder.PARAM_NAMES)
        assert any(np.any(grads[n] != 0.0) for n in encoder.PARAM_NAMES)
        for before, after in zip(frozen, (pivot.embed, pivot.W, pivot.b)):
            assert before.tobytes() == after.tobytes()

    def test_loss_matches_hand_computation(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        s = gens["sar"].generate_sample(vocab, "ship")
        loss = sample_loss(encoder, pivot, s)
        z = encode_one(encoder, s.image, 1.0)
        dists = reference_next_token_probs(pivot, (s.instruction_tokens, s.response_tokens), z)
        hand = -sum(math.log(dists[j, tok]) for j, tok in enumerate(s.response_tokens))
        assert loss == pytest.approx(hand, abs=1e-10)

    def test_gradient_vs_finite_differences(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        s = gens["sar"].generate_sample(vocab, "ship")

        def f(w1):
            tp = w1.tape
            p = {n: tp.parameter(encoder.params[n], n) for n in encoder.PARAM_NAMES if n != "enc.W1"}
            p["enc.W1"] = w1
            return P.batch_loss(p, encoder, pivot, [s], 1.0)

        assert finite_diff_check(f, encoder.params["enc.W1"]) < 1e-4

    def test_batch_gradient_vs_finite_differences_mid_anneal(self):
        # full training batch at alpha = 0.5: the LVSA mix of both blocks
        cfg, vocab, gens, pivot, encoder = small_world()
        alpha = encoder.alpha_at(cfg.lvsa_tau // 2)
        assert alpha == 0.5
        batch = P.training_batch(vocab, gens, cfg, step=cfg.lvsa_tau // 2)

        def f(w1):
            tp = w1.tape
            p = {n: tp.parameter(encoder.params[n], n) for n in encoder.PARAM_NAMES if n != "enc.W1"}
            p["enc.W1"] = w1
            return P.batch_loss(p, encoder, pivot, batch, alpha)

        assert finite_diff_check(f, encoder.params["enc.W1"]) < 1e-4

    def test_token_out_of_range(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        s = gens["sar"].generate_sample(vocab, "ship")
        bad = P.InstructionSample(s.image, s.instruction_tokens, (999,), s.modality, s.concept)
        with pytest.raises(ValueError, match="vocabulary"):
            sample_loss(encoder, pivot, bad)

    def test_response_only_term_count(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        s = gens["sar"].generate_sample(vocab, "ship")
        tp = DiffTape()
        z = encoder.encode(encoder.register(tp), s.image[None, :], 1.0)
        logp = pivot.response_log_probs([(s.instruction_tokens, s.response_tokens)], z)
        assert logp.shape == (len(s.response_tokens),)

    def test_perturbing_instruction_changes_loss(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        s = gens["sar"].generate_sample(vocab, "ship")
        base = sample_loss(encoder, pivot, s)
        other = P.InstructionSample(
            s.image, (s.instruction_tokens[0],) * len(s.instruction_tokens),
            s.response_tokens, s.modality, s.concept,
        )
        changed = sample_loss(encoder, pivot, other)
        assert changed != base

    def test_batch_loss_decomposition(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        batch = P.training_batch(vocab, gens, cfg, step=0)
        tp = DiffTape()
        total = P.batch_loss(encoder.register(tp), encoder, pivot, batch, 1.0)
        singles = [sample_loss(encoder, pivot, s) for s in batch]
        assert float(total.data) == pytest.approx(np.mean(singles), rel=1e-12)

    def test_step_node_count_independent_of_batch_size(self):
        cfg, vocab, gens, pivot, encoder = small_world(
            concepts=("a", "b", "c"), modalities=("sar", "optical", "ir")
        )
        batch = P.training_batch(vocab, gens, cfg, step=0)
        counts = set()
        for size in (1, 2, 4, len(batch)):
            tp = DiffTape()
            P.batch_loss(encoder.register(tp), encoder, pivot, batch[:size], 0.5)
            counts.add(len(tp.nodes))
        assert len(batch) == 9 and len(counts) == 1


class TestPretrain:
    def test_zero_steps_is_identity(self):
        cfg = P.AlignConfig(steps=0)
        _, _, _, fresh = P.build_world(cfg)
        encoder, trace = P.pretrain_align(cfg)
        assert trace == []
        for name in encoder.PARAM_NAMES:
            np.testing.assert_array_equal(encoder.params[name], fresh.params[name])

    def test_determinism_bit_identical(self):
        cfg = P.AlignConfig(steps=40)
        e1, t1 = P.pretrain_align(cfg)
        e2, t2 = P.pretrain_align(cfg)
        assert t1 == t2
        for name in e1.PARAM_NAMES:
            assert e1.params[name].tobytes() == e2.params[name].tobytes()

    def test_loss_decreases(self):
        cfg = P.AlignConfig(steps=300)
        _, trace = P.pretrain_align(cfg)
        assert trace[-1][1] < 0.5 * trace[0][1]

    def test_monotone_under_small_lr(self):
        cfg = P.AlignConfig(steps=200, lr=0.01)
        _, trace = P.pretrain_align(cfg)
        losses = [l for _, l, _ in trace]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-6

    def test_trace_alpha_follows_schedule(self):
        cfg = P.AlignConfig(steps=30, lvsa_tau=20)
        _, trace = P.pretrain_align(cfg)
        for step, _, alpha in trace:
            assert alpha == min(step / 20, 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            P.pretrain_align(P.AlignConfig(modalities=("only",)))
        with pytest.raises(ValueError):
            P.AlignConfig.from_dict({"bogus_key": 1})

    @pytest.mark.parametrize("field", ["image_dim", "embed_dim", "token_count"])
    def test_array_size_bounded_at_parse(self, field):
        # parsing must refuse before any array of that size is allocated
        with pytest.raises(ValueError, match=f"{field}.*more than the {checks.MAX_ELEMENTS} "):
            P.AlignConfig.from_dict({field: 10**8})

    def test_bundled_config_within_bound(self):
        with open(bundled_path("configs/align_default.json"), encoding="utf-8") as fh:
            cfg = P.AlignConfig.from_dict(json.load(fh))
        _, _, _, encoder = P.build_world(cfg)
        assert max(a.size for a in encoder.params.values()) == 768 < checks.MAX_ELEMENTS
        checks.config_elements("x", checks.MAX_ELEMENTS)
        with pytest.raises(ValueError, match="x: 10000001 elements"):
            checks.config_elements("x", checks.MAX_ELEMENTS + 1)


def reference_pretrain(config):
    """pretrain_align as one fresh tape per step, recorded from scratch:
    the oracle of the recorded tape's reruns."""
    vocab, gens, pivot, encoder = P.build_world(config)
    trace = []
    for step in range(config.steps):
        alpha = encoder.alpha_at(step)
        tp = DiffTape()
        batch = P.training_batch(vocab, gens, config, step)
        total = P.batch_loss(encoder.register(tp), encoder, pivot, batch, alpha)
        loss = float(total.data)
        assert np.isfinite(loss)
        grads = tp.backward(total)
        trace.append((step, loss, alpha))
        for name in encoder.PARAM_NAMES:
            encoder.params[name] = encoder.params[name] - config.lr * grads[name]
    return encoder, trace


class TestRecordOnceRerun:
    @pytest.mark.parametrize("noise", [0.0, 0.05])  # with noise, each step's images differ
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_per_step_recording_bit_for_bit(self, seed, noise):
        # 250 steps at tau 200: alpha anneals, then holds at 1
        cfg = P.AlignConfig(seed=seed, steps=250, lvsa_tau=200, noise_sigma=noise)
        encoder, trace = P.pretrain_align(cfg)
        ref_encoder, ref_trace = reference_pretrain(cfg)
        assert [t[2] for t in trace][199:202] == [0.995, 1.0, 1.0]
        assert trace == ref_trace
        for name in encoder.PARAM_NAMES:
            assert encoder.params[name].tobytes() == ref_encoder.params[name].tobytes()

    def test_lvsa_off_matches_per_step_recording(self):
        cfg = P.AlignConfig(steps=30, lvsa_enabled=False)
        encoder, trace = P.pretrain_align(cfg)
        ref_encoder, ref_trace = reference_pretrain(cfg)
        assert trace == ref_trace
        for name in encoder.PARAM_NAMES:
            assert encoder.params[name].tobytes() == ref_encoder.params[name].tobytes()

    def _swap_at(self, monkeypatch, step=None, change=None):
        """training_batch whose batch at ``step`` is ``change(batch)``;
        returns the list of the steps it is called for."""
        real, calls = P.training_batch, []

        def batch_at(vocab, gens, config, t):
            calls.append(t)
            batch = real(vocab, gens, config, t)
            return change(batch) if t == step else batch

        monkeypatch.setattr(P, "training_batch", batch_at)
        return calls

    def test_token_outside_vocabulary_is_an_error_before_any_step(self, monkeypatch):
        def out_of_range(batch):
            batch[1].response_tokens = (99,)
            return batch

        def refuse(*args):
            raise AssertionError("recorded a step from a batch with a bad token")

        self._swap_at(monkeypatch, 0, out_of_range)
        monkeypatch.setattr(P, "DiffTape", refuse)
        with pytest.raises(ValueError, match="token 99 outside vocabulary"):
            P.pretrain_align(P.AlignConfig(steps=6))

    @pytest.mark.parametrize("noise, built", [(0.0, [0]), (0.05, [0, 1, 2, 3, 4, 5])])
    def test_batch_built_once_without_noise(self, monkeypatch, noise, built):
        calls = self._swap_at(monkeypatch)
        P.pretrain_align(P.AlignConfig(steps=6, noise_sigma=noise))
        assert calls == built

    def test_noisy_batch_of_another_shape_is_an_error(self, monkeypatch):
        self._swap_at(monkeypatch, 3, lambda batch: batch[:-1])
        with pytest.raises(ShapeError, match="rerun 'images'"):
            P.pretrain_align(P.AlignConfig(steps=6, noise_sigma=0.05))

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [619570852, 1867925153, 2**62 + 3])
    def test_large_seeds_match_per_step_recording(self, seed, noise):
        cfg = P.AlignConfig(seed=seed, steps=40, noise_sigma=noise)
        encoder, trace = P.pretrain_align(cfg)
        ref_encoder, ref_trace = reference_pretrain(cfg)
        assert trace == ref_trace
        for name in encoder.PARAM_NAMES:
            assert encoder.params[name].tobytes() == ref_encoder.params[name].tobytes()

    def test_alpha_checked_every_step(self, monkeypatch):
        real = P.SharedEncoder.alpha_at
        monkeypatch.setattr(
            P.SharedEncoder, "alpha_at", lambda self, t: 1.5 if t == 5 else real(self, t)
        )
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\], got 1.5"):
            P.pretrain_align(P.AlignConfig(steps=8))

    def test_non_finite_loss_checked_every_step(self):
        # the bundled align at lr 1e8: finite at step 0, then not
        with pytest.raises(P.NonFiniteLossError) as exc:
            P.pretrain_align(P.AlignConfig(steps=50, lr=1e8))
        assert exc.value.step > 0


class TestConsistency:
    def test_identical_modalities_zero(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        g = gens["sar"]
        twin = {"a": g, "b": P.SyntheticModalityGenerator(g.modality, g.mixing, g.offset)}
        report = P.consistency_report(encoder, pivot, vocab, twin)
        for c in vocab.concepts:
            assert report[c] == pytest.approx(0.0, abs=1e-12)

    def test_untrained_positive(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        assert sorted(gens) == ["optical", "sar"]
        report = P.consistency_report(encoder, pivot, vocab, gens)
        assert report["ship"] > 0

    def test_report_covers_all_concepts(self):
        cfg, vocab, gens, pivot, encoder = small_world()
        report = P.consistency_report(encoder, pivot, vocab, gens)
        assert set(report) == set(vocab.concepts)
        assert all(v >= 0 for v in report.values())

    def test_report_matches_per_pair_reference(self):
        # reference: each probe encoded alone, then the mean over modality
        # pairs of the mean symmetric KL over response positions
        cfg, vocab, gens, pivot, encoder = small_world(
            concepts=("a", "b", "c"), modalities=("sar", "optical", "ir")
        )
        alpha = 0.5
        report = P.consistency_report(encoder, pivot, vocab, gens, alpha)
        mods = sorted(gens)
        for c in vocab.concepts:
            tokens = (vocab.prompt_tokens, vocab.token_seqs[c])
            dists = {}
            for m in mods:
                x = gens[m].mixing @ vocab.latents[c] + gens[m].offset
                dists[m] = reference_next_token_probs(pivot, tokens, encode_one(encoder, x, alpha))
            per_pair = [
                np.mean([P._sym_kl(p, q) for p, q in zip(dists[a], dists[b])])
                for i, a in enumerate(mods) for b in mods[i + 1:]
            ]
            assert len(per_pair) == 3
            assert report[c] == pytest.approx(np.mean(per_pair), rel=1e-12)
