"""Language-pivoted alignment at desk scale.

Synthetic heterogeneous modalities are generated from shared latent
concepts (x = A_m z_c + b_m + noise). A trainable two-block encoder maps
each image to a grid of visual tokens; a frozen bigram-with-context linear
decoder (the "pivot") produces next-token logits from the mean visual
token plus the previous token's embedding. Training minimizes the negative
log-likelihood of the response tokens only.

A training step is one batched tape graph whatever the batch size: the
encoder maps an image batch (B, d_x) to visual tokens (B, n_z, d_e), and
``batch_loss`` scores every response position of every sample with one
decoder matmul, one softmax and one gather.

The frozen pivot is plain arrays (``pivot.embed``, ``pivot.W``,
``pivot.b``), in training as in inference: it is never registered on a
tape, so on a training tape it enters as constants. Inference is the
training forward, run without a tape: given ``encoder.params`` the same
``encode`` and ``next_token_probs`` return tape-free tensors, with nothing
recorded or quantized. ``consistency_report`` scores every probe image that
way in one batched pass.

The pivot is calibrated once on token-only sequences so that concept token
chains are already predictable from the previous token; the visual context
is what disambiguates which chain to start.
"""

import math
from dataclasses import dataclass

import numpy as np

from babelkit import lvsa
from babelkit import tape as T
from babelkit.checks import (
    NumericalError, config_elements, config_int, config_keys, config_list, config_number,
)
from babelkit.lvsa import AnnealSchedule, FeaturePyramid, SelectedSet, anneal_alpha


class NonFiniteLossError(NumericalError):
    def __init__(self, step):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


# -- concepts and synthetic modalities ---------------------------------------


@dataclass
class ConceptVocabulary:
    concepts: list
    vocab_size: int
    token_seqs: dict  # concept -> tuple of token ids
    latents: dict  # concept -> unit-norm latent vector
    prompt_tokens: tuple  # the shared instruction token sequence

    @classmethod
    def build(cls, concepts, latent_dim, seed=0, tokens_per_concept=2, prompt_len=2):
        concepts = list(concepts)
        if len(set(concepts)) != len(concepts):
            raise ValueError("concept names must be unique")
        if latent_dim < len(concepts):
            raise ValueError("latent_dim must be >= number of concepts")
        rng = np.random.default_rng(seed)
        # orthonormal latents keep concepts maximally distinguishable
        basis, _ = np.linalg.qr(rng.standard_normal((latent_dim, len(concepts))))
        latents = {c: basis[:, i].copy() for i, c in enumerate(concepts)}
        prompt = tuple(range(prompt_len))
        seqs = {
            c: tuple(
                prompt_len + i * tokens_per_concept + j for j in range(tokens_per_concept)
            )
            for i, c in enumerate(concepts)
        }
        vocab_size = prompt_len + len(concepts) * tokens_per_concept
        return cls(concepts, vocab_size, seqs, latents, prompt)


@dataclass
class InstructionSample:
    image: np.ndarray
    instruction_tokens: tuple
    response_tokens: tuple
    modality: str
    concept: str


class SyntheticModalityGenerator:
    """x = A_m z_c + b_m + sigma * gaussian noise, per modality."""

    def __init__(self, modality, mixing, offset, noise_sigma=0.0):
        mixing = np.asarray(mixing, dtype=np.float64)
        offset = np.asarray(offset, dtype=np.float64)
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if np.linalg.matrix_rank(mixing) < mixing.shape[1]:
            raise ValueError(f"mixing matrix for {modality!r} is column rank deficient")
        self.modality = modality
        self.mixing = mixing
        self.offset = offset
        self.noise_sigma = float(noise_sigma)

    @classmethod
    def random(cls, modality, image_dim, latent_dim, seed, noise_sigma=0.0, flip=False):
        """Seeded random orthogonal mixing columns; ``flip`` negates them,
        which builds near-antipodal modality pairs for conflict studies."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((image_dim, latent_dim)))
        if flip:
            q = -q
        offset = 0.1 * rng.standard_normal(image_dim)
        return cls(modality, q, offset, noise_sigma)

    def generate_sample(self, vocab, concept, rng_seed=0):
        if concept not in vocab.latents:
            raise KeyError(f"unknown concept {concept!r}")
        x = self.mixing @ vocab.latents[concept] + self.offset
        if self.noise_sigma > 0:
            rng = np.random.default_rng(rng_seed)
            x = x + self.noise_sigma * rng.standard_normal(x.shape)
        return InstructionSample(
            image=x,
            instruction_tokens=vocab.prompt_tokens,
            response_tokens=vocab.token_seqs[concept],
            modality=self.modality,
            concept=concept,
        )


# -- encoder -----------------------------------------------------------------


class SharedEncoder:
    """Two nonlinear blocks over a token grid; the block outputs form a
    two-level feature pyramid fused by LVSA before leaving the encoder.

    Shapes and LVSA settings come from an AlignConfig: image_dim,
    embed_dim, token_count, lvsa_enabled, lvsa_tau and lvsa_selected."""

    PARAM_NAMES = ("enc.W0", "enc.W1", "enc.b1", "enc.W2", "enc.b2")

    def __init__(self, config, seed=0):
        self.config = config
        d_x, d_e, n_z = config.image_dim, config.embed_dim, config.token_count
        rng = np.random.default_rng(seed)
        s0 = 1.0 / math.sqrt(d_x)
        s = 1.0 / math.sqrt(d_e)
        self.params = {
            "enc.W0": s0 * rng.standard_normal((d_x, n_z * d_e)),
            "enc.W1": s * rng.standard_normal((d_e, d_e)),
            "enc.b1": np.zeros(d_e),
            "enc.W2": s * rng.standard_normal((d_e, d_e)),
            "enc.b2": np.zeros(d_e),
        }
        self.schedule = AnnealSchedule(config.lvsa_tau)
        self.selected = SelectedSet(tuple(config.lvsa_selected))

    def register(self, tp):
        """Register current parameter values on a tape; returns name -> Tensor."""
        return {name: tp.parameter(self.params[name], name) for name in self.PARAM_NAMES}

    def encode(self, p, X, alpha):
        """Visual tokens (B, token_count, embed_dim) for an image batch.

        ``p`` is the tensor dict from register(), or ``self.params`` for a
        tape-free forward; ``X`` a (B, image_dim) array or tape input;
        ``alpha`` as ``lvsa.fuse`` takes it. The blocks and the
        LVSA fusion run on the 2-D (B * token_count, embed_dim) token rows.
        """
        cfg = self.config
        xw = T.matmul(X, p["enc.W0"])  # (B, token_count * embed_dim)
        batch = xw.shape[0]
        t0 = T.reshape(xw, (batch * cfg.token_count, cfg.embed_dim))
        t1 = T.relu(T.add(T.matmul(t0, p["enc.W1"]), p["enc.b1"]))
        t2 = T.relu(T.add(T.matmul(t1, p["enc.W2"]), p["enc.b2"]))
        out = t2
        if cfg.lvsa_enabled:
            out = lvsa.fuse(FeaturePyramid([t1, t2]), self.selected, alpha)
        return T.reshape(out, (batch, cfg.token_count, cfg.embed_dim))

    def alpha_at(self, t_step):
        if not self.config.lvsa_enabled:
            return 1.0
        return anneal_alpha(self.schedule, t_step)

    def state_arrays(self):
        return {k: v.copy() for k, v in self.params.items()}


# -- frozen language pivot ---------------------------------------------------


class LanguagePivot:
    """Frozen token embeddings plus a bigram-with-context linear decoder.

    Next-token logits at response position j of sample b are
        (mean visual token of b + embedding of previous token) @ W + b,
    computed for all N response positions of a batch as one (N, V) block.
    W, b are fit once by least squares on token-only bigram transitions
    (no images), then never updated.
    """

    def __init__(self, vocab, embed_dim, seed=0, target_logit=4.0):
        V = vocab.vocab_size
        rng = np.random.default_rng(seed)
        self.vocab = vocab
        self.embed = rng.standard_normal((V, embed_dim)) / math.sqrt(embed_dim)
        # Token-only calibration: one sequence per concept (prompt followed
        # by the concept's token chain). The context slot carries the
        # concept's topic vector (mean response-token embedding) -- the same
        # slot the visual tokens occupy at inference -- which makes the
        # concept chains linearly separable in the decoder's input space.
        rows, targets = [], []
        for r in vocab.token_seqs.values():
            topic = self.embed[list(r)].mean(axis=0)
            seq = vocab.prompt_tokens + r
            for prev_tok, next_tok in zip(seq, seq[1:]):
                rows.append(self.embed[prev_tok] + topic)
                t = np.full(V, -target_logit)
                t[next_tok] = target_logit
                targets.append(t)
        self.W, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
        self.b = np.zeros(V)

    def next_token_probs(self, token_pairs, visual_tokens):
        """(N, V) next-token distributions at the response positions
        (teacher forced).

        ``token_pairs`` is one (instruction, response) pair per sample;
        ``visual_tokens`` the (B, n_z, d_e) encoder output, taped or not.
        Rows follow the samples' response positions in order, N = sum of
        |response|.
        """
        prev, owner = [], []
        for b, (q, r) in enumerate(token_pairs):
            prev += (q[-1],) + tuple(r[:-1])
            owner += [b] * len(r)
        z_bar = T.mean(visual_tokens, axis=1)  # (B, d_e)
        h = T.add(T.gather(self.embed, prev), T.gather(z_bar, owner))  # (N, d_e)
        logits = T.add(T.matmul(h, self.W), self.b)  # (N, V)
        return T.softmax(logits, axis=-1)

    def response_log_probs(self, token_pairs, visual_tokens):
        """(N,) log-probability tensor of each response token: the log of
        next_token_probs() at the token that follows."""
        picks = [tok for _, r in token_pairs for tok in r]
        V = self.vocab.vocab_size
        logp = T.log(self.next_token_probs(token_pairs, visual_tokens))
        flat = T.reshape(logp, (len(picks) * V,))
        return T.gather(flat, [j * V + tok for j, tok in enumerate(picks)])


# -- alignment loss ----------------------------------------------------------


def check_tokens(pivot, batch):
    """ValueError unless every token of every sample is in the vocabulary."""
    for sample in batch:
        for tok in sample.instruction_tokens + sample.response_tokens:
            if not 0 <= tok < pivot.vocab.vocab_size:
                raise ValueError(
                    f"token {tok} outside vocabulary of size {pivot.vocab.vocab_size}"
                )


def token_pairs(batch):
    return [(s.instruction_tokens, s.response_tokens) for s in batch]


def batch_loss(p, encoder, pivot, batch, alpha):
    """Mean over the samples of each sample's summed response-token
    negative log-likelihood, as a tape scalar built in one batched graph."""
    check_tokens(pivot, batch)
    images = np.stack([s.image for s in batch])
    return _alignment_loss(p, encoder, pivot, token_pairs(batch), images, alpha)


def _alignment_loss(p, encoder, pivot, pairs, images, alpha):
    z = encoder.encode(p, images, alpha)
    logp = pivot.response_log_probs(pairs, z)
    return T.mul(T.mean(logp), -logp.shape[0] / len(pairs))


# -- pretraining -------------------------------------------------------------


@dataclass
class AlignConfig:
    concepts: tuple = ("ship", "bridge")
    modalities: tuple = ("sar", "optical")
    image_dim: int = 12
    latent_dim: int = 4
    embed_dim: int = 16
    token_count: int = 4
    noise_sigma: float = 0.0
    steps: int = 2000
    lr: float = 0.05
    seed: int = 0
    lvsa_enabled: bool = True
    lvsa_tau: int = 200
    lvsa_selected: tuple = (1, 2)
    antipodal_modalities: bool = False

    def __post_init__(self):
        """Field checks, cheap enough to run before any work: integer fields
        hold integers, sizes are positive, names are non-empty strings, and
        the world and encoder the config describes can be built."""
        for name in ("concepts", "modalities", "lvsa_selected"):
            config_list(name, getattr(self, name))
            setattr(self, name, tuple(getattr(self, name)))
        for name in ("image_dim", "latent_dim", "embed_dim", "token_count", "lvsa_tau"):
            config_int(name, getattr(self, name), 1)
        config_int("steps", self.steps, 0)
        config_int("seed", self.seed, 0)
        config_number("noise_sigma", self.noise_sigma, 0)
        config_number("lr", self.lr)
        for name, flag in (("lvsa_enabled", self.lvsa_enabled),
                           ("antipodal_modalities", self.antipodal_modalities)):
            if not isinstance(flag, bool):
                raise ValueError(f"{name} must be true or false, got {flag!r}")
        for name, names in (("concepts", self.concepts), ("modalities", self.modalities)):
            for item in names:
                if not isinstance(item, str) or not item:
                    raise ValueError(f"{name} must be non-empty strings, got {item!r}")
            if len(set(names)) != len(names):
                raise ValueError(f"{name} must be unique")
        if self.latent_dim < len(self.concepts):
            raise ValueError("latent_dim must be >= number of concepts")
        if self.image_dim < self.latent_dim:
            raise ValueError("image_dim must be >= latent_dim")
        n_c, n_m, d_e = len(self.concepts), len(self.modalities), self.embed_dim
        vocab = 2 + 2 * n_c  # ConceptVocabulary.build: a 2-token prompt, 2 tokens a concept
        for name, count in (
            ("image_dim x token_count*embed_dim (encoder weight)",
             self.image_dim * self.token_count * d_e),
            ("embed_dim x embed_dim (encoder weight)", d_e * d_e),
            ("concepts*modalities x token_count*embed_dim (visual tokens)",
             n_c * n_m * self.token_count * d_e),
            ("image_dim x latent_dim (generator mixing)", self.image_dim * self.latent_dim),
            ("vocabulary x embed_dim (pivot embedding)", vocab * d_e),
            ("3*concepts x vocabulary (pivot calibration)", 3 * n_c * vocab),
            ("2*concepts*modalities x vocabulary (logits)", 2 * n_c * n_m * vocab),
        ):
            config_elements(name, count)
        for index in self.lvsa_selected:
            config_int("lvsa_selected index", index, 1)
        selected = SelectedSet(tuple(self.lvsa_selected))
        if self.lvsa_enabled:
            selected.validate_for(2)  # the encoder's two blocks

    @classmethod
    def from_dict(cls, obj):
        config_keys("config", obj, cls.__dataclass_fields__)
        return cls(**obj)


def build_world(config):
    """Vocabulary, per-modality generators, pivot, and fresh encoder for a
    config; deterministic given config.seed."""
    vocab = ConceptVocabulary.build(config.concepts, config.latent_dim, seed=config.seed)
    gens = {}
    for i, m in enumerate(config.modalities):
        flip = config.antipodal_modalities and i % 2 == 1
        gens[m] = SyntheticModalityGenerator.random(
            m,
            config.image_dim,
            config.latent_dim,
            seed=config.seed * 1000 + i,
            noise_sigma=config.noise_sigma,
            flip=flip,
        )
    pivot = LanguagePivot(vocab, config.embed_dim, seed=config.seed + 17)
    encoder = SharedEncoder(config, seed=config.seed + 29)
    return vocab, gens, pivot, encoder


def training_batch(vocab, gens, config, step):
    """Full deterministic batch: one sample per (modality, concept)."""
    batch = []
    for mi, gen in enumerate(gens.values()):
        for ci, c in enumerate(vocab.concepts):
            noise_seed = ((config.seed * 1009 + step) * 101 + mi) * 31 + ci
            batch.append(gen.generate_sample(vocab, c, rng_seed=noise_seed))
    return batch


def check_pretrain_inputs(config):
    if len(config.modalities) < 2 or len(config.concepts) < 2:
        raise ValueError("need at least 2 modalities and 2 concepts")


# the tape inputs of a pretraining step: the image batch and LVSA's weights
STEP_INPUTS = ("images", "lvsa.1-alpha", "lvsa.alpha")


def pretrain_align(config, encoder=None):
    """Plain full-batch gradient descent on the alignment loss by
    ``tape.descend``, with ``STEP_INPUTS`` declared as tape inputs.

    Step 0 builds its batch and checks its tokens before anything is
    recorded. The token pairs (the graph's gather indices) come from the
    vocabulary, not from the step, so they are fixed for the run. Each step
    passes its own LVSA weights, and its own image batch only when
    ``noise_sigma > 0`` (a batch of another shape is a ShapeError). Every
    step checks its alpha and its loss.

    Returns (encoder, trace) where trace is a list of (step, loss, alpha)
    tuples; raises NonFiniteLossError on numerical failure.
    """
    check_pretrain_inputs(config)
    vocab, gens, pivot, fresh = build_world(config)
    if encoder is None:
        encoder = fresh
    batch = alpha = None

    def inputs_at(step):
        nonlocal batch, alpha
        alpha = encoder.alpha_at(step)
        inputs = dict(zip(STEP_INPUTS[1:], lvsa.fusion_weights(alpha)))
        if step == 0 or config.noise_sigma > 0:
            batch = training_batch(vocab, gens, config, step)
            inputs["images"] = np.stack([s.image for s in batch])
        if step == 0:
            check_tokens(pivot, batch)
        return inputs

    def record(tp, inputs):
        x, w_final, w_mean = (tp.input(inputs[name], name) for name in STEP_INPUTS)
        p = encoder.register(tp)
        return _alignment_loss(p, encoder, pivot, token_pairs(batch), x, (w_final, w_mean))

    trace = []
    descent = T.descend(record, encoder.params, config.steps, config.lr, inputs_at=inputs_at)
    for step, loss, _, _ in descent:
        if not np.isfinite(loss):
            raise NonFiniteLossError(step)
        trace.append((step, loss, alpha))
    return encoder, trace


# -- consistency metric ------------------------------------------------------


def _sym_kl(p, q, eps=1e-12):
    p = np.clip(p, eps, None)
    q = np.clip(q, eps, None)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)) + np.sum(q * np.log(q / p)))


def consistency_report(encoder, pivot, vocab, gens, alpha=1.0):
    """Per-concept consistency: the mean, over all modality pairs, of the
    mean symmetric KL between the next-response-token distributions that
    the two modalities' noiseless probe images of the concept give.

    Every (modality, concept) probe is encoded and decoded in one
    tape-free pass of the training forward.
    """
    mods = sorted(gens)
    probes = [(m, c) for m in mods for c in vocab.concepts]
    X = np.stack([gens[m].mixing @ vocab.latents[c] + gens[m].offset for m, c in probes])
    z = encoder.encode(encoder.params, X, alpha)
    responses = [vocab.token_seqs[c] for _, c in probes]
    probs = pivot.next_token_probs([(vocab.prompt_tokens, r) for r in responses], z).data
    ends = np.cumsum([len(r) for r in responses])
    dists = dict(zip(probes, np.split(probs, ends[:-1])))
    pairs = [(a, b) for i, a in enumerate(mods) for b in mods[i + 1:]]
    out = {}
    for c in vocab.concepts:
        vals = [
            float(np.mean([_sym_kl(p, q) for p, q in zip(dists[a, c], dists[b, c])]))
            for a, b in pairs
        ]
        out[c] = float(np.mean(vals))
    return out
