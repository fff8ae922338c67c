"""A numpy forward pass of the alignment model, for the align-exact check.

It rebuilds the model from its documented construction (orthonormal concept
latents, images x = A_m z_c + b_m, a frozen bigram-with-context pivot fitted
by least squares on token-only sequences, a two-block encoder whose blocks
are fused by LVSA) and computes the mean response-token negative
log-likelihood of the full (modality x concept) batch at step 0.
"""

import json
import math
import os

import numpy as np

CONFIG_PATH = os.path.join("src", "babelkit", "configs", "align_default.json")
PROMPT_LEN = 2
TOKENS_PER_CONCEPT = 2
TARGET_LOGIT = 4.0


def bundled_config():
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def step0_loss(cfg):
    seed = cfg["seed"]
    concepts, modalities = cfg["concepts"], cfg["modalities"]
    d_x, d_z, d_e, n_z = cfg["image_dim"], cfg["latent_dim"], cfg["embed_dim"], cfg["token_count"]

    basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d_z, len(concepts))))
    prompt = tuple(range(PROMPT_LEN))
    response = [tuple(PROMPT_LEN + i * TOKENS_PER_CONCEPT + j for j in range(TOKENS_PER_CONCEPT))
                for i in range(len(concepts))]
    vocab = PROMPT_LEN + len(concepts) * TOKENS_PER_CONCEPT

    images = []
    for i in range(len(modalities)):
        rng = np.random.default_rng(seed * 1000 + i)
        mixing, _ = np.linalg.qr(rng.standard_normal((d_x, d_z)))
        if cfg.get("antipodal_modalities", False) and i % 2 == 1:
            mixing = -mixing
        offset = 0.1 * rng.standard_normal(d_x)
        images += [mixing @ basis[:, c] + offset for c in range(len(concepts))]

    embed = np.random.default_rng(seed + 17).standard_normal((vocab, d_e)) / math.sqrt(d_e)
    rows, targets = [], []
    for r in response:
        topic = embed[list(r)].mean(axis=0)
        seq = prompt + r
        for prev, nxt in zip(seq, seq[1:]):
            rows.append(embed[prev] + topic)
            targets.append(np.where(np.arange(vocab) == nxt, TARGET_LOGIT, -TARGET_LOGIT))
    w_pivot, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)

    rng = np.random.default_rng(seed + 29)
    w0 = rng.standard_normal((d_x, n_z * d_e)) / math.sqrt(d_x)
    w1 = rng.standard_normal((d_e, d_e)) / math.sqrt(d_e)
    w2 = rng.standard_normal((d_e, d_e)) / math.sqrt(d_e)

    alpha = 0.0 if cfg.get("lvsa_enabled", True) else 1.0  # min(0 / tau, 1)
    losses = []
    for k, x in enumerate(images):
        r = response[k % len(concepts)]
        t0 = (x @ w0).reshape(n_z, d_e)
        t1 = np.maximum(t0 @ w1, 0.0)
        t2 = np.maximum(t1 @ w2, 0.0)
        if cfg.get("lvsa_enabled", True):
            layers = {1: t1, 2: t2}
            selected = np.mean([layers[i] for i in cfg["lvsa_selected"]], axis=0)
            z = (1.0 - alpha) * t2 + alpha * selected
        else:
            z = t2
        prev = (prompt[-1],) + r[:-1]
        logp = _log_softmax((embed[list(prev)] + z.mean(axis=0)) @ w_pivot)
        losses.append(-sum(logp[j, tok] for j, tok in enumerate(r)))
    return float(np.mean(losses))
