"""Executable optimization analysis: per-modality gradient diagnostics,
Hessian conditioning sweeps, late-alignment vs two-stage training runs,
the gradient-coherence experiment, and the reduced-precision stress
harness.

The late-alignment objective pairs per-modality detection losses (MSE of a
linear head on the mean visual token) with an explicit feature-centroid
matching penalty weighted by lambda. The two-stage route pretrains the
encoder with the language-pivoted objective first, then fine-tunes on
detection only.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from babelkit import pivot as P
from babelkit import tape as T
from babelkit.checks import power_iteration_extremes
from babelkit.precision import EXACT, FP16, PrecisionMode
from babelkit.tape import DiffTape

DIVERGENCE_LOSS_LIMIT = 1e12

PRECISION_MODES = {"exact": EXACT, "fp16": FP16}


def resolve_precision(spec):
    if isinstance(spec, PrecisionMode):
        return spec
    try:
        return PRECISION_MODES[spec]
    except KeyError:
        raise ValueError(f"unknown precision {spec!r} (use 'exact' or 'fp16')") from None


# -- gradient diagnostics ----------------------------------------------------


@dataclass
class GradientReport:
    """Per-modality gradients over shared parameters plus the norm
    decomposition ||sum g_m||^2 = sum ||g_m||^2 + sum_{i!=j} <g_i, g_j>."""

    gradients: dict  # modality -> flat vector
    inner_products: dict  # (m_i, m_j) -> float, i < j
    cosines: dict  # (m_i, m_j) -> float
    joint_norm_sq: float
    sum_norm_sq: float
    cross_term: float

    @classmethod
    def from_vectors(cls, gradients):
        mods = list(gradients)
        vecs = {m: np.asarray(g, dtype=np.float64).reshape(-1) for m, g in gradients.items()}
        inner, cos = {}, {}
        for i, a in enumerate(mods):
            for b in mods[i + 1:]:
                ip = float(vecs[a] @ vecs[b])
                inner[(a, b)] = ip
                na, nb = np.linalg.norm(vecs[a]), np.linalg.norm(vecs[b])
                cos[(a, b)] = ip / (na * nb) if na > 0 and nb > 0 else 0.0
        joint = np.sum([vecs[m] for m in mods], axis=0)
        return cls(
            gradients=vecs,
            inner_products=inner,
            cosines=cos,
            joint_norm_sq=float(joint @ joint),
            sum_norm_sq=float(sum(vecs[m] @ vecs[m] for m in mods)),
            cross_term=2.0 * sum(inner.values()),
        )

    def mean_cosine(self):
        if not self.cosines:
            raise ValueError("need at least two modalities for pairwise cosines")
        return float(np.mean(list(self.cosines.values())))

    def to_dict(self):
        return {
            "cosines": {f"{a}|{b}": v for (a, b), v in self.cosines.items()},
            "inner_products": {f"{a}|{b}": v for (a, b), v in self.inner_products.items()},
            "joint_norm_sq": self.joint_norm_sq,
            "sum_norm_sq": self.sum_norm_sq,
            "cross_term": self.cross_term,
        }


def flatten_named(grads, names):
    return np.concatenate([np.asarray(grads[n], dtype=np.float64).reshape(-1) for n in names])


class LinearTask:
    """Task whose detection gradient over the shared parameters is a chosen
    constant vector (loss is linear in theta); used to construct axis-aligned
    and antipodal gradient regimes exactly."""

    def __init__(self, modality, directions):
        self.modality = modality
        self.directions = {k: np.asarray(v, dtype=np.float64) for k, v in directions.items()}

    def loss(self, params, tp):
        total = None
        for name, d in self.directions.items():
            term = T.mul(T.mean(T.mul(params[name], d)), float(d.size))
            total = term if total is None else T.add(total, term)
        return total


class DetectionTask:
    """Per-modality toy detection: linear head on the mean visual token,
    squared-error loss against concept-dependent box targets."""

    def __init__(self, modality, generator, vocab, encoder, targets, head, alpha=1.0):
        if not vocab.concepts:
            raise ValueError("task dataset is empty")
        self.modality = modality
        self.encoder = encoder
        self.alpha = alpha
        self.head = np.asarray(head, dtype=np.float64)  # (embed_dim, 4)
        self.samples = []
        for c in vocab.concepts:
            s = generator.generate_sample(vocab, c, rng_seed=0)
            y = np.asarray(targets[c], dtype=np.float64).reshape(1, 4)
            if not np.all(np.isfinite(y)):
                raise ValueError(f"non-finite target for concept {c!r}")
            self.samples.append((s.image, y))

    def loss_and_feature(self, params, head_tensor, tp):
        """(scalar loss, mean feature tensor) for the full dataset."""
        losses = []
        feats = None
        for x, y in self.samples:
            z = self.encoder.encode(params, x, self.alpha)
            f = T.mean(z, axis=0, keepdims=True)  # (1, embed_dim)
            pred = T.matmul(f, head_tensor)
            err = T.add(pred, T.mul(tp.constant(y), -1.0))
            losses.append(T.mean(T.mul(err, err)))
            feats = f if feats is None else T.add(feats, f)
        total = losses[0]
        for l in losses[1:]:
            total = T.add(total, l)
        loss = T.mul(total, 1.0 / len(losses))
        mean_feat = T.mul(feats, 1.0 / len(self.samples))
        return loss, mean_feat

    def loss(self, params, tp):
        head_t = tp.constant(self.head)
        loss, _ = self.loss_and_feature(params, head_t, tp)
        return loss


def per_modality_gradients(encoder, tasks, mode=EXACT):
    """Full-batch detection gradients per modality over the shared encoder
    parameters, with the norm-decomposition report."""
    if not tasks:
        raise ValueError("tasks must be non-empty")
    grads = {}
    for task in tasks:
        tp = DiffTape(mode)
        params = encoder.register(tp)
        loss = task.loss(params, tp)
        g = tp.backward(loss)
        vec = flatten_named(g, encoder.PARAM_NAMES)
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"non-finite gradient for modality {task.modality!r}")
        grads[task.modality] = vec
    return GradientReport.from_vectors(grads)


# -- Hessian conditioning lab ------------------------------------------------


def _rotation(dim, angle, plane=(0, 1)):
    r = np.eye(dim)
    i, j = plane
    c, s = math.cos(angle), math.sin(angle)
    r[i, i] = c
    r[i, j] = -s
    r[j, i] = s
    r[j, j] = c
    return r


@dataclass
class HessianSpec:
    """Explicit SPD curvature pair: an anisotropic detection Hessian and an
    alignment Hessian sharp along a rotated subspace."""

    h_det: np.ndarray
    h_align: np.ndarray

    def __post_init__(self):
        for name, h in (("h_det", self.h_det), ("h_align", self.h_align)):
            h = np.asarray(h, dtype=np.float64)
            if not np.allclose(h, h.T, atol=1e-12):
                raise ValueError(f"{name} is not symmetric")
            if np.linalg.eigvalsh(h)[0] <= 0:
                raise ValueError(f"{name} is not positive definite")

    @classmethod
    def build(cls, dim, det_eigs, align_eigs, angle, plane=(0, 1)):
        det_eigs = np.asarray(det_eigs, dtype=np.float64)
        align_eigs = np.asarray(align_eigs, dtype=np.float64)
        if det_eigs.shape != (dim,) or align_eigs.shape != (dim,):
            raise ValueError("need one eigenvalue per dimension for both matrices")
        r = _rotation(dim, angle, plane)
        return cls(np.diag(det_eigs), r @ np.diag(align_eigs) @ r.T)

    @property
    def dim(self):
        return self.h_det.shape[0]


def condition_number(spec, lam):
    """kappa(H_det + lam * H_align): dense eigendecomposition for dim <= 8,
    cross-checked against power iteration; power iteration alone above."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    h = spec.h_det + lam * spec.h_align
    lo_pi, hi_pi = None, None
    if spec.dim > 8:
        hi_pi, lo_pi = power_iteration_extremes(lambda v: h @ v, spec.dim, iters=200000, tol=1e-12)
        return hi_pi / lo_pi
    eigs = np.linalg.eigvalsh(h)
    lo, hi = float(eigs[0]), float(eigs[-1])
    assert lo > 0, "SPD sum has non-positive eigenvalue"
    hi_pi, lo_pi = power_iteration_extremes(lambda v: h @ v, spec.dim, iters=200000, tol=1e-12)
    if abs(hi_pi / lo_pi - hi / lo) > 1e-6 * (hi / lo):
        raise AssertionError("power iteration disagrees with dense eigensolver")
    return hi / lo


def conditioning_sweep(spec, lambdas):
    """Rows (lambda, kappa, lambda_max, lambda_min) over a lambda grid."""
    rows = []
    for lam in lambdas:
        h = spec.h_det + lam * spec.h_align
        eigs = np.linalg.eigvalsh(h)
        rows.append((float(lam), condition_number(spec, lam), float(eigs[-1]), float(eigs[0])))
    return rows


# -- training runs -----------------------------------------------------------


@dataclass
class RunRecord:
    step: int
    loss: float
    task_losses: tuple
    grad_norm: float
    alpha: float


@dataclass
class RunTrace:
    records: list
    verdict: str  # converged | diverged | max-steps
    first_nonfinite_step: object = None  # int or None

    def losses(self):
        return [r.loss for r in self.records]

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "loss", "grad_norm", "alpha"])
            for r in self.records:
                w.writerow([r.step, repr(r.loss), repr(r.grad_norm), repr(r.alpha)])


@dataclass
class RunConfig:
    """Shared fine-tuning setup for both training regimes."""

    align: P.AlignConfig = field(default_factory=P.AlignConfig)
    steps: int = 200
    lr: float = 1e-3
    lam: float = 0.0  # late-alignment only
    precision: str = "exact"
    pretrain_steps: int = 0  # two-stage only
    target_scale: float = 1.0

    @classmethod
    def from_dict(cls, obj):
        obj = dict(obj)
        if "align" in obj:
            obj["align"] = P.AlignConfig.from_dict(obj["align"])
        known = set(cls.__dataclass_fields__)
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown run config keys: {sorted(extra)}")
        return cls(**obj)


def concept_targets(vocab, seed, scale=1.0):
    """Concept-dependent 4-vector box targets, shared across modalities."""
    rng = np.random.default_rng(seed + 5)
    return {c: scale * rng.standard_normal(4) for c in vocab.concepts}


def build_detection_tasks(config, encoder, vocab, gens):
    targets = concept_targets(vocab, config.align.seed, config.target_scale)
    rng = np.random.default_rng(config.align.seed + 7)
    tasks = []
    for m in sorted(gens):
        head = rng.standard_normal((config.align.embed_dim, 4)) / math.sqrt(
            config.align.embed_dim
        )
        tasks.append(DetectionTask(m, gens[m], vocab, encoder, targets, head))
    return tasks


def _finetune(encoder, tasks, steps, lr, mode, lam):
    """Gradient descent on sum of task losses (+ lam * centroid alignment),
    every primitive quantized under ``mode``."""
    heads = {t.modality: t.head.copy() for t in tasks}
    records = []
    first_nonfinite = None
    for step in range(steps):
        tp = DiffTape(mode)
        params = encoder.register(tp)
        head_tensors = {
            m: tp.parameter(heads[m], f"head.{m}") for m in sorted(heads)
        }
        task_losses = []
        feats = []
        for t in tasks:
            loss_t, feat_t = t.loss_and_feature(params, head_tensors[t.modality], tp)
            task_losses.append(loss_t)
            feats.append(feat_t)
        total = task_losses[0]
        for l in task_losses[1:]:
            total = T.add(total, l)
        if lam > 0:
            centroid = feats[0]
            for f in feats[1:]:
                centroid = T.add(centroid, f)
            centroid = T.mul(centroid, 1.0 / len(feats))
            align = None
            for f in feats:
                diff = T.add(f, T.mul(centroid, -1.0))
                term = T.mean(T.mul(diff, diff))
                align = term if align is None else T.add(align, term)
            align = T.mul(align, 1.0 / len(feats))
            total = T.add(total, T.mul(align, float(lam)))

        loss = float(total.data)
        per_task = tuple(float(l.data) for l in task_losses)
        if not np.isfinite(loss) or loss > DIVERGENCE_LOSS_LIMIT:
            records.append(RunRecord(step, loss, per_task, math.nan, 1.0))
            first_nonfinite = step
            break
        grads = tp.backward(total)
        gvec = np.concatenate([g.reshape(-1) for g in grads.values()])
        gnorm = float(np.linalg.norm(gvec))
        records.append(RunRecord(step, loss, per_task, gnorm, 1.0))
        if not np.isfinite(gnorm):
            first_nonfinite = step
            break
        for name in encoder.PARAM_NAMES:
            encoder.params[name] = encoder.params[name] - lr * grads[name]
        for m in heads:
            heads[m] = heads[m] - lr * grads[f"head.{m}"]

    if first_nonfinite is not None:
        verdict = "diverged"
    elif records and records[-1].loss <= records[0].loss:
        verdict = "converged"
    elif not records:
        verdict = "converged"
    else:
        verdict = "max-steps"
    return RunTrace(records, verdict, first_nonfinite)


def run_late_alignment(config):
    """Joint detection + lam * centroid-alignment training from random
    initialization."""
    mode = resolve_precision(config.precision)
    vocab, gens, _, encoder = P.build_world(config.align)
    tasks = build_detection_tasks(config, encoder, vocab, gens)
    return _finetune(encoder, tasks, config.steps, config.lr, mode, config.lam)


def run_two_stage(config):
    """Language-pivoted pretraining (exact precision), then detection-only
    fine-tuning under the configured precision."""
    mode = resolve_precision(config.precision)
    vocab, gens, _, _ = P.build_world(config.align)
    pre_cfg = P.AlignConfig(**{**config.align.__dict__, "steps": config.pretrain_steps})
    encoder, _ = P.pretrain_align(pre_cfg)
    tasks = build_detection_tasks(config, encoder, vocab, gens)
    return _finetune(encoder, tasks, config.steps, config.lr, mode, 0.0)


# -- gradient-coherence experiment (Prop. 3) ---------------------------------


def check_prop3_inputs(config, seeds):
    if len(config.align.modalities) < 2:
        raise ValueError("need at least 2 modalities for pairwise cosines")
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds")


def proposition3_experiment(config, seeds):
    """Mean pairwise detection-gradient cosine at random init vs after
    language-pivoted pretraining, per seed and averaged."""
    check_prop3_inputs(config, seeds)
    per_seed = []
    for seed in seeds:
        align = P.AlignConfig(**{**config.align.__dict__, "seed": int(seed)})
        cfg = RunConfig(
            align=align,
            steps=config.steps,
            lr=config.lr,
            precision="exact",
            pretrain_steps=config.pretrain_steps,
            target_scale=config.target_scale,
        )
        vocab, gens, _, encoder = P.build_world(align)
        tasks = build_detection_tasks(cfg, encoder, vocab, gens)
        pre = per_modality_gradients(encoder, tasks).mean_cosine()
        trained, _ = P.pretrain_align(
            P.AlignConfig(**{**align.__dict__, "steps": config.pretrain_steps})
        )
        tasks_post = build_detection_tasks(cfg, trained, vocab, gens)
        post = per_modality_gradients(trained, tasks_post).mean_cosine()
        per_seed.append({"seed": int(seed), "pre": pre, "post": post})
    return {
        "per_seed": per_seed,
        "pre_alignment_mean_cosine": float(np.mean([r["pre"] for r in per_seed])),
        "post_alignment_mean_cosine": float(np.mean([r["post"] for r in per_seed])),
    }


# -- reduced-precision stress harness ----------------------------------------


def amp_stress(configs, precisions, trace_dir=None):
    """Run each named config under each precision mode; returns table rows
    {config, precision, verdict, first_nonfinite_step, max_grad_norm} and
    optionally writes per-run trajectory CSVs."""
    rows = []
    for name, (runner, cfg) in configs.items():
        for prec in precisions:
            run_cfg = RunConfig(**{**cfg.__dict__, "precision": prec})
            trace = runner(run_cfg)
            finite_norms = [r.grad_norm for r in trace.records if np.isfinite(r.grad_norm)]
            rows.append(
                {
                    "config": name,
                    "precision": prec,
                    "verdict": trace.verdict,
                    "first_nonfinite_step": trace.first_nonfinite_step,
                    "max_grad_norm": max(finite_norms) if finite_norms else math.nan,
                }
            )
            if trace_dir is not None:
                trace.write_csv(f"{trace_dir}/trace_{name}_{prec}.csv")
    return rows
