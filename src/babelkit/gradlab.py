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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from babelkit import pivot as P
from babelkit import tape as T
from babelkit.checks import (
    NumericalError, config_field, config_int, config_keys, config_list, config_number,
)
from babelkit.checks import power_iteration_extremes
from babelkit.precision import EXACT, FP16
from babelkit.tape import DiffTape

DIVERGENCE_LOSS_LIMIT = 1e12

PRECISION_MODES = {"exact": EXACT, "fp16": FP16}


def resolve_precision(spec):
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


class DetectionTask:
    """Per-modality toy detection: linear head on the mean visual token,
    squared-error loss against concept-dependent box targets.

    The dataset is one image per concept, stacked once as a (C, image_dim)
    batch with its (C, 4) box targets."""

    def __init__(self, modality, generator, vocab, encoder, targets, head):
        if not vocab.concepts:
            raise ValueError("task dataset is empty")
        self.modality = modality
        self.encoder = encoder
        self.head = np.asarray(head, dtype=np.float64)  # (embed_dim, 4)
        images, boxes = [], []
        for c in vocab.concepts:
            s = generator.generate_sample(vocab, c, rng_seed=0)
            y = np.asarray(targets[c], dtype=np.float64).reshape(4)
            if not np.all(np.isfinite(y)):
                raise ValueError(f"non-finite target for concept {c!r}")
            images.append(s.image)
            boxes.append(y)
        self.images = np.stack(images)  # (C, image_dim)
        self.targets = np.stack(boxes)  # (C, 4)

    def loss_and_feature(self, params, head_tensor, tp):
        """(scalar loss, (1, embed_dim) mean feature tensor) for the full
        dataset: the loss is mean((f @ head - Y)^2) over the (C, 4) block,
        f the (C, embed_dim) mean visual tokens."""
        z = self.encoder.encode(params, self.images, 1.0)
        f = T.mean(z, axis=1)  # (C, embed_dim)
        err = T.add(T.matmul(f, head_tensor), T.mul(tp.constant(self.targets), -1.0))
        return T.mean(T.mul(err, err)), T.mean(f, axis=0, keepdims=True)

    def loss(self, params, tp):
        head_t = tp.constant(self.head)
        loss, _ = self.loss_and_feature(params, head_t, tp)
        return loss


def per_modality_gradients(encoder, tasks):
    """Full-batch detection gradients per modality over the shared encoder
    parameters, with the norm-decomposition report."""
    if not tasks:
        raise ValueError("tasks must be non-empty")
    grads = {}
    for task in tasks:
        tp = DiffTape()
        params = encoder.register(tp)
        loss = task.loss(params, tp)
        g = tp.backward(loss)
        vec = flatten_named(g, encoder.PARAM_NAMES)
        if not np.all(np.isfinite(vec)):
            raise NumericalError(f"non-finite gradient for modality {task.modality!r}")
        grads[task.modality] = vec
    return GradientReport.from_vectors(grads)


# -- Hessian conditioning lab ------------------------------------------------


def _rotation(dim, angle, plane):
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
        config_int("hessian dim", dim, 1)
        for name, value in (("det_eigs", det_eigs), ("align_eigs", align_eigs), ("plane", plane)):
            config_list(f"hessian {name}", value)
        for eig in (*det_eigs, *align_eigs):
            config_number("hessian eigenvalue", eig)
        det_eigs = np.asarray(det_eigs, dtype=np.float64)
        align_eigs = np.asarray(align_eigs, dtype=np.float64)
        if det_eigs.shape != (dim,) or align_eigs.shape != (dim,):
            raise ValueError("need one eigenvalue per dimension for both matrices")
        plane = tuple(plane)
        if len(plane) != 2 or plane[0] == plane[1]:
            raise ValueError(f"plane must be two distinct axes, got {list(plane)}")
        for axis in plane:
            config_int("plane axis", axis, 0, dim)
        r = _rotation(dim, angle, plane)
        return cls(np.diag(det_eigs), r @ np.diag(align_eigs) @ r.T)

    @property
    def dim(self):
        return self.h_det.shape[0]


def _extremes(spec, lam):
    """(lambda_max, lambda_min) of H_det + lam * H_align: one dense
    eigensolve for dim <= 8, power iteration above."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    h = spec.h_det + lam * spec.h_align
    if spec.dim > 8:
        return power_iteration_extremes(lambda v: h @ v, spec.dim, iters=200000, tol=1e-12)
    eigs = np.linalg.eigvalsh(h)
    assert eigs[0] > 0, "SPD sum has non-positive eigenvalue"
    return float(eigs[-1]), float(eigs[0])


def conditioning_sweep(spec, lambdas):
    """Rows (lambda, kappa, lambda_max, lambda_min) over a lambda grid."""
    rows = []
    for lam in lambdas:
        hi, lo = _extremes(spec, lam)
        rows.append((float(lam), hi / lo, hi, lo))
    return rows


# -- training runs -----------------------------------------------------------


@dataclass
class RunRecord:
    step: int
    loss: float
    grad_norm: float
    alpha: float


@dataclass
class RunTrace:
    records: list
    verdict: str  # converged | diverged | max-steps
    first_nonfinite_step: object = None  # int or None
    # "<op>#<node id>" of the first non-finite tape node at the step the run
    # stopped, or None (no stop, or a stop with a finite forward)
    first_nonfinite_op: object = None

    @property
    def max_grad_norm(self):
        """The largest finite gradient norm of the run, NaN if it has none."""
        finite_norms = [r.grad_norm for r in self.records if np.isfinite(r.grad_norm)]
        return max(finite_norms) if finite_norms else math.nan


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

    def __post_init__(self):
        config_int("steps", self.steps, 0)
        config_int("pretrain_steps", self.pretrain_steps, 0)
        config_number("lr", self.lr)
        config_number("lam", self.lam, 0)
        config_number("target_scale", self.target_scale)
        resolve_precision(self.precision)

    @classmethod
    def from_dict(cls, obj):
        config_keys("run config", obj, cls.__dataclass_fields__)
        obj = dict(obj)
        if "align" in obj:
            obj["align"] = P.AlignConfig.from_dict(obj["align"])
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


def _fresh_tasks(config):
    """(encoder, detection tasks) of a freshly built world for RunConfig ``config``."""
    vocab, gens, _, encoder = P.build_world(config.align)
    return encoder, build_detection_tasks(config, encoder, vocab, gens)


def _finetune_loss(tp, encoder, tasks, heads, lam):
    """The fine-tuning objective recorded on ``tp``: the encoder and the
    heads are its parameters."""
    params = encoder.register(tp)
    head_tensors = {m: tp.parameter(heads[m], f"head.{m}") for m in sorted(heads)}
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
    return total


def _finetune(encoder, tasks, steps, lr, mode, lam):
    """Gradient descent on sum of task losses (+ lam * centroid alignment),
    every primitive quantized under ``mode``. The first step records the
    objective; every later step reruns that tape with new parameters."""
    heads = {t.modality: t.head.copy() for t in tasks}
    records = []
    first_nonfinite = None
    tp = None
    for step in range(steps):
        if tp is None:
            tp = DiffTape(mode)
            total = _finetune_loss(tp, encoder, tasks, heads, lam)
        else:
            tp.rerun({**encoder.params, **{f"head.{m}": h for m, h in heads.items()}})
        loss = float(tp.value(total))
        if not np.isfinite(loss) or loss > DIVERGENCE_LOSS_LIMIT:
            records.append(RunRecord(step, loss, math.nan, 1.0))
            first_nonfinite = step
            break
        grads = tp.backward(total)
        gvec = np.concatenate([g.reshape(-1) for g in grads.values()])
        gnorm = float(np.linalg.norm(gvec))
        records.append(RunRecord(step, loss, gnorm, 1.0))
        if not np.isfinite(gnorm):
            first_nonfinite = step
            break
        for name in encoder.PARAM_NAMES:
            encoder.params[name] = encoder.params[name] - lr * grads[name]
        for m in heads:
            heads[m] = heads[m] - lr * grads[f"head.{m}"]

    first_op = None
    if first_nonfinite is not None:
        verdict = "diverged"
        found = tp.first_nonfinite()
        if found is not None:
            node_id, op = found
            first_op = f"{op}#{node_id}"
    elif not records or records[-1].loss <= records[0].loss:
        verdict = "converged"
    else:
        verdict = "max-steps"
    return RunTrace(records, verdict, first_nonfinite, first_op)


def run_late_alignment(config):
    """Joint detection + lam * centroid-alignment training from random
    initialization."""
    mode = resolve_precision(config.precision)
    encoder, tasks = _fresh_tasks(config)
    return _finetune(encoder, tasks, config.steps, config.lr, mode, config.lam)


def run_two_stage(config):
    """Language-pivoted pretraining (exact precision), then detection-only
    fine-tuning under the configured precision."""
    mode = resolve_precision(config.precision)
    encoder, tasks = _fresh_tasks(config)
    P.pretrain_align(replace(config.align, steps=config.pretrain_steps), encoder=encoder)
    return _finetune(encoder, tasks, config.steps, config.lr, mode, 0.0)


def gradient_report(align):
    """per_modality_gradients of the freshly built world of AlignConfig ``align``."""
    return per_modality_gradients(*_fresh_tasks(RunConfig(align=align)))


# -- gradient-coherence experiment (Prop. 3) ---------------------------------


def check_prop3_inputs(config, seeds):
    if len(config.align.modalities) < 2:
        raise ValueError("need at least 2 modalities for pairwise cosines")
    P.check_pretrain_inputs(config.align)
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds")
    for seed in seeds:
        config_int("prop3 seed", seed, 0)
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"prop3 seeds must be distinct, got {list(seeds)}")


def proposition3_experiment(config, seeds):
    """Mean pairwise detection-gradient cosine at random init vs after
    language-pivoted pretraining (config.pretrain_steps steps at learning
    rate config.lr), per seed and averaged."""
    check_prop3_inputs(config, seeds)
    per_seed = []
    for seed in seeds:
        align = replace(config.align, seed=int(seed))
        encoder, tasks = _fresh_tasks(replace(config, align=align))
        pre = per_modality_gradients(encoder, tasks).mean_cosine()
        P.pretrain_align(
            replace(align, steps=config.pretrain_steps, lr=config.lr), encoder=encoder
        )
        post = per_modality_gradients(encoder, tasks).mean_cosine()
        per_seed.append({"seed": int(seed), "pre": pre, "post": post})
    return {
        "per_seed": per_seed,
        "pre_alignment_mean_cosine": float(np.mean([r["pre"] for r in per_seed])),
        "post_alignment_mean_cosine": float(np.mean([r["post"] for r in per_seed])),
    }


# -- reduced-precision stress harness ----------------------------------------


def amp_stress(base, precisions):
    """The stability harness's routes from the RunConfig ``base``: ``late``,
    ``late_lam0`` (``base`` with lam = 0) and ``two_stage``, each under every
    mode in ``precisions``; (route, precision, RunTrace) rows in that order."""
    routes = (
        ("late", run_late_alignment, base),
        ("late_lam0", run_late_alignment, replace(base, lam=0.0)),
        ("two_stage", run_two_stage, base),
    )
    return [
        (name, prec, runner(replace(cfg, precision=prec)))
        for name, runner, cfg in routes
        for prec in precisions
    ]


# -- the gradlab config ------------------------------------------------------


@dataclass
class LabConfig:
    """A checked gradlab config: the conditioning sweep's Hessian pair and
    lambda grid, the stability harness's base run and precision modes,
    Prop. 3's run and seeds, and the world of the gradient report."""

    hessian: HessianSpec
    lambdas: list
    base: RunConfig
    precisions: list
    prop3: RunConfig
    prop3_seeds: list
    report_align: P.AlignConfig

    @classmethod
    def from_dict(cls, obj):
        """Every check, before any work: ValueError or TypeError on a bad field."""
        config_keys(
            "gradlab config", obj, ("hessian", "lambdas", "stability", "prop3", "gradient_report")
        )
        h = config_field("gradlab config", obj, "hessian")
        config_keys("hessian", h, ("dim", "det_eigs", "align_eigs", "angle_degrees", "plane"))
        angle = config_field("hessian", h, "angle_degrees")
        config_number("hessian angle_degrees", angle)
        hessian = HessianSpec.build(
            *(config_field("hessian", h, key) for key in ("dim", "det_eigs", "align_eigs")),
            math.radians(angle),
            h.get("plane", (0, 1)),
        )
        lambdas = config_field("gradlab config", obj, "lambdas")
        config_list("lambdas", lambdas)
        for lam in lambdas:
            config_number("lambda", lam, 0)
        stability = config_field("gradlab config", obj, "stability")
        config_keys("stability", stability, ("base", "precisions"))
        base = RunConfig.from_dict(config_field("stability", stability, "base"))
        P.check_pretrain_inputs(base.align)  # the two-stage runs pretrain it
        precisions = config_field("stability", stability, "precisions")
        config_list("stability precisions", precisions)
        for p in precisions:
            resolve_precision(p)
        prop3 = config_field("gradlab config", obj, "prop3")
        config_keys("prop3", prop3, ("align", "pretrain_steps", "lr", "seeds"))
        p3_run = RunConfig(
            align=P.AlignConfig.from_dict(config_field("prop3", prop3, "align")),
            pretrain_steps=config_field("prop3", prop3, "pretrain_steps"),
            lr=config_field("prop3", prop3, "lr"),
        )
        p3_seeds = config_field("prop3", prop3, "seeds")
        config_list("prop3 seeds", p3_seeds)
        check_prop3_inputs(p3_run, p3_seeds)
        report = config_field("gradlab config", obj, "gradient_report")
        config_keys("gradient_report", report, ("align",))
        report_align = P.AlignConfig.from_dict(config_field("gradient_report", report, "align"))
        return cls(hessian, lambdas, base, precisions, p3_run, p3_seeds, report_align)
