import copy
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from babelkit import gradlab as G
from babelkit import pivot as P
from babelkit import tape as T
from babelkit.cli import bundled_path, main
from babelkit.tape import DiffTape


def antipodal_align(seed=0):
    return P.AlignConfig(antipodal_modalities=True, steps=0, seed=seed)


def kappa(spec, lam):
    """The condition number of H_det + lam * H_align: a one-lambda sweep."""
    return G.conditioning_sweep(spec, [lam])[0][1]


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


def copy_encoder(enc):
    """An encoder with ``enc``'s settings and its own copy of its parameters."""
    clone = copy.copy(enc)
    clone.params = {k: v.copy() for k, v in enc.params.items()}
    return clone


class TestGradientReport:
    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            dim = int(rng.integers(2, 20))
            rep = G.GradientReport.from_vectors(
                {f"m{i}": rng.standard_normal(dim) for i in range(k)}
            )
            lhs = rep.joint_norm_sq
            rhs = rep.sum_norm_sq + rep.cross_term
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_single_modality_no_cross_term(self):
        rep = G.GradientReport.from_vectors({"m": np.array([3.0, 4.0])})
        assert rep.cross_term == 0.0
        assert rep.joint_norm_sq == rep.sum_norm_sq == 25.0
        with pytest.raises(ValueError):
            rep.mean_cosine()

    def _encoder(self):
        return P.SharedEncoder(P.AlignConfig(), seed=0)

    def _direction_task(self, modality, entry_value):
        enc = self._encoder()
        directions = {}
        for name in enc.PARAM_NAMES:
            d = np.zeros_like(enc.params[name])
            directions[name] = d
        flat = directions["enc.b1"]
        flat[0] = entry_value[0]
        flat[1] = entry_value[1]
        return LinearTask(modality, directions)

    def test_axis_aligned_construction(self):
        enc = self._encoder()
        tasks = [self._direction_task("a", (1.0, 0.0)), self._direction_task("b", (0.0, 1.0))]
        rep = G.per_modality_gradients(enc, tasks)
        assert rep.cosines[("a", "b")] == pytest.approx(0.0, abs=1e-12)
        assert rep.joint_norm_sq == pytest.approx(2.0, abs=1e-12)

    def test_antipodal_construction(self):
        enc = self._encoder()
        tasks = [self._direction_task("a", (1.0, 0.0)), self._direction_task("b", (-1.0, 0.0))]
        rep = G.per_modality_gradients(enc, tasks)
        assert rep.cosines[("a", "b")] == pytest.approx(-1.0, abs=1e-12)
        assert rep.joint_norm_sq == pytest.approx(0.0, abs=1e-12)
        assert rep.sum_norm_sq == pytest.approx(2.0, abs=1e-12)

    def test_identical_generators_cosine_near_one(self):
        align = P.AlignConfig(steps=0)
        vocab, gens, _, encoder = P.build_world(align)
        shared = gens["sar"]
        targets = G.concept_targets(vocab, seed=0)
        head = np.random.default_rng(1).standard_normal((align.embed_dim, 4))
        tasks = [
            G.DetectionTask(m, shared, vocab, encoder, targets, head)
            for m in ("a", "b")
        ]
        rep = G.per_modality_gradients(encoder, tasks)
        assert rep.mean_cosine() > 0.99


class TestConditioning:
    def test_lambda_zero_is_hdet(self):
        spec = G.HessianSpec(np.diag([10.0, 1.0]), np.eye(2))
        assert kappa(spec, 0.0) == pytest.approx(10.0, rel=1e-9)

    def test_commuting_closed_form(self):
        # diag(10,1) + I: eigenvalues (11, 2) -> kappa 5.5
        spec = G.HessianSpec(np.diag([10.0, 1.0]), np.eye(2))
        assert kappa(spec, 1.0) == pytest.approx(5.5, rel=1e-9)
        for lam in (0.5, 2.0, 4.0):
            expect = (10.0 + lam) / (1.0 + lam)
            assert kappa(spec, lam) == pytest.approx(expect, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            G.HessianSpec(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
        with pytest.raises(ValueError, match="positive definite"):
            G.HessianSpec(np.diag([1.0, -1.0]), np.eye(2))
        spec = G.HessianSpec(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            G.conditioning_sweep(spec, [-0.1])

    def test_bundled_misaligned_sweep_increasing(self):
        spec = G.HessianSpec.build(
            6,
            [10.0, 5.0, 2.0, 1.0, 0.5, 0.2],
            [100.0, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3],
            math.radians(45.0),
            plane=(0, 5),
        )
        rows = G.conditioning_sweep(spec, [0.0, 0.5, 1.0, 2.0, 4.0])
        kappas = [r[1] for r in rows]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))

    def test_power_iteration_path_above_dim8(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((10, 10))
        h_det = a @ a.T + 0.5 * np.eye(10)
        spec = G.HessianSpec(h_det, np.eye(10))
        eigs = np.linalg.eigvalsh(h_det + 2.0 * np.eye(10))
        assert kappa(spec, 2.0) == pytest.approx(eigs[-1] / eigs[0], rel=1e-6)

    def test_dense_sweep_needs_no_power_iteration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("power iteration called at dim <= 8")

        monkeypatch.setattr(G, "power_iteration_extremes", refuse)
        spec = G.HessianSpec.build(
            6,
            [10.0, 5.0, 2.0, 1.0, 0.5, 0.2],
            [100.0, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3],
            math.radians(45.0),
            plane=(0, 5),
        )
        rows = G.conditioning_sweep(spec, [0.0, 1.0, 4.0])
        for lam, kappa, hi, lo in rows:
            eigs = np.linalg.eigvalsh(spec.h_det + lam * spec.h_align)
            assert (hi, lo) == (eigs[-1], eigs[0])
            assert kappa == hi / lo


class TestRuns:
    def _cfg(self, **overrides):
        base = dict(align=antipodal_align(), steps=10, lr=1e-3, lam=0.0,
                    precision="exact", target_scale=1.0)
        base.update(overrides)
        return G.RunConfig(**base)

    def test_lam0_tiny_lr_converges(self):
        trace = G.run_late_alignment(self._cfg())
        assert trace.verdict == "converged"
        losses = [r.loss for r in trace.records]
        assert losses[-1] <= losses[0]

    def test_late_lam0_equals_two_stage_zero_pretrain(self):
        cfg = self._cfg(steps=15)
        late = G.run_late_alignment(cfg)
        two = G.run_two_stage(G.RunConfig(**{**cfg.__dict__, "pretrain_steps": 0}))
        assert [r.loss for r in late.records] == [r.loss for r in two.records]
        assert [r.grad_norm for r in late.records] == [r.grad_norm for r in two.records]

    def test_traces_deterministic(self):
        cfg = self._cfg(lam=2.0, precision="fp16")
        t1 = G.run_late_alignment(cfg)
        t2 = G.run_late_alignment(cfg)
        assert [r.loss for r in t1.records] == [r.loss for r in t2.records]

    def test_divergence_verdict_records_step(self):
        trace = G.run_late_alignment(self._cfg(lr=10.0, steps=200, target_scale=4.0))
        assert trace.verdict == "diverged"
        assert trace.first_nonfinite_step is not None
        assert trace.first_nonfinite_step == trace.records[-1].step

    def test_fp16_overflow_names_first_nonfinite_op(self):
        # the bundled stability harness's late run overflows fp16 mid-run
        trace = G.run_late_alignment(self._cfg(
            steps=80, lr=0.06, lam=5000.0, precision="fp16", target_scale=4.0))
        assert trace.verdict == "diverged"
        assert not math.isfinite(trace.records[-1].loss)
        op, node = re.fullmatch(r"([a-z]+)#(\d+)", trace.first_nonfinite_op).groups()
        assert op in T._FORWARDS and int(node) > 0

    def test_stop_with_finite_forward_has_no_first_op(self, monkeypatch):
        # a loss over the divergence limit stops the run with every node finite
        monkeypatch.setattr(G, "DIVERGENCE_LOSS_LIMIT", -1.0)
        trace = G.run_late_alignment(self._cfg())
        assert trace.verdict == "diverged" and trace.first_nonfinite_step == 0
        assert math.isfinite(trace.records[0].loss)
        assert trace.first_nonfinite_op is None

    def test_finished_run_has_no_first_op(self):
        trace = G.run_late_alignment(self._cfg(precision="fp16"))
        assert trace.first_nonfinite_step is None and trace.first_nonfinite_op is None

    def test_unknown_precision(self):
        with pytest.raises(ValueError, match="precision"):
            G.resolve_precision("fp8")

    def test_run_config_from_dict(self):
        cfg = G.RunConfig.from_dict(
            {"align": {"seed": 3}, "steps": 7, "lr": 0.5, "lam": 1.0}
        )
        assert cfg.align.seed == 3 and cfg.steps == 7
        with pytest.raises(ValueError, match="unknown"):
            G.RunConfig.from_dict({"nope": 1})

    def test_trace_csv_row_count(self, tmp_path, capsys):
        # a short gradlab run whose stability base is self._cfg(steps=8)
        with open(bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["stability"] = {
            "base": {"align": {"antipodal_modalities": True, "seed": 0, "steps": 0},
                     "steps": 8, "lr": 1e-3, "lam": 0.0, "target_scale": 1.0},
            "precisions": ["exact"],
        }
        cfg["prop3"].update(pretrain_steps=2, seeds=[0, 1, 2])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["gradlab", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        trace = G.run_late_alignment(self._cfg(steps=8))
        lines = (out / "trace_late_exact.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss,grad_norm,alpha"
        assert len(lines) == 1 + len(trace.records) == 9
        assert lines[1:] == [
            f"{r.step},{r.loss!r},{r.grad_norm!r},{r.alpha!r}" for r in trace.records
        ]


def reference_finetune(encoder, tasks, steps, lr, mode, lam):
    """``G._finetune`` with the objective recorded afresh at every step: the
    oracle of its reruns."""
    heads = {t.modality: t.head.copy() for t in tasks}
    records = []
    first_nonfinite = None
    for step in range(steps):
        tp = DiffTape(mode)
        total = G._finetune_loss(tp, encoder, tasks, heads, lam)
        loss = float(total.data)
        if not np.isfinite(loss) or loss > G.DIVERGENCE_LOSS_LIMIT:
            records.append(G.RunRecord(step, loss, math.nan, 1.0))
            first_nonfinite = step
            break
        grads = tp.backward(total)
        gnorm = float(np.linalg.norm(np.concatenate([g.reshape(-1) for g in grads.values()])))
        records.append(G.RunRecord(step, loss, gnorm, 1.0))
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
            first_op = f"{found[1]}#{found[0]}"
    elif not records or records[-1].loss <= records[0].loss:
        verdict = "converged"
    else:
        verdict = "max-steps"
    return G.RunTrace(records, verdict, first_nonfinite, first_op)


def trace_key(trace):
    """Everything a RunTrace holds, with floats as their repr (NaN equals NaN)."""
    rows = [(r.step, repr(r.loss), repr(r.grad_norm), repr(r.alpha)) for r in trace.records]
    return rows, trace.verdict, trace.first_nonfinite_step, trace.first_nonfinite_op


class TestFinetuneRerun:
    @pytest.mark.parametrize("precision,steps,lam", [
        ("fp16", 80, 5000.0),  # the late route that overflows fp16 mid-run
        ("exact", 80, 5000.0),
        ("exact", 30, 0.0),
        ("fp16", 30, 0.0),
    ])
    def test_matches_per_step_recording(self, precision, steps, lam):
        cfg = G.RunConfig(align=antipodal_align(), steps=steps, lr=0.06, lam=lam,
                          precision=precision, target_scale=4.0)
        mode = G.resolve_precision(precision)
        encoder, tasks = G._fresh_tasks(cfg)
        got = G._finetune(copy_encoder(encoder), tasks, steps, cfg.lr, mode, lam)
        want = reference_finetune(copy_encoder(encoder), tasks, steps, cfg.lr, mode, lam)
        assert trace_key(got) == trace_key(want)
        if (precision, lam) == ("fp16", 5000.0):
            assert got.verdict == "diverged" and got.first_nonfinite_step > 0
            assert got.first_nonfinite_op is not None


class TestAmpStress:
    def test_table_shape_and_exact_column(self):
        base = G.RunConfig(align=antipodal_align(), steps=6, lr=1e-3, lam=2.0, pretrain_steps=2)
        rows = G.amp_stress(base, ["exact", "fp16"])
        assert [(route, prec) for route, prec, _ in rows] == [
            ("late", "exact"), ("late", "fp16"),
            ("late_lam0", "exact"), ("late_lam0", "fp16"),
            ("two_stage", "exact"), ("two_stage", "fp16"),
        ]
        runners = {
            "late": (G.run_late_alignment, base),
            "late_lam0": (G.run_late_alignment, replace(base, lam=0.0)),
            "two_stage": (G.run_two_stage, base),
        }
        for route, prec, trace in rows:
            runner, cfg = runners[route]
            run = runner(replace(cfg, precision=prec))
            assert len(trace.records) == 6
            assert trace.records == run.records
            assert trace.verdict == run.verdict
        late_exact = rows[0][2]
        assert late_exact.verdict == "converged"
        assert late_exact.max_grad_norm == max(r.grad_norm for r in late_exact.records)

    def test_max_grad_norm_skips_non_finite_norms(self):
        records = [G.RunRecord(0, 1.0, 2.0, 1.0), G.RunRecord(1, math.inf, math.nan, 1.0)]
        assert G.RunTrace(records, "diverged", 1).max_grad_norm == 2.0
        assert math.isnan(G.RunTrace(records[1:], "diverged", 0).max_grad_norm)


class TestProposition3:
    def test_precondition_errors(self):
        single = G.RunConfig(align=P.AlignConfig(modalities=("one",), steps=0))
        with pytest.raises(ValueError, match="2 modalities"):
            G.proposition3_experiment(single, [0, 1, 2])
        ok = G.RunConfig(align=P.AlignConfig(steps=0))
        with pytest.raises(ValueError, match="3 seeds"):
            G.proposition3_experiment(ok, [0, 1])

    def test_mean_improves(self):
        cfg = G.RunConfig(align=P.AlignConfig(steps=0), pretrain_steps=400, lr=0.05)
        res = G.proposition3_experiment(cfg, [0, 1, 3])
        assert res["post_alignment_mean_cosine"] > res["pre_alignment_mean_cosine"]
        assert len(res["per_seed"]) == 3

    def test_lr_zero_leaves_encoder_untrained(self):
        # lr is the pretraining learning rate: at 0 the encoder never moves
        cfg = G.RunConfig(align=P.AlignConfig(steps=0), pretrain_steps=20, lr=0.0)
        res = G.proposition3_experiment(cfg, [0, 1, 2])
        assert all(r["post"] == r["pre"] for r in res["per_seed"])


class TestProposition1Variance:
    def test_alternating_minibatch_variance_exceeds_control(self):
        # Antipodal two-modality world: batch-size-1 steps that alternate
        # modalities swing between conflicting directions, so the empirical
        # variance of the normalized update direction over 100 steps is
        # strictly larger than the single-modality control.
        align = antipodal_align()
        vocab, gens, _, encoder = P.build_world(align)
        cfg = G.RunConfig(align=align, lr=1e-3)
        tasks = G.build_detection_tasks(cfg, encoder, vocab, gens)

        def collect(enc, schedule):
            enc = copy_encoder(enc)
            steps = []
            for t in range(100):
                task = tasks[schedule(t)]
                rep = G.per_modality_gradients(enc, [task])
                g = rep.gradients[task.modality]
                steps.append(g / np.linalg.norm(g))
                flat = G.flatten_named(
                    {n: enc.params[n] for n in enc.PARAM_NAMES}, enc.PARAM_NAMES
                )
                flat = flat - cfg.lr * g
                offset = 0
                for n in enc.PARAM_NAMES:
                    size = enc.params[n].size
                    enc.params[n] = flat[offset:offset + size].reshape(enc.params[n].shape)
                    offset += size
            return float(np.var(np.stack(steps), axis=0).sum())

        alternating = collect(encoder, lambda t: t % 2)
        control = collect(encoder, lambda t: 0)
        assert alternating > control


class TestDetectionTask:
    def test_batched_loss_matches_per_image_loop(self):
        # reference: the per-image loss, mean over concepts of each
        # image's mean squared error, and the mean of the image features
        align = P.AlignConfig(concepts=("ship", "bridge", "port"), steps=0)
        vocab, gens, _, encoder = P.build_world(align)
        targets = G.concept_targets(vocab, seed=0)
        task = G.build_detection_tasks(G.RunConfig(align=align), encoder, vocab, gens)[0]
        losses, feats = [], []
        for c in vocab.concepts:
            x = gens[task.modality].generate_sample(vocab, c).image
            f = encoder.encode(encoder.params, x[None, :], 1.0).data[0].mean(axis=0)
            losses.append(np.mean((f @ task.head - targets[c]) ** 2))
            feats.append(f)
        tp = DiffTape()
        loss, feat = task.loss_and_feature(encoder.register(tp), tp.constant(task.head), tp)
        assert float(loss.data) == pytest.approx(np.mean(losses), rel=1e-12)
        np.testing.assert_allclose(feat.data, np.mean(feats, axis=0, keepdims=True), rtol=1e-12)


class TestTaskConstruction:
    def test_concept_targets_deterministic_and_finite(self):
        vocab = P.ConceptVocabulary.build(["a", "b"], latent_dim=4)
        t1 = G.concept_targets(vocab, seed=0, scale=2.0)
        t2 = G.concept_targets(vocab, seed=0, scale=2.0)
        for c in vocab.concepts:
            np.testing.assert_array_equal(t1[c], t2[c])
            assert np.all(np.isfinite(t1[c]))

    def test_tasks_sorted_by_modality(self):
        align = P.AlignConfig(steps=0)
        vocab, gens, _, encoder = P.build_world(align)
        tasks = G.build_detection_tasks(G.RunConfig(align=align), encoder, vocab, gens)
        assert [t.modality for t in tasks] == sorted(gens)

    def test_empty_tasks_rejected(self):
        align = P.AlignConfig(steps=0)
        _, _, _, encoder = P.build_world(align)
        with pytest.raises(ValueError):
            G.per_modality_gradients(encoder, [])
