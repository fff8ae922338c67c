"""Command-line surface for the toolkit.

Subcommands: eval, hmap, align, gradlab, sample. Exit codes: 0 success,
2 input/config error, 3 numerical failure. Every run writes a manifest
(JSON, atomically) recording command, config, seed, version, and outputs,
so runs are reproducible byte-for-byte from the manifest alone.
"""

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from babelkit import __version__
from babelkit import deteval, deteval_io, gradlab
from babelkit import pivot as P
from babelkit import sampler as S

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


@dataclass
class RunManifest:
    command: str
    config: object
    seed: object
    version: str = __version__
    outputs: list = field(default_factory=list)
    duration_s: float = 0.0

    def write(self, path):
        """Atomic write: temp file in the target directory, then rename."""
        payload = {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "outputs": sorted(self.outputs),
            "duration_s": self.duration_s,
        }
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    """A config file; NaN, Infinity and numbers that overflow to inf are
    config errors (ValueError), not values to train with."""

    def finite(text):
        v = float(text)
        if not math.isfinite(v):
            raise ValueError(f"{path}: non-finite number {text}")
        return v

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_float=finite, parse_constant=finite)


def bundled_path(name):
    return os.path.join(os.path.dirname(__file__), name)


# -- eval ---------------------------------------------------------------------


def cmd_eval(args):
    t0 = time.time()
    try:
        registry = deteval_io.load_registry(args.registry)
        gts = deteval_io.load_ground_truth(args.gt)
        dets = deteval_io.load_detections(args.det)
        report = deteval.evaluate(dets, gts, registry, ap_mode=args.ap_mode)
    except (deteval_io.RecordError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "report.json")
    csv_path = os.path.join(args.out, "report.csv")
    _write_json(json_path, report.to_dict())
    _write_csv(csv_path, report.csv_rows(registry))
    print(report.summary_line())
    manifest = RunManifest(
        command="eval",
        config={"gt": args.gt, "det": args.det, "registry": args.registry,
                "ap_mode": args.ap_mode},
        seed=None,
        outputs=[json_path, csv_path],
        duration_s=time.time() - t0,
    )
    manifest.write(os.path.join(args.out, "manifest.json"))
    return EXIT_OK


# -- hmap ---------------------------------------------------------------------


def cmd_hmap(args):
    try:
        values = [float(v) for v in args.values]
        h = deteval.harmonic_modality_map(values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"{h:.2f}")
    return EXIT_OK


# -- align --------------------------------------------------------------------


def cmd_align(args):
    t0 = time.time()
    try:
        cfg_path = args.config or bundled_path("configs/align_default.json")
        obj = _load_json(cfg_path)
        if args.seed is not None:
            obj["seed"] = args.seed
        config = P.AlignConfig.from_dict(obj)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    os.makedirs(args.out, exist_ok=True)

    vocab, gens, pivot, encoder = P.build_world(config)
    pre = P.consistency_report(encoder, pivot, vocab, gens)
    try:
        encoder, trace = P.pretrain_align(config, encoder=encoder)
    except P.NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    post = P.consistency_report(encoder, pivot, vocab, gens)

    trace_path = os.path.join(args.out, "trace.csv")
    ckpt_path = os.path.join(args.out, "checkpoint.npz")
    cons_path = os.path.join(args.out, "consistency.json")
    _write_csv(
        trace_path,
        [("step", "loss", "alpha")] + [(s, repr(l), repr(a)) for s, l, a in trace],
    )
    np.savez(ckpt_path, **encoder.state_arrays())
    _write_json(cons_path, {"pre": pre, "post": post})
    final = trace[-1][1] if trace else math.nan
    print(f"steps={len(trace)} final_loss={final:.6f}")
    for c in vocab.concepts:
        print(f"consistency[{c}]: pre={pre[c]:.6f} post={post[c]:.6f}")
    manifest = RunManifest(
        command="align",
        config=obj,
        seed=config.seed,
        outputs=[trace_path, ckpt_path, cons_path],
        duration_s=time.time() - t0,
    )
    manifest.write(os.path.join(args.out, "manifest.json"))
    return EXIT_OK


# -- gradlab ------------------------------------------------------------------


def cmd_gradlab(args):
    t0 = time.time()
    try:
        cfg_path = args.config or bundled_path("configs/gradlab_default.json")
        obj = _load_json(cfg_path)
        h = obj["hessian"]
        spec = gradlab.HessianSpec.build(
            int(h["dim"]),
            h["det_eigs"],
            h["align_eigs"],
            math.radians(float(h["angle_degrees"])),
            tuple(h.get("plane", (0, 1))),
        )
        lambdas = [float(x) for x in obj["lambdas"]]
        stability = obj["stability"]
        base = gradlab.RunConfig.from_dict(stability["base"])
        precisions = list(stability["precisions"])
        for p in precisions:
            gradlab.resolve_precision(p)
        prop3 = obj["prop3"]
        p3_run = gradlab.RunConfig(
            align=P.AlignConfig.from_dict(prop3["align"]),
            pretrain_steps=int(prop3["pretrain_steps"]),
            lr=float(prop3["lr"]),
        )
        p3_seeds = [int(s) for s in prop3["seeds"]]
        gradlab.check_prop3_inputs(p3_run, p3_seeds)
        report_align = P.AlignConfig.from_dict(obj["gradient_report"]["align"])
    except (KeyError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    os.makedirs(args.out, exist_ok=True)
    outputs = []

    sweep = gradlab.conditioning_sweep(spec, lambdas)
    sweep_path = os.path.join(args.out, "conditioning_sweep.csv")
    _write_csv(
        sweep_path,
        [("lambda", "kappa", "lambda_max", "lambda_min")]
        + [tuple(repr(v) for v in row) for row in sweep],
    )
    outputs.append(sweep_path)

    lam0 = gradlab.RunConfig(**{**base.__dict__, "lam": 0.0})
    runs = {
        "late": (gradlab.run_late_alignment, base),
        "late_lam0": (gradlab.run_late_alignment, lam0),
        "two_stage": (gradlab.run_two_stage, base),
    }
    rows = gradlab.amp_stress(runs, precisions, trace_dir=args.out)
    table_path = os.path.join(args.out, "stability_table.csv")
    _write_csv(
        table_path,
        [("config", "precision", "verdict", "first_nonfinite_step", "max_grad_norm")]
        + [
            (r["config"], r["precision"], r["verdict"],
             "" if r["first_nonfinite_step"] is None else r["first_nonfinite_step"],
             repr(r["max_grad_norm"]))
            for r in rows
        ],
    )
    outputs.append(table_path)
    outputs += [
        os.path.join(args.out, f"trace_{name}_{prec}.csv")
        for name in runs
        for prec in precisions
    ]

    vocab, gens, _, encoder = P.build_world(report_align)
    report_cfg = gradlab.RunConfig(align=report_align)
    tasks = gradlab.build_detection_tasks(report_cfg, encoder, vocab, gens)
    grad_report = gradlab.per_modality_gradients(encoder, tasks)
    grad_path = os.path.join(args.out, "gradient_report.json")
    _write_json(grad_path, grad_report.to_dict())
    outputs.append(grad_path)

    p3 = gradlab.proposition3_experiment(p3_run, p3_seeds)
    p3_path = os.path.join(args.out, "prop3.json")
    _write_json(p3_path, p3)
    outputs.append(p3_path)

    for r in rows:
        step = r["first_nonfinite_step"]
        print(f"{r['config']}/{r['precision']}: {r['verdict']}"
              + (f" (first non-finite step {step})" if step is not None else ""))
    print(
        f"prop3: pre={p3['pre_alignment_mean_cosine']:.4f} "
        f"post={p3['post_alignment_mean_cosine']:.4f}"
    )
    manifest = RunManifest(
        command="gradlab",
        config=obj,
        seed=base.align.seed,
        outputs=outputs,
        duration_s=time.time() - t0,
    )
    manifest.write(os.path.join(args.out, "manifest.json"))
    return EXIT_OK


# -- sample -------------------------------------------------------------------


def cmd_sample(args):
    t0 = time.time()
    try:
        recipe_path = args.recipe or bundled_path("recipes/babelrs_table1.json")
        recipe = S.MixtureRecipe.load(recipe_path)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    seed = args.seed if args.seed is not None else recipe.seed
    draws = S.draw_epoch(recipe, seed)
    _write_csv(
        args.out,
        [("position", "dataset", "index")]
        + [(i, name, idx) for i, (name, idx) in enumerate(draws)],
    )
    counts = {e.name: 0 for e in recipe.entries}
    for name, _ in draws:
        counts[name] += 1
    expected = S.expected_counts(recipe)
    for e in recipe.entries:
        print(f"{e.name}: expected={expected[e.name]:.1f} drawn={counts[e.name]}")
    manifest = RunManifest(
        command="sample",
        config={"recipe": recipe_path},
        seed=seed,
        outputs=[args.out],
        duration_s=time.time() - t0,
    )
    manifest.write(args.out + ".manifest.json")
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="babelkit",
        description="Detection evaluation, alignment training, and optimization labs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate detections against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth JSONL")
    p.add_argument("--det", required=True, help="detections JSONL")
    p.add_argument("--registry", required=True, help="modality registry JSON")
    p.add_argument("--ap-mode", choices=("all-points", "101pt"), default="all-points")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("hmap", help="harmonic mean of per-modality mAPs")
    p.add_argument("values", nargs="+", help="per-modality mAP values")
    p.set_defaults(func=cmd_hmap)

    p = sub.add_parser("align", help="language-pivoted alignment pretraining")
    p.add_argument("--config", help="config JSON (default: bundled)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("gradlab", help="optimization-analysis experiments")
    p.add_argument("--config", help="config JSON (default: bundled)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gradlab)

    p = sub.add_parser("sample", help="draw one epoch from a mixture recipe")
    p.add_argument("--recipe", help="recipe JSON (default: bundled)")
    p.add_argument("--seed", type=int, help="epoch seed (default: recipe seed)")
    p.add_argument("--out", required=True, help="manifest CSV path")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
