"""Command-line surface for the toolkit.

Subcommands: eval, hmap, align, gradlab, sample. Exit codes: 0 success,
2 input/config error, 3 numerical failure. Every run writes a manifest
(JSON, atomically) recording command, config, seed, version, and outputs,
so runs are reproducible byte-for-byte from the manifest alone.

Each subcommand's load and run import the modules they use, so a run
imports (and, without cached bytecode, compiles) only its own.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from babelkit import __version__
from babelkit import checks

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
        payload = {**asdict(self), "outputs": sorted(self.outputs)}
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


def _write_csv(path, rows, lines=()):
    """``rows`` through ``csv.writer``, then ``lines``: blocks of text
    already formatted as CSV records, written as they are."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
        fh.writelines(lines)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def bundled_path(name):
    return os.path.join(os.path.dirname(__file__), name)


# -- eval ---------------------------------------------------------------------


def load_eval(args):
    """Evaluating is the check that every category is registered."""
    from babelkit import deteval, deteval_io

    registry = deteval_io.load_registry(args.registry)
    gts = deteval_io.load_ground_truth(args.gt)
    if not len(gts):
        # scored, every category would read AP 1.0 or 0.0 whatever the detections
        raise ValueError(f"{args.gt}: no ground-truth records")
    dets = deteval_io.load_detections(args.det)
    report = deteval.evaluate(dets, gts, registry, ap_mode=args.ap_mode)
    os.makedirs(args.out, exist_ok=True)
    return registry, report


def run_eval(args, loaded):
    registry, report = loaded
    json_path = os.path.join(args.out, "report.json")
    csv_path = os.path.join(args.out, "report.csv")
    _write_json(json_path, report.to_dict())
    _write_csv(csv_path, report.csv_rows(registry))
    print(report.summary_line())
    return os.path.join(args.out, "manifest.json"), RunManifest(
        command="eval",
        config={"gt": args.gt, "det": args.det, "registry": args.registry,
                "ap_mode": args.ap_mode},
        seed=None,
        outputs=[json_path, csv_path],
    )


# -- hmap ---------------------------------------------------------------------


def load_hmap(args):
    from babelkit import deteval

    return deteval.harmonic_modality_map([float(v) for v in args.values])


def run_hmap(args, h):
    print(f"{h:.2f}")


# -- align --------------------------------------------------------------------


def load_align(args):
    from babelkit import pivot as P

    obj = checks.load_config(args.config or bundled_path("configs/align_default.json"))
    checks.config_keys("config", obj, P.AlignConfig.__dataclass_fields__)
    if args.seed is not None:
        obj["seed"] = args.seed
    config = P.AlignConfig.from_dict(obj)
    P.check_pretrain_inputs(config)
    os.makedirs(args.out, exist_ok=True)
    return obj, config


def run_align(args, loaded):
    from babelkit import pivot as P

    obj, config = loaded
    vocab, gens, pivot, encoder = P.build_world(config)
    pre = P.consistency_report(encoder, pivot, vocab, gens)
    encoder, trace = P.pretrain_align(config, encoder=encoder)
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
    return os.path.join(args.out, "manifest.json"), RunManifest(
        command="align",
        config=obj,
        seed=config.seed,
        outputs=[trace_path, ckpt_path, cons_path],
    )


# -- gradlab ------------------------------------------------------------------


def load_gradlab(args):
    from babelkit import gradlab

    obj = checks.load_config(args.config or bundled_path("configs/gradlab_default.json"))
    lab = gradlab.LabConfig.from_dict(obj)
    os.makedirs(args.out, exist_ok=True)
    return obj, lab


def run_gradlab(args, loaded):
    from babelkit import gradlab

    obj, lab = loaded
    sweep = gradlab.conditioning_sweep(lab.hessian, lab.lambdas)
    stress = gradlab.amp_stress(lab.base, lab.precisions)
    grad_report = gradlab.gradient_report(lab.report_align)
    p3 = gradlab.proposition3_experiment(lab.prop3, lab.prop3_seeds)

    outputs = []

    def output(name):
        outputs.append(os.path.join(args.out, name))
        return outputs[-1]

    _write_csv(
        output("conditioning_sweep.csv"),
        [("lambda", "kappa", "lambda_max", "lambda_min")]
        + [tuple(repr(v) for v in row) for row in sweep],
    )
    for route, prec, trace in stress:
        _write_csv(
            output(f"trace_{route}_{prec}.csv"),
            [("step", "loss", "grad_norm", "alpha")]
            + [(t.step, repr(t.loss), repr(t.grad_norm), repr(t.alpha)) for t in trace.records],
        )
    _write_csv(
        output("stability_table.csv"),
        [("config", "precision", "verdict", "first_nonfinite_step", "max_grad_norm",
          "first_nonfinite_op")]
        + [
            (route, prec, trace.verdict,
             "" if trace.first_nonfinite_step is None else trace.first_nonfinite_step,
             repr(trace.max_grad_norm),
             "" if trace.first_nonfinite_op is None else trace.first_nonfinite_op)
            for route, prec, trace in stress
        ],
    )
    _write_json(output("gradient_report.json"), grad_report.to_dict())
    _write_json(output("prop3.json"), p3)

    for route, prec, trace in stress:
        step = trace.first_nonfinite_step
        print(f"{route}/{prec}: {trace.verdict}"
              + (f" (first non-finite step {step})" if step is not None else ""))
    print(
        f"prop3: pre={p3['pre_alignment_mean_cosine']:.4f} "
        f"post={p3['post_alignment_mean_cosine']:.4f}"
    )
    return os.path.join(args.out, "manifest.json"), RunManifest(
        command="gradlab",
        config=obj,
        seed=lab.base.align.seed,
        outputs=outputs,
    )


# -- sample -------------------------------------------------------------------


def _epoch_lines(names, dataset, index, chunk=4096):
    """The epoch's CSV records ``position,dataset,index``, byte for byte as
    ``csv.writer`` writes them, in blocks of ``chunk`` rows (small blocks
    write as fast as large ones and add under 1 MB to the peak RSS).

    Each name is quoted once, by ``csv.writer`` itself, as the middle field
    of a row between two integers; positions and indices are integers,
    which the dialect never quotes.
    """
    quoted = []
    for name in names:
        buf = io.StringIO()
        csv.writer(buf).writerow((0, name, 0))
        quoted.append(buf.getvalue()[2:-4])  # strip "0," and ",0\r\n"
    for start in range(0, index.size, chunk):
        stop = start + chunk
        yield "".join([
            f"{pos},{quoted[d]},{i}\r\n"
            for pos, d, i in zip(
                range(start, stop), dataset[start:stop].tolist(), index[start:stop].tolist()
            )
        ])


def load_sample(args):
    from babelkit import sampler as S

    recipe_path = args.recipe or bundled_path("recipes/babelrs_table1.json")
    recipe = S.MixtureRecipe.load(recipe_path)
    seed = args.seed if args.seed is not None else recipe.seed
    checks.config_int("seed", seed, 0)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out) or not os.path.isdir(out_dir):
        raise ValueError(f"--out {args.out} is not a file in an existing directory")
    return recipe_path, recipe, seed


def run_sample(args, loaded):
    from babelkit import sampler as S

    recipe_path, recipe, seed = loaded
    dataset, index = S.draw_epoch(recipe, seed)
    _write_csv(
        args.out,
        [("position", "dataset", "index")],
        _epoch_lines([e.name for e in recipe.entries], dataset, index),
    )
    counts = np.bincount(dataset, minlength=len(recipe.entries))
    expected = S.expected_counts(recipe)
    for e, drawn in zip(recipe.entries, counts):
        print(f"{e.name}: expected={expected[e.name]:.1f} drawn={drawn}")
    return args.out + ".manifest.json", RunManifest(
        command="sample",
        config={"recipe": recipe_path},
        seed=seed,
        outputs=[args.out],
    )


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
    p.set_defaults(load=load_eval, run=run_eval)

    p = sub.add_parser("hmap", help="harmonic mean of per-modality mAPs")
    p.add_argument("values", nargs="+", help="per-modality mAP values")
    p.set_defaults(load=load_hmap, run=run_hmap)

    p = sub.add_parser("align", help="language-pivoted alignment pretraining")
    p.add_argument("--config", help="config JSON (default: bundled)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(load=load_align, run=run_align)

    p = sub.add_parser("gradlab", help="optimization-analysis experiments")
    p.add_argument("--config", help="config JSON (default: bundled)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(load=load_gradlab, run=run_gradlab)

    p = sub.add_parser("sample", help="draw one epoch from a mixture recipe")
    p.add_argument("--recipe", help="recipe JSON (default: bundled)")
    p.add_argument("--seed", type=int, help="epoch seed (default: recipe seed)")
    p.add_argument("--out", required=True, help="manifest CSV path")
    p.set_defaults(load=load_sample, run=run_sample)
    return parser


def main(argv=None):
    """Run one subcommand: its load (every check, then ``--out``), its run
    (the work and outputs), then write its manifest. Exit 2 on a ValueError,
    TypeError, KeyError or OSError from the load or a ValueError from the
    run, 3 on a ``checks.NumericalError`` from the run, each with one
    ``error:`` line; any other exception propagates."""
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        loaded = args.load(args)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        # a KeyError's str() is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        result = args.run(args, loaded)
    except (ValueError, checks.NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, ValueError) else EXIT_NUMERICAL
    if result is not None:
        path, manifest = result
        manifest.duration_s = time.time() - t0
        manifest.write(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
