"""The four workloads: inputs made from a seed, the CLI command that runs on
them, and the checks on its outputs.

Each workload has ``prepare(seed, work_dir)``, which makes the inputs of
one seed; ``argv(out_dir)``, the CLI command of one round; and
``check(out_dir, stdout)``, which verifies a round's outputs and returns the
number of items it processed. ``first_work`` names the module attribute the
CLI calls first for real work: set-up ends there.

Each check compares the outputs with computations made here, apart from
babelkit, or with properties the method must have; none compares with a
stored copy of earlier output; sample-epoch parses its CSV in full once per
run, and a later round whose CSV has the same bytes passes on that. A failed
check raises CheckError.
"""

import csv
import hashlib
import json
import math
import os
import re
from array import array

import numpy as np

import alignref
import evalset


class CheckError(AssertionError):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Eval80k:
    name = "eval-80k"
    first_work = "deteval_io.load_ground_truth"
    TOLERANCE = 1e-9  # absolute, on each per-category, per-threshold AP

    def prepare(self, seed, work_dir):
        gt, det = evalset.generate(seed)
        self.paths = [os.path.join(work_dir, n) for n in ("gt.jsonl", "det.jsonl", "registry.json")]
        evalset.write_inputs(gt, det, *self.paths)
        self.items = len(gt["image_id"]) + len(det["image_id"])
        self.reference = evalset.reference_report(gt, det)

    def argv(self, out_dir):
        gt, det, reg = self.paths
        return ["eval", "--gt", gt, "--det", det, "--registry", reg, "--out", out_dir]

    def check(self, out_dir, stdout):
        report = _load_json(os.path.join(out_dir, "report.json"))
        per_cat = report["per_category_ap"]
        _require(set(per_cat) == set(self.reference), "category set differs from the registry")
        means = {}
        for cat, ref in self.reference.items():
            got = per_cat[cat]["per_threshold"]
            _require(set(got) == {f"{t:.2f}" for t in ref}, f"{cat}: threshold set differs")
            for t, ap in ref.items():
                _require(abs(got[f"{t:.2f}"] - ap) <= self.TOLERANCE,
                         f"{cat}@{t:.2f}: AP {got[f'{t:.2f}']!r} != reference {ap!r}")
            _require(abs(per_cat[cat]["ap50"] - ref[0.5]) <= self.TOLERANCE, f"{cat}: ap50")
            means[cat] = per_cat[cat]["mean"]
            _require(math.isclose(means[cat], sum(ref.values()) / len(ref), abs_tol=self.TOLERANCE),
                     f"{cat}: mean AP")
        _require(math.isclose(report["global_map"], sum(means.values()) / len(means),
                              rel_tol=1e-12), "global_map is not the mean of the category means")
        mod_maps = []
        for mod, cats in evalset.registry().items():
            expect = sum(means[c] for c in cats) / len(cats)
            got = report["per_modality_map"][mod]
            _require(math.isclose(got, expect, rel_tol=1e-12), f"{mod}: modality mAP")
            mod_maps.append(got)
        hmean = len(mod_maps) / sum(1.0 / v for v in mod_maps)
        _require(math.isclose(report["hmap"], hmean, rel_tol=1e-12),
                 "hmap is not the harmonic mean of the modality mAPs")
        return self.items


class AlignExact:
    name = "align-exact"
    first_work = "pivot.build_world"
    REL_TOLERANCE = 1e-9  # on the step-0 loss

    def prepare(self, seed, work_dir):
        self.seed = seed
        self.config = {**alignref.bundled_config(), "seed": seed}
        self.step0 = alignref.step0_loss(self.config)

    def argv(self, out_dir):
        return ["align", "--seed", str(self.seed), "--out", out_dir]

    def check(self, out_dir, stdout):
        rows = _read_csv(os.path.join(out_dir, "trace.csv"))
        _require(rows[0] == ["step", "loss", "alpha"], "trace.csv header")
        steps = [int(r[0]) for r in rows[1:]]
        loss = [float(r[1]) for r in rows[1:]]
        alpha = [float(r[2]) for r in rows[1:]]
        _require(steps == list(range(self.config["steps"])), "trace steps are not 0..steps-1")
        _require(math.isclose(loss[0], self.step0, rel_tol=self.REL_TOLERANCE),
                 f"step-0 loss {loss[0]!r} != numpy forward pass {self.step0!r}")
        tau = self.config["lvsa_tau"]
        _require(all(a == min(t / tau, 1.0) for t, a in zip(steps, alpha)),
                 "alpha column is not min(t/tau, 1)")
        _require(loss[-1] < 0.1 * loss[0], f"final loss {loss[-1]} not under 10% of {loss[0]}")
        # Training must lower each concept's consistency distance. It does not
        # always reach 10% of the untrained value: seeds whose random
        # initialisation is already consistent stay above it (see CHANGES.md).
        cons = _load_json(os.path.join(out_dir, "consistency.json"))
        for concept in self.config["concepts"]:
            pre, post = cons["pre"][concept], cons["post"][concept]
            _require(post < pre, f"{concept}: consistency {post} not below {pre}")
        return len(steps)


def gradlab_config(seed):
    """The bundled stability harness under fp16 only, the conditioning sweep,
    the gradient report and a three-seed Prop. 3 with short pretraining."""
    return {
        "hessian": {
            "dim": 6,
            "det_eigs": [10.0, 5.0, 2.0, 1.0, 0.5, 0.2],
            "align_eigs": [100.0, 0.001, 0.001, 0.001, 0.001, 0.001],
            "angle_degrees": 45.0,
            "plane": [0, 5],
        },
        "lambdas": [0.0, 0.5, 1.0, 2.0, 4.0],
        "stability": {
            "base": {
                "align": {"antipodal_modalities": True, "seed": 0, "steps": 0},
                "steps": 400,
                "lr": 0.06,
                "lam": 5000.0,
                "pretrain_steps": 300,
                "target_scale": 4.0,
            },
            "precisions": ["fp16"],
        },
        "prop3": {
            "align": {"seed": 0, "steps": 0},
            "pretrain_steps": 200,
            "lr": 0.05,
            "seeds": [3 * seed + k for k in range(3)],
        },
        "gradient_report": {"align": {"antipodal_modalities": True, "seed": 0, "steps": 0}},
    }


class GradlabFp16:
    name = "gradlab-fp16"
    first_work = "gradlab.conditioning_sweep"
    KAPPA_REL_TOLERANCE = 1e-6
    RUNS = ("late", "late_lam0", "two_stage")

    def prepare(self, seed, work_dir):
        self.config = gradlab_config(seed)
        self.config_path = os.path.join(work_dir, "gradlab.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=2)

    def argv(self, out_dir):
        return ["gradlab", "--config", self.config_path, "--out", out_dir]

    def _expected_kappas(self):
        h = self.config["hessian"]
        angle = math.radians(h["angle_degrees"])
        i, j = h["plane"]
        rot = np.eye(h["dim"])
        rot[[i, i, j, j], [i, j, i, j]] = [math.cos(angle), -math.sin(angle),
                                           math.sin(angle), math.cos(angle)]
        h_det = np.diag(h["det_eigs"])
        h_align = rot @ np.diag(h["align_eigs"]) @ rot.T
        out = []
        for lam in self.config["lambdas"]:
            eigs = np.linalg.eigvalsh(h_det + lam * h_align)
            out.append(eigs[-1] / eigs[0])
        return out

    def check(self, out_dir, stdout):
        table = {(r[0], r[1]): r for r in _read_csv(os.path.join(out_dir, "stability_table.csv"))[1:]}
        _require(set(table) == {(name, "fp16") for name in self.RUNS}, "stability table rows")
        late = table[("late", "fp16")]
        _require(late[2] == "diverged" and re.fullmatch(r"\d+", late[3]),
                 f"late/fp16 is {late[2]!r} at step {late[3]!r}, expected diverged at an integer step")
        _require(table[("two_stage", "fp16")][2] == "converged", "two_stage/fp16 did not converge")

        finetune_steps = 0
        for name in self.RUNS:
            rows = _read_csv(os.path.join(out_dir, f"trace_{name}_fp16.csv"))[1:]
            finetune_steps += len(rows)
            for r in rows:
                v = float(r[1])
                _require(not math.isfinite(v) or float(np.float16(v)) == v,
                         f"{name}/fp16 step {r[0]}: loss {v!r} is not a float16 value")

        sweep = _read_csv(os.path.join(out_dir, "conditioning_sweep.csv"))[1:]
        kappas = [float(r[1]) for r in sweep]
        _require([float(r[0]) for r in sweep] == self.config["lambdas"], "sweep lambdas")
        for lam, got, want in zip(self.config["lambdas"], kappas, self._expected_kappas()):
            _require(abs(got - want) <= self.KAPPA_REL_TOLERANCE * want,
                     f"kappa({lam}) = {got!r}, eigvalsh gives {want!r}")
        _require(all(b > a for a, b in zip(kappas, kappas[1:])), "kappa does not increase with lambda")

        _load_json(os.path.join(out_dir, "gradient_report.json"))
        p3 = _load_json(os.path.join(out_dir, "prop3.json"))
        _require([r["seed"] for r in p3["per_seed"]] == self.config["prop3"]["seeds"], "prop3 seeds")
        pretrain_steps = (self.config["stability"]["base"]["pretrain_steps"]
                          + self.config["prop3"]["pretrain_steps"] * len(self.config["prop3"]["seeds"]))
        return finetune_steps + pretrain_steps


class SampleEpoch:
    name = "sample-epoch"
    first_work = "sampler.draw_epoch"
    RATE_TOLERANCE = 0.01

    def prepare(self, seed, work_dir):
        self.seed = seed
        self.recipe = _load_json(os.path.join("src", "babelkit", "recipes", "babelrs_table1.json"))
        self.verified = None  # (sha256 of a CSV that passed _check_csv, its counts, its rows)

    def argv(self, out_dir):
        return ["sample", "--seed", str(self.seed), "--out", os.path.join(out_dir, "epoch.csv")]

    def check(self, out_dir, stdout):
        # Parsing the CSV takes about 3 s, most of a round's time beside the
        # CLI's 4 s. A round whose CSV is byte-identical to one that passed the
        # full check needs no second parse, and that leaves time for more rounds.
        path = os.path.join(out_dir, "epoch.csv")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.verified is None or self.verified[0] != digest:
            self.verified = (digest, *self._check_csv(path))
        _, counts, n = self.verified
        printed = dict(re.findall(r"^(\S+): expected=\S+ drawn=(\d+)$", stdout, re.M))
        for k, e in enumerate(self.recipe["entries"]):
            _require(int(printed.get(e["name"], -1)) == counts[k],
                     f"{e['name']}: printed count differs from the CSV")
        return n

    def _check_csv(self, path):
        """Check the epoch CSV; returns the per-dataset counts and the row count."""
        entries = self.recipe["entries"]
        ids = {e["name"]: k for k, e in enumerate(entries)}
        sizes = np.array([e["size"] for e in entries])
        pos, ds, idx = array("q"), array("b"), array("q")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            _require(next(reader) == ["position", "dataset", "index"], "epoch.csv header")
            for p, name, i in reader:
                pos.append(int(p))
                ds.append(ids[name])
                idx.append(int(i))
        n = len(pos)
        _require(np.array_equal(np.frombuffer(pos, dtype=np.int64), np.arange(n)),
                 "positions are not 0..N-1")
        ds = np.frombuffer(ds, dtype=np.int8).astype(np.int64)
        idx = np.frombuffer(idx, dtype=np.int64)
        _require(bool(np.all((idx >= 0) & (idx < sizes[ds]))), "an index is outside its dataset")
        _require(np.unique(ds * int(sizes.max()) + idx).size == n, "a (dataset, index) pair repeats")
        counts = np.bincount(ds, minlength=len(entries))
        for k, e in enumerate(entries):
            rate = counts[k] / e["size"]
            _require(abs(rate - e["sample_rate"]) <= self.RATE_TOLERANCE,
                     f"{e['name']}: rate {rate} vs recipe {e['sample_rate']}")
            if e["sample_rate"] == 1.0:
                _require(counts[k] == e["size"], f"{e['name']}: rate-1.0 dataset is incomplete")
        return counts, n


WORKLOADS = {w.name: w for w in (Eval80k, AlignExact, GradlabFp16, SampleEpoch)}
