import csv
import json
import os
import re

import pytest

from babelkit import checks, cli, gradlab
from babelkit import pivot as P
from babelkit import sampler as S
from babelkit.deteval import EvalReport, harmonic_modality_map


def run(argv):
    return cli.main(argv)


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def fixture_dir(tmp_path):
    reg = tmp_path / "registry.json"
    reg.write_text(
        json.dumps({"modalities": {"sar": ["ship"], "optical": ["car"], "ir": ["person"]}}),
        encoding="utf-8",
    )
    cats = ["ship", "car", "person"]
    gts, dets = [], []
    for k, cat in enumerate(cats):
        bbox = [k * 10, 0, k * 10 + 5, 5]
        gts.append({"image_id": "img", "category": cat, "bbox": bbox})
        dets.append({"image_id": "img", "category": cat, "bbox": bbox, "score": 0.9})
    gt_path = write_jsonl(tmp_path / "gt.jsonl", gts)
    det_path = write_jsonl(tmp_path / "det.jsonl", dets)
    return tmp_path, str(reg), gt_path, det_path, dets


class TestHmap:
    def test_known_values(self, capsys):
        assert run(["hmap", "63.30", "46.96", "51.32"]) == 0
        assert capsys.readouterr().out.strip() == "53.02"
        assert run(["hmap", "53.46", "45.18", "44.99"]) == 0
        assert capsys.readouterr().out.strip() == "47.57"
        assert run(["hmap", "50", "50", "50"]) == 0
        assert capsys.readouterr().out.strip() == "50.00"

    def test_non_numeric_exit_2(self, capsys):
        assert run(["hmap", "abc"]) == 2
        assert "error" in capsys.readouterr().err


class TestEval:
    def test_perfect_fixture(self, fixture_dir, capsys):
        tmp_path, reg, gt, det, _ = fixture_dir
        out = tmp_path / "out"
        assert run(["eval", "--gt", gt, "--det", det, "--registry", reg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "mAP=100.00 H-mAP=100.00"
        report = json.loads((out / "report.json").read_text())
        assert report["global_map"] == 1.0
        assert (out / "report.csv").read_text().startswith("category,modality")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "eval"

    def test_dead_modality(self, fixture_dir, capsys):
        tmp_path, reg, gt, det, dets = fixture_dir
        pruned = [d for d in dets if d["category"] != "person"]
        det2 = write_jsonl(tmp_path / "det2.jsonl", pruned)
        out = tmp_path / "out2"
        assert run(["eval", "--gt", gt, "--det", det2, "--registry", reg, "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.endswith("H-mAP=0.00")
        assert not line.startswith("mAP=0.00")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_box_exit_2(self, fixture_dir, capsys, bad):
        # scored, the NaN box would be a false positive ahead of the hit: AP 0.5
        tmp_path, reg, _, _, _ = fixture_dir
        gt = write_jsonl(tmp_path / "g.jsonl",
                         [{"image_id": "i", "category": "ship", "bbox": [0, 0, 10, 10]}])
        det = tmp_path / "d.jsonl"
        det.write_text(
            '{"image_id": "i", "category": "ship", "bbox": [%s, 0, 10, 10], "score": 0.9}\n'
            '{"image_id": "i", "category": "ship", "bbox": [0, 0, 10, 10], "score": 0.5}\n' % bad,
            encoding="utf-8",
        )
        out = tmp_path / "out_nan"
        argv = ["eval", "--gt", gt, "--det", str(det), "--registry", reg, "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "d.jsonl:1: field 'bbox': coordinates must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("score", True), ("bbox", [False, 0, True, 1]), ("bbox", ["0", "0", "1", "1"]),
    ])
    def test_non_number_field_exit_2(self, fixture_dir, capsys, field, value):
        # scored, the boolean score would be 1.0 and the boxes [0, 0, 1, 1]
        tmp_path, reg, gt, _, _ = fixture_dir
        rec = {"image_id": "img", "category": "ship", "bbox": [0, 0, 5, 5], "score": 0.9}
        det = write_jsonl(tmp_path / "d.jsonl", [rec, {**rec, field: value}])
        out = tmp_path / "out_bool"
        argv = ["eval", "--gt", gt, "--det", det, "--registry", reg, "--out", str(out)]
        assert run(argv) == 2
        assert f"d.jsonl:2: field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_exit_2(self, fixture_dir, capsys):
        tmp_path, reg, gt, _, _ = fixture_dir
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"image_id": "i"}\n', encoding="utf-8")
        out = tmp_path / "out3"
        assert run(["eval", "--gt", gt, "--det", str(bad), "--registry", reg, "--out", str(out)]) == 2
        assert "bad.jsonl:1" in capsys.readouterr().err

    @pytest.mark.parametrize("registry", [
        pytest.param([{"modalities": {"sar": ["a", "b"]}}], id="top-level-list"),
        pytest.param({"modalities": {"sar": "ab"}}, id="categories-string"),
        pytest.param({"modalities": {"sar": ["a", "b", ""]}}, id="category-empty"),
        pytest.param({"modalities": {"sar": ["a", "b", 7]}}, id="category-number"),
    ])
    def test_bad_registry_exit_2(self, tmp_path, capsys, registry):
        # scored, "ab" would be the categories a and b: mAP=100.00
        reg = tmp_path / "registry.json"
        reg.write_text(json.dumps(registry), encoding="utf-8")
        gts = [{"image_id": "i", "category": c, "bbox": [0, 0, 5, 5]} for c in "ab"]
        gt = write_jsonl(tmp_path / "gt.jsonl", gts)
        det = write_jsonl(tmp_path / "det.jsonl", [{**g, "score": 0.9} for g in gts])
        out = tmp_path / "out"
        argv = ["eval", "--gt", gt, "--det", det, "--registry", str(reg), "--out", str(out)]
        assert run(argv) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_record_names_file_and_line(self, fixture_dir, capsys):
        tmp_path, reg, gt, det, _ = fixture_dir
        lines = open(det, "rb").read().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"img"', b'"im\xffg"')
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines))
        out = tmp_path / "o"
        assert run(["eval", "--gt", gt, "--det", str(bad), "--registry", reg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:2: invalid UTF-8: ")
        assert "byte 0xff in position 16: invalid start byte" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_ground_truth_exit_2(self, fixture_dir, capsys, text):
        # scored, every category would have neither ground truth nor
        # detections: mAP=100.00 H-mAP=100.00
        tmp_path, reg, _, _, _ = fixture_dir
        gt, det = tmp_path / "gt0.jsonl", tmp_path / "det0.jsonl"
        gt.write_text(text, encoding="utf-8")
        det.write_text("", encoding="utf-8")
        out = tmp_path / "o"
        argv = ["eval", "--gt", str(gt), "--det", str(det), "--registry", reg, "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {gt}: no ground-truth records\n"
        assert not out.exists()

    def test_unregistered_category_message_without_quotes(self, fixture_dir, capsys):
        tmp_path, reg, gt, _, dets = fixture_dir
        det = write_jsonl(tmp_path / "d.jsonl", [{**dets[0], "category": "y"}])
        out = tmp_path / "o"
        assert run(["eval", "--gt", gt, "--det", det, "--registry", reg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: category 'y' is not registered\n"
        assert not out.exists()

    def test_byte_reproducible(self, fixture_dir, capsys):
        tmp_path, reg, gt, det, _ = fixture_dir
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["eval", "--gt", gt, "--det", det, "--registry", reg, "--out", str(out)])
            outs.append((out / "report.json").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]


class TestSummaryFormatting:
    def test_weighted_summary_rendering(self):
        per_mod = {"sar": 0.6330, "optical": 0.4696, "ir": 0.5132}
        global_map = (6 * 0.6330 + 15 * 0.4696 + 5 * 0.5132) / 26
        rep = EvalReport(
            per_category_ap={},
            per_modality_map=per_mod,
            global_map=global_map,
            hmap=harmonic_modality_map(per_mod.values()),
        )
        assert rep.summary_line() == "mAP=51.57 H-mAP=53.02"


class TestAlign:
    def test_steps_zero(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 0}), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["align", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace == ["step,loss,alpha"]
        import numpy as np

        ckpt = np.load(out / "checkpoint.npz")
        _, _, _, fresh = P.build_world(P.AlignConfig(steps=0))
        for name in fresh.PARAM_NAMES:
            np.testing.assert_array_equal(ckpt[name], fresh.params[name])

    def test_trace_row_count_and_consistency_drop(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 60}), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["align", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 61
        cons = json.loads((out / "consistency.json").read_text())
        for concept, pre in cons["pre"].items():
            assert cons["post"][concept] < pre

    @pytest.mark.parametrize("bad", [
        pytest.param({"bogus": 1}, id="unknown-key"),
        pytest.param({"token_count": 0}, id="token_count-0"),
        pytest.param({"steps": 5.0}, id="steps-float"),
        pytest.param({"steps": -5}, id="steps-negative"),
        pytest.param({"steps": True}, id="steps-bool"),
        pytest.param({"seed": -1}, id="seed-negative"),
        pytest.param({"lvsa_selected": [1, 3]}, id="lvsa_selected-past-blocks"),
        pytest.param({"lvsa_tau": 0}, id="lvsa_tau-0"),
        pytest.param({"lvsa_enabled": "no"}, id="lvsa_enabled-string"),
        pytest.param({"latent_dim": 1}, id="latent_dim-below-concepts"),
        pytest.param({"image_dim": 2}, id="image_dim-below-latent_dim"),
        pytest.param({"concepts": ["ship", "ship"]}, id="concepts-duplicate"),
        pytest.param({"modalities": ["sar", "sar"]}, id="modalities-duplicate"),
        pytest.param({"modalities": ["sar"]}, id="modalities-single"),
        pytest.param({"noise_sigma": -1}, id="noise_sigma-negative"),
    ])
    def test_bad_config_exit_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(bad), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["align", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_config_exit_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"steps": 5, "lr": %s}' % bad, encoding="utf-8")
        out = tmp_path / "o"
        assert run(["align", "--config", str(cfg), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        pytest.param({"modalities": "ab"}, "modalities must be a list, got 'ab'",
                     id="modalities-string"),
        pytest.param({"concepts": [1, 2]}, "concepts must be non-empty strings, got 1",
                     id="concepts-numbers"),
        pytest.param({"concepts": ["", "x"]}, "concepts must be non-empty strings, got ''",
                     id="concepts-empty-name"),
        pytest.param({"lvsa_selected": 5}, "lvsa_selected must be a list, got 5",
                     id="lvsa_selected-number"),
    ])
    def test_bad_name_or_list_field_names_it(self, tmp_path, capsys, bad, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(bad), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["align", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[]", '"x"'])
    def test_seed_override_on_non_object_config(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run(["align", "--seed", "1", "--config", str(cfg), "--out", str(out)]) == 2
        message = f"config must be an object, got {json.loads(text)!r}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_integer_beyond_float64_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 5, "lr": 10**400}), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["align", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: lr must be a number, got 1000")
        assert not out.exists()

    def test_integer_beyond_int64_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 10**400}), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["align", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: steps must be an integer within the int64 range, got 1000")
        assert not out.exists()
        checks.config_int("steps", 2**63 - 1, 0)
        with pytest.raises(ValueError, match="int64"):
            checks.config_int("steps", 2**63, 0)

    @pytest.mark.parametrize("field", ["token_count", "embed_dim"])
    def test_oversized_array_exit_2_before_out(self, tmp_path, capsys, monkeypatch, field):
        def refuse(config):
            raise AssertionError("built a world for an oversized config")

        monkeypatch.setattr(P, "build_world", refuse)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 3, field: 10**8}), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["align", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_nonfinite_exit_3_with_step(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 80, "lr": 1e8}), encoding="utf-8")
        assert run(["align", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "step" in capsys.readouterr().err


def write_gradlab_config(path, updates):
    """The bundled gradlab config with each ``"section.key": value`` of
    ``updates`` set, written to ``path``."""
    with open(cli.bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    for dotted, value in updates.items():
        *parents, key = dotted.split(".")
        section = cfg
        for name in parents:
            section = section.setdefault(name, {})
        section[key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestGradlabConfigErrors:
    def test_missing_section_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lambdas": [0, 1]}), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["gradlab", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: gradlab config is missing 'hessian'\n"
        assert not out.exists()

    def test_non_finite_number_exit_2(self, tmp_path, capsys):
        with open(cli.bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["stability"]["base"]["lr"] = float("nan")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")  # writes the literal NaN
        out = tmp_path / "o"
        assert run(["gradlab", "--config", str(path), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_beyond_float64_lambda_exit_2(self, tmp_path, capsys):
        with open(cli.bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["lambdas"] = [0.0, 10**400]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["gradlab", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: lambda must be a number >= 0, got 1000")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("pretrain_steps", None), ("align", {"no_such_key": 1}), ("seeds", [0, 1]), ("lr", "fast")],
    )
    def test_bad_prop3_exit_2_before_any_work(self, tmp_path, capsys, key, value):
        with open(cli.bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        if value is None:
            del cfg["prop3"][key]
        else:
            cfg["prop3"][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["gradlab", "--config", str(path), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("updates", [
        pytest.param({"stability.base.align.token_count": 0}, id="align-token_count-0"),
        pytest.param({"stability.base.align.modalities": ["sar"]}, id="align-single-modality"),
        pytest.param({"stability.base.steps": "5"}, id="steps-string"),
        pytest.param({"stability.base.lam": -5}, id="lam-negative"),
        pytest.param({"prop3.seeds": [-1, 0, 1]}, id="prop3-seed-negative"),
        pytest.param({"prop3.align.concepts": ["ship"]}, id="prop3-single-concept"),
        pytest.param({"hessian.plane": [0, 9]}, id="plane-out-of-range"),
        pytest.param({"hessian.plane": [2, 2]}, id="plane-repeated-axis"),
        pytest.param(
            {"hessian.dim": 0, "hessian.det_eigs": [], "hessian.align_eigs": []}, id="dim-0"
        ),
        pytest.param({"prop3.seeds": [0, 0, 0]}, id="prop3-seeds-repeated"),
        pytest.param({"hessian.dim": 6.5}, id="dim-float"),
        pytest.param({"hessian.angle_degrees": True}, id="angle-bool"),
        pytest.param(
            {"hessian.det_eigs": [10.0, 5.0, 2.0, 1.0, 0.5, True]}, id="eigenvalue-bool"
        ),
        pytest.param({"hessian.align_eigs": [100.0] + ["0.001"] * 5}, id="eigenvalue-string"),
        pytest.param({"lambdas": [0.0, True]}, id="lambda-bool"),
        pytest.param({"lambdas": [-1.0]}, id="lambda-negative"),
        pytest.param({"lambda": [0.0]}, id="unknown-top-level-key"),
        pytest.param({"hessian.plan": [0, 5]}, id="unknown-hessian-key"),
        pytest.param({"stability.precision": "fp16"}, id="unknown-stability-key"),
        pytest.param({"prop3.steps": 5}, id="unknown-prop3-key"),
        pytest.param({"gradient_report.seed": 1}, id="unknown-gradient_report-key"),
    ])
    def test_bad_field_exit_2_before_any_work(self, tmp_path, capsys, updates):
        path = write_gradlab_config(tmp_path / "c.json", updates)
        out = tmp_path / "o"
        assert run(["gradlab", "--config", path, "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block", ["stability.base.align", "prop3.align",
                                       "gradient_report.align"])
    def test_oversized_align_block_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                          block):
        def refuse(*args):
            raise AssertionError("ran the sweep for an oversized config")

        monkeypatch.setattr(gradlab, "conditioning_sweep", refuse)
        path = write_gradlab_config(tmp_path / "c.json", {f"{block}.token_count": 10**8})
        out = tmp_path / "o"
        assert run(["gradlab", "--config", path, "--out", str(out)]) == 2
        assert "token_count" in capsys.readouterr().err
        assert not out.exists()

    LIST_FIELDS = [
        ("lambdas", 3, "lambdas"),
        ("stability.precisions", "fp16", "stability precisions"),
        ("prop3.seeds", 3, "prop3 seeds"),
        ("hessian.det_eigs", 3, "hessian det_eigs"),
        ("hessian.align_eigs", 3, "hessian align_eigs"),
        ("hessian.plane", 3, "hessian plane"),
        ("stability.base.align.modalities", "ab", "modalities"),
    ]

    @pytest.mark.parametrize("dotted, value, name", LIST_FIELDS, ids=[f[0] for f in LIST_FIELDS])
    def test_list_field_not_a_list_names_it(self, tmp_path, capsys, dotted, value, name):
        path = write_gradlab_config(tmp_path / "c.json", {dotted: value})
        out = tmp_path / "o"
        assert run(["gradlab", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {name} must be a list, got {value!r}\n"
        assert not out.exists()


class TestGradlabRun:
    def test_power_iteration_failure_exit_3(self, tmp_path, capsys):
        with open(cli.bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        # the two largest eigenvalues 1 and 1 + 1e-9 are too close for power
        # iteration (dimension 10 > 8) to separate within its iteration budget
        cfg["hessian"] = {"dim": 10, "det_eigs": [1.0, 1.0 + 1e-9] + [0.5] * 8,
                          "align_eigs": [1.0] * 10, "angle_degrees": 0.0}
        cfg["lambdas"] = [0.0]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run(["gradlab", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: power iteration: no convergence")

    def test_non_finite_pretraining_exit_3(self, tmp_path, capsys):
        with open(cli.bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        # the two-stage route pretrains at the base align lr, which blows up
        cfg["stability"] = {"base": {**cfg["stability"]["base"], "steps": 5, "pretrain_steps": 80},
                            "precisions": ["exact"]}
        cfg["stability"]["base"]["align"] = {**cfg["stability"]["base"]["align"], "lr": 1e8}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run(["gradlab", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite loss at step")

    def test_prop3_non_finite_gradient_exit_3(self, tmp_path, capsys):
        with open(cli.bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        # one pretraining step at this lr leaves the encoder's gradients non-finite
        cfg["stability"]["base"].update(steps=5, pretrain_steps=2)
        cfg["prop3"].update(pretrain_steps=1, lr=1e100)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run(["gradlab", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite gradient for modality ")

    def test_stability_table_names_first_nonfinite_op(self, tmp_path, capsys):
        with open(cli.bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        # late/fp16 overflows at step 54 of the bundled harness; shorten the rest
        cfg["stability"]["base"].update(steps=60, pretrain_steps=5)
        cfg["prop3"].update(pretrain_steps=5, seeds=[0, 1, 2])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "o"
        assert run(["gradlab", "--config", str(path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        with open(out / "stability_table.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["config", "precision", "verdict", "first_nonfinite_step",
                          "max_grad_norm", "first_nonfinite_op"]
        by_run = {(r[0], r[1]): r for r in rows}
        assert len(by_run) == len(rows) == 6
        late = by_run[("late", "fp16")]
        assert late[2] == "diverged" and late[3] != ""
        assert re.fullmatch(r"[a-z]+#\d+", late[5])
        assert f"late/fp16: diverged (first non-finite step {late[3]})" in stdout
        for r in rows:
            if r[3] == "":
                assert r[5] == ""

    def test_rerun_byte_identical_and_manifest_lists_outputs(self, tmp_path, capsys):
        with open(cli.bundled_path("configs/gradlab_default.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["stability"]["base"].update(steps=10, pretrain_steps=2)
        cfg["prop3"].update(pretrain_steps=2, seeds=[0, 1, 2])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        runs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run(["gradlab", "--config", str(path), "--out", str(out)]) == 0
            data = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            assert sorted(manifest["outputs"]) == sorted(str(out / n) for n in data)
            runs.append((data, capsys.readouterr().out))
        assert len(runs[0][0]) == 10  # sweep, table, 6 traces, gradient report, prop3
        assert runs[0] == runs[1]


class TestUnusableOut:
    @pytest.mark.parametrize("command", ["align", "gradlab"])
    def test_out_is_a_file_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        out.write_text("kept", encoding="utf-8")
        assert run([command, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert out.read_text(encoding="utf-8") == "kept"

    def test_eval_out_is_a_file_exit_2(self, fixture_dir, capsys):
        tmp_path, reg, gt, det, _ = fixture_dir
        out = tmp_path / "o"
        out.write_text("kept", encoding="utf-8")
        assert run(["eval", "--gt", gt, "--det", det, "--registry", reg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert out.read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
    def test_sample_out_exit_2_before_drawing(self, tmp_path, capsys, monkeypatch, where):
        def refuse(*args, **kwargs):
            raise AssertionError("drew an epoch for an unusable --out")

        monkeypatch.setattr(S, "draw_epoch", refuse)
        out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        assert run(["sample", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "missing").exists()


class TestSample:
    def test_negative_seed_names_the_field(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run(["sample", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_determinism_byte_identical(self, tmp_path, capsys):
        recipe = tmp_path / "r.json"
        recipe.write_text(
            json.dumps(
                {"entries": [
                    {"name": "a", "size": 500, "sample_rate": 0.4, "tasks": ["VQA"]},
                    {"name": "b", "size": 100, "sample_rate": 1.0, "tasks": ["VG"]},
                ]}
            ),
            encoding="utf-8",
        )
        outs = []
        for name in ("m1.csv", "m2.csv"):
            out = tmp_path / name
            assert run(["sample", "--recipe", str(recipe), "--seed", "7", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_rate_one_full_and_expected_printout(self, tmp_path, capsys):
        recipe = tmp_path / "r.json"
        recipe.write_text(
            json.dumps({"entries": [{"name": "a", "size": 9, "sample_rate": 1.0, "tasks": ["CLS"]}]}),
            encoding="utf-8",
        )
        out = tmp_path / "m.csv"
        assert run(["sample", "--recipe", str(recipe), "--seed", "0", "--out", str(out)]) == 0
        assert "expected=9.0 drawn=9" in capsys.readouterr().out
        assert len(out.read_text().strip().splitlines()) == 10

    @pytest.mark.parametrize("recipe_updates, entry_updates", [
        pytest.param({}, {"size": 1000.7}, id="size-float"),
        pytest.param({}, {"size": True}, id="size-bool"),
        pytest.param({}, {"size": "1000"}, id="size-string"),
        pytest.param({}, {"size": float("inf")}, id="size-infinity"),
        pytest.param({}, {"sample_rate": "0.5"}, id="sample_rate-string"),
        pytest.param({}, {"name": 7}, id="name-number"),
        pytest.param({}, {"name": ""}, id="name-empty"),
        pytest.param({}, {"tasks": "Caption, CLS"}, id="tasks-comma-string"),
        pytest.param({}, {"weight": 2}, id="unknown-entry-key"),
        pytest.param({"seed": 1.9}, {}, id="seed-float"),
        pytest.param({"sead": 3}, {}, id="unknown-recipe-key"),
    ])
    def test_bad_recipe_field_exit_2_no_csv(self, tmp_path, capsys, recipe_updates,
                                            entry_updates):
        entry = {"name": "a", "size": 1000, "sample_rate": 0.5, "tasks": ["VQA"], **entry_updates}
        recipe = tmp_path / "r.json"
        # json.dumps writes an infinite size as the literal Infinity
        recipe.write_text(json.dumps({"seed": 0, "entries": [entry], **recipe_updates}),
                          encoding="utf-8")
        out = tmp_path / "m.csv"
        assert run(["sample", "--recipe", str(recipe), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("recipe_obj, message", [
        pytest.param({"seed": 0}, "recipe is missing 'entries'", id="no-entries"),
        pytest.param({"entries": [{"name": "a", "sample_rate": 1.0, "tasks": ["VQA"]}]},
                     "recipe entry is missing 'size'", id="entry-without-size"),
        pytest.param({"entries": 5}, "recipe entries must be a list, got 5", id="entries-number"),
        pytest.param({"entries": [{"name": "a", "size": 9, "sample_rate": 1.0, "tasks": 5}]},
                     "a: tasks must be a list, got 5", id="tasks-number"),
    ])
    def test_recipe_error_names_its_block(self, tmp_path, capsys, recipe_obj, message):
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps(recipe_obj), encoding="utf-8")
        out = tmp_path / "m.csv"
        assert run(["sample", "--recipe", str(recipe), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_size_beyond_int64_exit_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew an epoch for a size beyond int64")

        monkeypatch.setattr(S, "draw_epoch", refuse)
        entry = {"name": "a", "size": 10**400, "sample_rate": 0.5, "tasks": ["VQA"]}
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"seed": 0, "entries": [entry]}), encoding="utf-8")
        out = tmp_path / "m.csv"
        assert run(["sample", "--recipe", str(recipe), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a: size must be an integer within the int64 range, got 1000")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_oversized_entry_exit_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew an epoch for an oversized entry")

        monkeypatch.setattr(S, "draw_epoch", refuse)
        entry = {"name": "a", "size": 10**15, "sample_rate": 0.5, "tasks": ["VQA"]}
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"seed": 0, "entries": [entry]}), encoding="utf-8")
        out = tmp_path / "m.csv"
        assert run(["sample", "--recipe", str(recipe), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a: size: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_schema_error_exit_2(self, tmp_path, capsys):
        recipe = tmp_path / "r.json"
        recipe.write_text(
            json.dumps({"entries": [{"name": "a", "size": -3, "sample_rate": 1.0, "tasks": ["CLS"]}]}),
            encoding="utf-8",
        )
        assert run(["sample", "--recipe", str(recipe), "--out", str(tmp_path / "m.csv")]) == 2
        assert "error" in capsys.readouterr().err



class TestErrorContract:
    @pytest.mark.parametrize("command", ["align", "gradlab", "sample", "eval"])
    def test_invalid_json_names_its_file(self, fixture_dir, capsys, command):
        tmp_path, reg, gt, det, _ = fixture_dir
        bad = tmp_path / "bad.json"
        bad.write_text('{"steps": 5,, }', encoding="utf-8")
        out = tmp_path / "o"
        argv = {
            "align": ["align", "--config", str(bad)],
            "gradlab": ["gradlab", "--config", str(bad)],
            "sample": ["sample", "--recipe", str(bad)],
            "eval": ["eval", "--gt", gt, "--det", det, "--registry", str(bad)],
        }[command]
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: invalid JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["align", "gradlab", "sample", "eval"])
    def test_undecodable_bytes_name_their_file(self, fixture_dir, capsys, command):
        tmp_path, reg, gt, det, _ = fixture_dir
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"steps": 5,\n "x": "\xff"}')
        out = tmp_path / "o"
        argv = {
            "align": ["align", "--config", str(bad)],
            "gradlab": ["gradlab", "--config", str(bad)],
            "sample": ["sample", "--recipe", str(bad)],
            "eval": ["eval", "--gt", gt, "--det", det, "--registry", str(bad)],
        }[command]
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
                       "in position 20: invalid start byte"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["align", "gradlab", "sample", "eval"])
    def test_integer_past_digit_limit_names_its_file(self, fixture_dir, capsys, command):
        # int() refuses 5,000 digits with a plain ValueError, not a JSONDecodeError
        tmp_path, reg, gt, det, _ = fixture_dir
        bad = tmp_path / "bad.json"
        bad.write_text('{"steps": %s}' % ("7" * 5000), encoding="utf-8")
        out = tmp_path / "o"
        argv = {
            "align": ["align", "--config", str(bad)],
            "gradlab": ["gradlab", "--config", str(bad)],
            "sample": ["sample", "--recipe", str(bad)],
            "eval": ["eval", "--gt", gt, "--det", det, "--registry", str(bad)],
        }[command]
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: invalid JSON: Exceeds the limit")
        assert not out.exists()

    def test_integer_past_digit_limit_names_record_line(self, fixture_dir, capsys):
        tmp_path, reg, gt, det, _ = fixture_dir
        lines = open(det, encoding="utf-8").read().splitlines()
        lines[1] = lines[1][:-1] + ', "note": %s}' % ("7" * 5000)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run(["eval", "--gt", gt, "--det", str(bad), "--registry", reg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:2: invalid JSON: Exceeds the limit")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["registry", "gt", "det"])
    def test_lone_surrogate_is_refused_at_load(self, fixture_dir, capsys, where):
        # written, report.csv would stop at the category: a truncated file
        tmp_path, reg, gt, det, _ = fixture_dir
        paths = {"registry": reg, "gt": gt, "det": det}
        bad = tmp_path / f"bad-{where}"
        text = open(paths[where], encoding="utf-8").read()
        bad.write_text(text.replace('"ship"', '"sh\\ud800ip"'), encoding="utf-8")
        paths[where] = str(bad)
        out = tmp_path / "o"
        argv = ["eval", "--gt", paths["gt"], "--det", paths["det"], "--registry", paths["registry"]]
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        named = (f"{bad}: category" if where == "registry" else f"{bad}:1: field 'category'")
        assert err == [f"error: {named} 'sh\\ud800ip' cannot be written as UTF-8: "
                       "surrogates not allowed"]
        assert not out.exists()

    def test_type_error_in_a_run_propagates(self, tmp_path, capsys, monkeypatch):
        # a TypeError after the load is a bug, not an input error: it stays a traceback
        def broken(config):
            raise TypeError("bug in the run")

        monkeypatch.setattr(P, "build_world", broken)
        with pytest.raises(TypeError, match="bug in the run"):
            run(["align", "--out", str(tmp_path / "o")])
        assert capsys.readouterr().err == ""
