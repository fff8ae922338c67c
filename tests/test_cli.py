import json
import os

import pytest

from babelkit import cli
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

    def test_parse_error_exit_2(self, fixture_dir, capsys):
        tmp_path, reg, gt, _, _ = fixture_dir
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"image_id": "i"}\n', encoding="utf-8")
        out = tmp_path / "out3"
        assert run(["eval", "--gt", gt, "--det", str(bad), "--registry", reg, "--out", str(out)]) == 2
        assert "bad.jsonl:1" in capsys.readouterr().err

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

        from babelkit import pivot as P

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

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert run(["align", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_config_exit_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"steps": 5, "lr": %s}' % bad, encoding="utf-8")
        out = tmp_path / "o"
        assert run(["align", "--config", str(cfg), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_exit_3_with_step(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"steps": 80, "lr": 1e8}), encoding="utf-8")
        assert run(["align", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "step" in capsys.readouterr().err


class TestGradlabConfigErrors:
    def test_missing_section_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lambdas": [0, 1]}), encoding="utf-8")
        assert run(["gradlab", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

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


class TestSample:
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

    def test_schema_error_exit_2(self, tmp_path, capsys):
        recipe = tmp_path / "r.json"
        recipe.write_text(
            json.dumps({"entries": [{"name": "a", "size": -3, "sample_rate": 1.0, "tasks": ["CLS"]}]}),
            encoding="utf-8",
        )
        assert run(["sample", "--recipe", str(recipe), "--out", str(tmp_path / "m.csv")]) == 2
        assert "error" in capsys.readouterr().err

