import json

import pytest

from babelkit.deteval_io import (
    RecordError,
    load_detections,
    load_ground_truth,
    load_registry,
)


# JSON booleans and numeric strings are not coordinates
NON_NUMBER_BOXES = [[False, 0, True, 1], ["0", "0", "1", "1"], [0, 0, 1, None]]


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLoadDetections:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("", encoding="utf-8")
        assert load_detections(str(p)) == []

    def test_one_record(self, tmp_path):
        rec = {"image_id": "a", "category": "ship", "bbox": [0, 0, 2, 2], "score": 0.9}
        p = write(tmp_path / "d.jsonl", [json.dumps(rec)])
        (d,) = load_detections(p)
        assert d.image_id == "a" and d.score == 0.9 and d.box.xmax == 2.0

    def test_blank_lines_skipped(self, tmp_path):
        rec = {"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": 0.5}
        p = write(tmp_path / "d.jsonl", [json.dumps(rec), "", json.dumps(rec)])
        assert len(load_detections(p)) == 2

    def test_invalid_box_names_line_and_field(self, tmp_path):
        bad = {"image_id": "a", "category": "c", "bbox": [5, 0, 1, 1], "score": 0.5}
        good = {"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": 0.5}
        p = write(tmp_path / "d.jsonl", [json.dumps(good), json.dumps(bad)])
        with pytest.raises(RecordError, match="bbox") as exc:
            load_detections(p)
        assert exc.value.line_no == 2

    def test_bad_json_reports_line(self, tmp_path):
        p = write(tmp_path / "d.jsonl", ["{not json"])
        with pytest.raises(RecordError, match="invalid JSON"):
            load_detections(p)

    def test_score_out_of_range(self, tmp_path):
        bad = {"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": 1.5}
        p = write(tmp_path / "d.jsonl", [json.dumps(bad)])
        with pytest.raises(RecordError, match="score"):
            load_detections(p)

    def test_missing_field(self, tmp_path):
        good = {"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": 0.5}
        for key in ("image_id", "category"):
            bad = {k: v for k, v in good.items() if k != key}
            p = write(tmp_path / "det.jsonl", [json.dumps(good), json.dumps(bad)])
            with pytest.raises(RecordError) as exc:
                load_detections(p)
            assert str(exc.value) == f"{p}:2: field {key!r} must be a non-empty string"

    def test_first_faulty_line_reported(self, tmp_path):
        good = '{"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": 0.5}'
        nan_box = '{"image_id": "a", "category": "c", "bbox": [0, NaN, 1, 1], "score": 0.5}'
        no_image = '{"category": "c", "bbox": [0, 0, 1, 1], "score": 0.5}'
        p = write(tmp_path / "det.jsonl", [good, nan_box, no_image])
        with pytest.raises(RecordError, match="bbox") as exc:
            load_detections(p)
        assert exc.value.line_no == 2

    def test_box_checked_before_image_id(self, tmp_path):
        both = '{"category": "c", "bbox": [0, NaN, 1, 1], "score": 0.5}'
        p = write(tmp_path / "det.jsonl", [both])
        with pytest.raises(RecordError) as exc:
            load_detections(p)
        assert str(exc.value).startswith(f"{p}:1: field 'bbox': ")

    @pytest.mark.parametrize("score", [True, False, "0.5"])
    def test_non_number_score_rejected(self, tmp_path, score):
        bad = {"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": score}
        p = write(tmp_path / "d.jsonl", [json.dumps(bad)])
        with pytest.raises(RecordError) as exc:
            load_detections(p)
        assert str(exc.value) == f"{p}:1: field 'score' must be a number"

    def test_huge_integer_score_rejected(self, tmp_path):
        p = write(tmp_path / "d.jsonl", [
            '{"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": 1%s}' % ("0" * 400)
        ])
        with pytest.raises(RecordError, match=":1: field 'score'"):
            load_detections(p)

    @pytest.mark.parametrize("bbox", NON_NUMBER_BOXES)
    def test_non_number_box_rejected(self, tmp_path, bbox):
        bad = {"image_id": "a", "category": "c", "bbox": bbox, "score": 0.5}
        p = write(tmp_path / "d.jsonl", [json.dumps(bad)])
        with pytest.raises(RecordError, match=":1: field 'bbox': coordinates must be numbers"):
            load_detections(p)


class TestLoadGroundTruth:
    def test_round_trip(self, tmp_path):
        rec = {"image_id": "a", "category": "ship", "bbox": [1, 2, 3, 4]}
        p = write(tmp_path / "g.jsonl", [json.dumps(rec)])
        (g,) = load_ground_truth(p)
        assert (g.box.xmin, g.box.ymin, g.box.xmax, g.box.ymax) == (1, 2, 3, 4)

    @pytest.mark.parametrize("bbox", NON_NUMBER_BOXES)
    def test_non_number_box_rejected(self, tmp_path, bbox):
        good = {"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1]}
        bad = {"image_id": "a", "category": "c", "bbox": bbox}
        p = write(tmp_path / "g.jsonl", [json.dumps(good), json.dumps(bad)])
        with pytest.raises(RecordError, match=":2: field 'bbox': coordinates must be numbers"):
            load_ground_truth(p)

    def test_huge_integer_coordinate_rejected(self, tmp_path):
        p = write(tmp_path / "g.jsonl", [
            '{"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1%s]}' % ("0" * 400)
        ])
        with pytest.raises(RecordError, match=":1: field 'bbox'"):
            load_ground_truth(p)


class TestLoadRegistry:
    def test_valid(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"modalities": {"sar": ["ship"]}}), encoding="utf-8")
        reg = load_registry(str(p))
        assert reg.modality_of("ship") == "sar"

    def test_missing_key(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"oops": {}}), encoding="utf-8")
        with pytest.raises(ValueError, match="modalities"):
            load_registry(str(p))

    @pytest.mark.parametrize("registry", [
        [{"modalities": {"sar": ["ship"]}}],
        {"modalities": {"sar": "ab"}},
        {"modalities": {"sar": []}},
        {"modalities": {"sar": ["ship", ""]}},
        {"modalities": {"sar": ["ship", 7]}},
        {"modalities": {"sar": {"ship": 1}}},
    ])
    def test_bad_shape(self, tmp_path, registry):
        p = tmp_path / "r.json"
        p.write_text(json.dumps(registry), encoding="utf-8")
        with pytest.raises(ValueError, match="r.json"):
            load_registry(str(p))
