import json
import os
import sys

import numpy as np
import pytest

from babelkit.deteval import Box, Detection, GroundTruthEntry, Records
from babelkit.deteval_io import (
    RecordError,
    load_detections,
    load_ground_truth,
    load_registry,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


# JSON booleans and numeric strings are not coordinates
NON_NUMBER_BOXES = [[False, 0, True, 1], ["0", "0", "1", "1"], [0, 0, 1, None]]


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLoadDetections:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("", encoding="utf-8")
        d = load_detections(str(p))
        assert len(d) == 0 and d.image_ids == [] and d.categories == []
        assert d.boxes.shape == (0, 4) and d.scores.shape == (0,)

    def test_one_record(self, tmp_path):
        rec = {"image_id": "a", "category": "ship", "bbox": [0, 0, 2, 2], "score": 0.9}
        p = write(tmp_path / "d.jsonl", [json.dumps(rec)])
        d = load_detections(p)
        assert len(d) == 1
        assert d.image_ids == ["a"] and d.scores.tolist() == [0.9] and d.boxes[0, 2] == 2.0

    def test_blank_lines_skipped(self, tmp_path):
        rec = {"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": 0.5}
        p = write(tmp_path / "d.jsonl", [json.dumps(rec), "", json.dumps(rec)])
        d = load_detections(p)
        assert len(d) == 2 and d.boxes.shape == (2, 4) and d.scores.shape == (2,)

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
        g = load_ground_truth(p)
        assert g.image_ids == ["a"] and g.categories == ["ship"] and g.scores is None
        assert g.boxes.tolist() == [[1, 2, 3, 4]]

    def test_bare_carriage_returns_end_lines(self, tmp_path):
        p = tmp_path / "g.jsonl"
        rec = '{"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1]}'
        p.write_bytes(f"{rec}\r{rec}\r".encode())
        assert len(load_ground_truth(str(p))) == 2

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


class TestDecoding:
    """Each line is decoded on its own; an error reads as ``json.loads`` words
    it, with columns counted in the line."""

    @pytest.mark.parametrize("text", [
        "{}{}", "{} x", "\ufeff{}", "{not json", "[]", "1", '"s"', "{}", "  {}  {",
    ])
    def test_message_as_json_loads_gives_it(self, tmp_path, text):
        p = write(tmp_path / "d.jsonl", [text])
        try:
            obj = json.loads(text + "\n")
        except json.JSONDecodeError as exc:
            want = f"invalid JSON: {exc}"
        else:
            want = ("field 'bbox' must be [xmin, ymin, xmax, ymax]" if obj == {}
                    else "record must be a JSON object")
        with pytest.raises(RecordError) as exc:
            load_detections(p)
        assert str(exc.value) == f"{p}:1: {want}"

    def test_tabs_crlf_and_nan_parse(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rec = '{"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": 0.5, "note": NaN}'
        p.write_bytes(f"\t{rec}\r\n \t{rec}\t\r\n".encode())
        d = load_detections(str(p))
        assert d.image_ids == ["a", "a"] and d.boxes.tolist() == [[0, 0, 1, 1]] * 2

    def test_undecodable_byte_names_line_and_position(self, tmp_path):
        good = b'{"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": 0.5}'
        bad = b'{"image_id": "\xff", "category": "c", "bbox": [0, 0, 1, 1], "score": 0.5}'
        p = tmp_path / "det.jsonl"
        p.write_bytes(good + b"\n" + bad + b"\n")
        with pytest.raises(RecordError) as exc:
            load_detections(str(p))
        assert str(exc.value) == (f"{p}:2: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
                                  "in position 14: invalid start byte")

    def test_non_ascii_text_loads(self, tmp_path):
        rec = {"image_id": "\u00e9t\u00e9", "category": "c", "bbox": [0, 0, 1, 1]}
        p = tmp_path / "g.jsonl"
        p.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_ground_truth(str(p)).image_ids == ["\u00e9t\u00e9"]


    def test_lone_surrogate_id_refused(self, tmp_path):
        # a JSON escape of a lone surrogate decodes, but no report can write it
        p = write(tmp_path / "g.jsonl", [
            '{"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1]}',
            '{"image_id": "a\\udc80", "category": "c", "bbox": [0, 0, 1, 1]}',
        ])
        with pytest.raises(RecordError) as exc:
            load_ground_truth(p)
        assert str(exc.value) == (f"{p}:2: field 'image_id' 'a\\udc80' cannot be written "
                                  "as UTF-8: surrogates not allowed")

    def test_escaped_surrogate_pair_loads(self, tmp_path):
        p = write(tmp_path / "d.jsonl", [
            '{"image_id": "\\ud83d\\ude00", "category": "c", "bbox": [0, 0, 1, 1], "score": 1}',
        ])
        assert load_detections(p).image_ids == ["\U0001F600"]

    def test_integer_past_digit_limit_names_line(self, tmp_path):
        p = write(tmp_path / "d.jsonl", [
            '{"image_id": "a", "category": "c", "bbox": [0, 0, 1, 1], "score": %s}' % ("1" * 5000),
        ])
        with pytest.raises(RecordError, match=r":1: invalid JSON: Exceeds the limit \(4300 digits\)"):
            load_detections(p)


def _objects(path):
    """Records built one object per line, the way the loaders once built them."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            box = Box(*map(float, r["bbox"]))
            if "score" in r:
                out.append(Detection(r["image_id"], r["category"], box, float(r["score"])))
            else:
                out.append(GroundTruthEntry(r["image_id"], r["category"], box))
    return out


def test_columns_equal_records_of_objects(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import evalset

    gt, det = evalset.generate(0)
    paths = [str(tmp_path / n) for n in ("gt.jsonl", "det.jsonl", "registry.json")]
    evalset.write_inputs(gt, det, *paths)
    sys.modules.pop("evalset")
    for load, path in ((load_ground_truth, paths[0]), (load_detections, paths[1])):
        got, want = load(path), Records.of(_objects(path))
        assert len(got) > 1000
        assert got.image_ids == want.image_ids and got.categories == want.categories
        assert got.boxes.dtype == np.float64 and got.boxes.shape == want.boxes.shape
        assert got.boxes.tobytes() == want.boxes.tobytes()
        if want.scores is None:
            assert got.scores is None
        else:
            assert got.scores.dtype == np.float64
            assert got.scores.tobytes() == want.scores.tobytes()


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

    @pytest.mark.parametrize("text,named", [
        ('{"modalities": {"s\\udfffar": ["ship"]}}', "modality 's\\udfffar'"),
        ('{"modalities": {"sar": ["ship", "\\ud800"]}}', "category '\\ud800'"),
    ])
    def test_lone_surrogate_name_refused(self, tmp_path, text, named):
        p = tmp_path / "r.json"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_registry(str(p))
        assert str(exc.value) == f"{p}: {named} cannot be written as UTF-8: surrogates not allowed"

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
