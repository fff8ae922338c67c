"""File ingestion for the evaluation stack.

Detections JSONL, one object per line:
    {"image_id": str, "category": str,
     "bbox": [xmin, ymin, xmax, ymax], "score": float}
Ground truth JSONL: same minus "score".
Every other key of a record, "modality" included, is ignored.
Registry JSON: {"modalities": {"<modality>": ["<category>", ...]}}; the
registry alone maps categories to modalities.

Errors carry the 1-based line number and the offending field.
"""

import json
from math import isfinite

from babelkit.checks import load_config
from babelkit.deteval import Box, Detection, GroundTruthEntry, ModalityRegistry


class RecordError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


_NUMBER_TYPES = frozenset((int, float))


def _parse_box(obj, path, line_no):
    bbox = obj.get("bbox")
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise RecordError(path, line_no, "field 'bbox' must be [xmin, ymin, xmax, ymax]")
    # JSON booleans are ints to Python and float() takes numeric strings
    if not _NUMBER_TYPES.issuperset(map(type, bbox)):
        raise RecordError(path, line_no, f"field 'bbox': coordinates must be numbers, got {bbox}")
    try:
        xmin, ymin, xmax, ymax = map(float, bbox)
        if not (isfinite(xmin) and isfinite(ymin) and isfinite(xmax) and isfinite(ymax)):
            raise ValueError(f"coordinates must be finite, got {bbox}")
        return Box(xmin, ymin, xmax, ymax)
    except (ValueError, OverflowError) as exc:
        raise RecordError(path, line_no, f"field 'bbox': {exc}") from None


def _iter_records(path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(path, line_no, f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise RecordError(path, line_no, "record must be a JSON object")
            yield line_no, obj


def _require_str(obj, key, path, line_no):
    v = obj.get(key)
    if not isinstance(v, str) or not v:
        raise RecordError(path, line_no, f"field {key!r} must be a non-empty string")
    return v


def load_detections(path):
    out = []
    for line_no, obj in _iter_records(path):
        box = _parse_box(obj, path, line_no)
        score = obj.get("score")
        if type(score) not in _NUMBER_TYPES:
            raise RecordError(path, line_no, "field 'score' must be a number")
        image_id = _require_str(obj, "image_id", path, line_no)
        category = _require_str(obj, "category", path, line_no)
        try:
            det = Detection(image_id=image_id, category=category, box=box, score=float(score))
        except (ValueError, OverflowError) as exc:
            raise RecordError(path, line_no, f"field 'score': {exc}") from None
        out.append(det)
    return out


def load_ground_truth(path):
    out = []
    for line_no, obj in _iter_records(path):
        out.append(
            GroundTruthEntry(
                image_id=_require_str(obj, "image_id", path, line_no),
                category=_require_str(obj, "category", path, line_no),
                box=_parse_box(obj, path, line_no),
            )
        )
    return out


def load_registry(path):
    obj = load_config(path)
    modalities = obj.get("modalities") if isinstance(obj, dict) else None
    if not isinstance(modalities, dict):
        raise ValueError(f"{path}: top-level 'modalities' object required")
    for modality, cats in modalities.items():
        if not (isinstance(cats, list) and cats and all(isinstance(c, str) and c for c in cats)):
            raise ValueError(
                f"{path}: modality {modality!r} must map to a non-empty list of "
                f"non-empty category names, got {cats!r}"
            )
    return ModalityRegistry(modalities)
