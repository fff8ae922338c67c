"""File ingestion for the evaluation stack.

Detections JSONL, one object per line:
    {"image_id": str, "category": str,
     "bbox": [xmin, ymin, xmax, ymax], "score": float}
Ground truth JSONL: same minus "score".
Every other key of a record, "modality" included, is ignored.
Registry JSON: {"modalities": {"<modality>": ["<category>", ...]}}; the
registry alone maps categories to modalities.

``load_detections`` and ``load_ground_truth`` return one ``Records`` column
set each (id and category lists, an (n, 4) float64 box array and, for
detections, a score array) and build no object per record. Each line is
decoded and checked on its own, so every error names the file, the
1-based line number and the offending field; bytes that are not UTF-8 are
such an error too, with their position in the line, and so is an id or a
category that cannot be written back as UTF-8 (a JSON escape of a lone
surrogate, ``"\ud800"``). Registry names are held to the same rule.
"""

import json
from math import isfinite
from sys import intern

import numpy as np

from babelkit.checks import load_config
from babelkit.deteval import ModalityRegistry, Records, check_box, check_score


class RecordError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


_NUMBER_TYPES = frozenset((int, float))
_DECODER = json.JSONDecoder()


def _parse_box(obj, path, line_no):
    """The record's four corners as floats."""
    bbox = obj.get("bbox")
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise RecordError(path, line_no, "field 'bbox' must be [xmin, ymin, xmax, ymax]")
    # JSON booleans are ints to Python and float() takes numeric strings
    if not _NUMBER_TYPES.issuperset(map(type, bbox)):
        raise RecordError(path, line_no, f"field 'bbox': coordinates must be numbers, got {bbox}")
    try:
        xmin, ymin, xmax, ymax = corners = tuple(map(float, bbox))
        if not (isfinite(xmin) and isfinite(ymin) and isfinite(xmax) and isfinite(ymax)):
            raise ValueError(f"coordinates must be finite, got {bbox}")
        check_box(*corners)
        return corners
    except (ValueError, OverflowError) as exc:
        raise RecordError(path, line_no, f"field 'bbox': {exc}") from None


def _iter_records(path):
    # undecodable bytes become lone surrogates, which no valid UTF-8 line holds
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise RecordError(path, line_no, f"invalid UTF-8: {exc}") from None
            text = line.strip(" \t\n\r")
            try:
                obj, end = _DECODER.raw_decode(text)
            except ValueError:
                end = None
            if end != len(text):
                # json.loads words the error, with columns counted in the whole
                # line; an integer past int()'s digit limit is a plain ValueError
                try:
                    obj = json.loads(line)
                except ValueError as exc:
                    raise RecordError(path, line_no, f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise RecordError(path, line_no, "record must be a JSON object")
            yield line_no, obj


def _require_str(obj, key, path, line_no):
    v = obj.get(key)
    if not isinstance(v, str) or not v:
        raise RecordError(path, line_no, f"field {key!r} must be a non-empty string")
    if not v.isascii() and (problem := _utf8_problem(v)):
        raise RecordError(path, line_no, f"field {key!r} {problem}")
    # one object per distinct id or category, not one per row
    return intern(v)


def _utf8_problem(name):
    """Why ``name``, which a report will hold, cannot be written as UTF-8,
    or None when it can."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"{name!r} cannot be written as UTF-8: {exc.reason}"
    return None


def _boxes(corners):
    return np.array(corners, dtype=np.float64).reshape(-1, 4)


def load_detections(path):
    image_ids, categories, corners, scores = [], [], [], []
    for line_no, obj in _iter_records(path):
        corners.extend(_parse_box(obj, path, line_no))
        score = obj.get("score")
        if type(score) not in _NUMBER_TYPES:
            raise RecordError(path, line_no, "field 'score' must be a number")
        image_ids.append(_require_str(obj, "image_id", path, line_no))
        categories.append(_require_str(obj, "category", path, line_no))
        try:
            score = float(score)
            check_score(score)
        except (ValueError, OverflowError) as exc:
            raise RecordError(path, line_no, f"field 'score': {exc}") from None
        scores.append(score)
    return Records(image_ids, categories, _boxes(corners), np.array(scores, dtype=np.float64))


def load_ground_truth(path):
    image_ids, categories, corners = [], [], []
    for line_no, obj in _iter_records(path):
        image_ids.append(_require_str(obj, "image_id", path, line_no))
        categories.append(_require_str(obj, "category", path, line_no))
        corners.extend(_parse_box(obj, path, line_no))
    return Records(image_ids, categories, _boxes(corners))


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
        for kind, name in (("modality", modality), *(("category", c) for c in cats)):
            if problem := _utf8_problem(name):
                raise ValueError(f"{path}: {kind} {problem}")
    return ModalityRegistry(modalities)
