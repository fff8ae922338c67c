"""Detection evaluation: IoU, average precision, mAP over IoU thresholds,
modality-specific mAP, global union mAP, and the harmonic modality mAP.

Conventions (documented here because typical inputs never exercise them):
  - AP integration is all-points interpolation (monotone envelope of the
    precision-recall curve); a 101-point mode is available via ``ap_mode``.
  - Score ties break by (score desc, image_id asc, box coordinates asc),
    so results are invariant under permutation of the input records.
  - A category with no ground truth and no detections scores AP 1.0; with
    detections but no ground truth, AP 0.0.
  - Records are arrays from ingest onward: ``evaluate`` takes two
    ``Records`` column sets (the loaders in ``deteval_io`` return them), ranks
    image ids in Python's string order and gives each category slices of the
    boxes and scores. Its detections are sorted once and the IoU of each
    same-image (detection, ground truth) pair is computed once; the greedy
    match and the envelope then run once per threshold over those.

All internal values are fractions in [0, 1]; rendering as percent is a
presentation concern (see cli).
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def check_box(xmin, ymin, xmax, ymax):
    """ValueError unless the corners are ordered (xmin <= xmax, ymin <= ymax)."""
    if xmax < xmin:
        raise ValueError(f"xmax {xmax} < xmin {xmin}")
    if ymax < ymin:
        raise ValueError(f"ymax {ymax} < ymin {ymin}")


def check_score(score):
    """ValueError unless the score lies in [0, 1] (NaN does not)."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")


@dataclass(frozen=True, slots=True)
class Box:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        check_box(self.xmin, self.ymin, self.xmax, self.ymax)

    @property
    def area(self):
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)


@dataclass(frozen=True, slots=True)
class Detection:
    image_id: str
    category: str
    box: Box
    score: float

    def __post_init__(self):
        check_score(self.score)


@dataclass(frozen=True, slots=True)
class GroundTruthEntry:
    image_id: str
    category: str
    box: Box


@dataclass(frozen=True, eq=False)
class Records:
    """Detections or ground truth as columns: row i is ``image_ids[i]``,
    ``categories[i]``, ``boxes[i]`` ([xmin, ymin, xmax, ymax]) and, for
    detections, ``scores[i]``. Ground truth has ``scores`` None."""

    image_ids: list
    categories: list
    boxes: np.ndarray  # (n, 4) float64
    scores: np.ndarray | None = None  # (n,) float64

    def __len__(self):
        return len(self.image_ids)

    @classmethod
    def of(cls, objects):
        """The columns of ``Detection`` or ``GroundTruthEntry`` objects; an
        empty list gives detections with no rows."""
        objects = list(objects)
        boxes = [(o.box.xmin, o.box.ymin, o.box.xmax, o.box.ymax) for o in objects]
        scores = None
        if all(isinstance(o, Detection) for o in objects):
            scores = np.array([o.score for o in objects], dtype=np.float64)
        return cls(
            [o.image_id for o in objects],
            [o.category for o in objects],
            np.array(boxes, dtype=np.float64).reshape(-1, 4),
            scores,
        )


class ModalityRegistry:
    """Partition of categories into modalities."""

    def __init__(self, modalities):
        if not modalities:
            raise ValueError("at least one modality required")
        self.modalities = {m: tuple(cats) for m, cats in modalities.items()}
        self.category_map = {}
        for m, cats in self.modalities.items():
            if not cats:
                raise ValueError(f"modality {m!r} has no categories")
            for c in cats:
                if self.category_map.get(c) == m:
                    raise ValueError(f"category {c!r} is listed twice in modality {m!r}")
                if c in self.category_map:
                    raise ValueError(f"category {c!r} appears in more than one modality")
                self.category_map[c] = m

    @property
    def categories(self):
        return tuple(self.category_map)

    def modality_of(self, category):
        try:
            return self.category_map[category]
        except KeyError:
            raise KeyError(f"category {category!r} is not registered") from None


def iou(a, b):
    """Intersection over union of two boxes; 0 when the union is empty."""
    ix = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    iy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _min(x, y):
    """Elementwise ``min(x, y)`` as Python computes it: x on ties, so the
    sign of a zero survives as in ``iou`` (``np.minimum`` does not promise it)."""
    return np.where(y < x, y, x)


def _max(x, y):
    """Elementwise ``max(x, y)`` as Python computes it; see ``_min``."""
    return np.where(y > x, y, x)


def iou_rows(a, b):
    """IoU of the boxes ``a`` (..., 4) and ``b`` (..., 4), rows [xmin, ymin,
    xmax, ymax], pair by pair under broadcasting (``iou_rows(a[:, None],
    b[None])`` is the table of every pair). Same float operations in the same
    order as ``iou``, so equal bit for bit."""
    ix = _min(a[..., 2], b[..., 2]) - _max(a[..., 0], b[..., 0])
    iy = _min(a[..., 3], b[..., 3]) - _max(a[..., 1], b[..., 1])
    inter = _max(ix, 0.0) * _max(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def sort_detections(scores, images, boxes):
    """Canonical evaluation order: score desc, then image code and box
    coordinates ascending, as one stable lexsort. The key depends only on
    record content, so evaluation is invariant under permutation of the input
    order."""
    return np.lexsort((boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0], images, -scores))


def match_candidates(det_images, det_boxes, gt_images, gt_boxes, min_iou):
    """Every (detection, ground truth) pair of one image with IoU >= min_iou:
    the pairs any threshold >= min_iou can match.

    Each detection is joined to its image's ground truths and the IoU of every
    such pair is computed in one call. Returns (k, iou, j) triples, k the
    detection's row and j the ground truth's, sorted by k, then iou
    descending, then j."""
    gt_order = np.argsort(gt_images, kind="stable")
    grouped = gt_images[gt_order]
    lo = np.searchsorted(grouped, det_images, side="left")
    n = np.searchsorted(grouped, det_images, side="right") - lo
    k = np.repeat(np.arange(len(det_images)), n)
    # pair p of detection k takes ground truth lo[k] + (p - first pair of k)
    j = gt_order[np.arange(len(k)) + np.repeat(lo - (np.cumsum(n) - n), n)]
    v = iou_rows(det_boxes[k], gt_boxes[j])
    kept = np.flatnonzero(v >= min_iou)
    k, v, j = k[kept], v[kept], j[kept]
    order = np.lexsort((j, -v, k))
    return list(zip(k[order].tolist(), v[order].tolist(), j[order].tolist()))


def match_detections(candidates, n_dets, iou_threshold):
    """Greedy matching in canonical order over ``match_candidates`` output:
    each detection takes the unmatched ground truth of highest IoU at or
    above the threshold (the earliest on equal IoU), and each ground truth
    matches at most once. Returns a boolean array (True = true positive)."""
    matched = set()
    hits = []
    done = -1  # the last detection that matched or ran out of candidates
    for k, v, j in candidates:
        if k == done:
            continue
        if v < iou_threshold:
            done = k
        elif j not in matched:
            matched.add(j)
            hits.append(k)
            done = k
    flags = np.zeros(n_dets, dtype=bool)
    flags[hits] = True
    return flags


def _ap_from_flags(flags, n_gt, mode):
    """Area under the monotone (all-points) envelope of the precision-recall
    curve of the true-positive flags, or the 101-point average when mode ==
    '101pt'. The envelope is a suffix max; the sum runs sequentially in
    recall order (``cumsum``, not pairwise ``sum``)."""
    tp = np.cumsum(flags)
    recall = tp / n_gt
    envelope = np.maximum.accumulate((tp / np.arange(1, len(flags) + 1))[::-1])[::-1]
    if mode == "101pt":
        at = np.searchsorted(recall, np.arange(101) / 100.0, side="left")
        p = np.zeros(101)
        reached = at < len(recall)
        p[reached] = envelope[at[reached]]
        return float(np.cumsum(p)[-1]) / 101.0
    hits = np.flatnonzero(flags)
    if not len(hits):
        return 0.0
    # recall rises exactly at the true positives
    steps = np.diff(recall[hits], prepend=0.0)
    return float(np.cumsum(steps * envelope[hits])[-1])


def _check_thresholds(thresholds):
    if not thresholds:
        raise ValueError("threshold list must be non-empty")
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1), got {t}")


def _columns(dets, gts, registry):
    """Image codes and (n, 4) boxes of detections then ground truth, and each
    registered category's detection and ground-truth rows (sorted categories,
    rows in input order). Image codes rank ids in Python's string order:
    ``np.unique`` drops trailing NULs, so 'a' and 'a\\x00' would share one.
    Each distinct category meets the registry once, first seen first."""
    ids = dets.image_ids + gts.image_ids
    cats = dets.categories + gts.categories
    rank = {image: code for code, image in enumerate(sorted(set(ids)))}
    for cat in dict.fromkeys(cats):
        registry.modality_of(cat)
    order = {cat: i for i, cat in enumerate(sorted(registry.categories))}
    key = np.fromiter(map(order.__getitem__, cats), np.int64, len(cats))
    key[len(dets):] += len(order)  # ground-truth groups follow the detection groups
    rows = np.split(np.argsort(key, kind="stable"),
                    np.cumsum(np.bincount(key, minlength=2 * len(order)))[:-1])
    images = np.fromiter(map(rank.__getitem__, ids), np.int64, len(ids))
    boxes = np.concatenate([dets.boxes, gts.boxes])
    return images, boxes, rows[:len(order)], rows[len(order):]


def _category_aps(det_images, det_boxes, scores, gt_images, gt_boxes, thresholds, ap_mode):
    """{threshold: AP} for one category's arrays: one canonical sort, one IoU
    per same-image pair, one greedy match and one envelope per threshold."""
    n_dets, n_gts = len(det_images), len(gt_images)
    if not n_gts or not n_dets:
        ap = 1.0 if not n_gts and not n_dets else 0.0
        return {t: ap for t in thresholds}
    order = sort_detections(scores, det_images, det_boxes)
    candidates = match_candidates(
        det_images[order], det_boxes[order], gt_images, gt_boxes, min(thresholds)
    )
    return {
        t: _ap_from_flags(match_detections(candidates, n_dets, t), n_gts, ap_mode)
        for t in thresholds
    }


def average_precision(dets, gts, iou_threshold, ap_mode="all-points"):
    """AP of ``Detection`` and ``GroundTruthEntry`` objects of a single
    category at one IoU threshold, as ``evaluate`` scores their columns."""
    _check_thresholds((iou_threshold,))
    cats = {d.category for d in dets} | {g.category for g in gts}
    if len(cats) > 1:
        raise ValueError(f"mixed categories in one AP computation: {sorted(cats)}")
    cat = cats.pop() if cats else ""
    registry = ModalityRegistry({"": (cat,)})
    report = evaluate(Records.of(dets), Records.of(gts), registry, (iou_threshold,), ap_mode)
    return report.per_category_ap[cat]["per_threshold"][iou_threshold]


def modality_map(ap_by_category, registry):
    """Arithmetic mean of category APs within each modality."""
    sums = {m: [0.0, 0] for m in registry.modalities}
    for cat, ap in ap_by_category.items():
        m = registry.modality_of(cat)
        sums[m][0] += ap
        sums[m][1] += 1
    return {m: (s / n if n else math.nan) for m, (s, n) in sums.items()}


def harmonic_modality_map(values):
    """Harmonic mean of per-modality mAPs; exactly 0 if any entry is 0.

    Accepts fractions in [0, 1] or percents in [0, 100]; units must be
    uniform (the harmonic mean is scale-equivariant, so no conversion is
    done here).
    """
    values = list(values)
    if not values:
        raise ValueError("need at least one modality mAP")
    for v in values:
        if not 0.0 <= v <= 100.0:
            raise ValueError(f"mAP value {v} outside [0, 100]")
    if any(v > 1.0 for v in values) and any(0.0 < v < 1.0 for v in values):
        raise ValueError("mixed percent and fraction units")
    if any(v == 0.0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def global_union_map(ap_by_category):
    """Unweighted mean AP over the union of all categories."""
    if not ap_by_category:
        raise ValueError("empty category AP map")
    return sum(ap_by_category.values()) / len(ap_by_category)


@dataclass
class EvalReport:
    per_category_ap: dict  # cat -> {"per_threshold": {thr: ap}, "mean": float, "ap50": float}
    per_modality_map: dict  # modality -> mAP_m
    global_map: float
    hmap: float

    def to_dict(self):
        return {
            "per_category_ap": {
                c: {
                    "per_threshold": {f"{t:.2f}": v for t, v in d["per_threshold"].items()},
                    "mean": d["mean"],
                    "ap50": d["ap50"],
                }
                for c, d in self.per_category_ap.items()
            },
            "per_modality_map": dict(self.per_modality_map),
            "global_map": self.global_map,
            "hmap": self.hmap,
        }

    def csv_rows(self, registry):
        rows = [("category", "modality", "ap@50", "ap@[.5:.95]")]
        for cat in sorted(self.per_category_ap):
            d = self.per_category_ap[cat]
            rows.append(
                (cat, registry.modality_of(cat), f"{d['ap50']:.6f}", f"{d['mean']:.6f}")
            )
        return rows

    def summary_line(self):
        return f"mAP={100 * self.global_map:.2f} H-mAP={100 * self.hmap:.2f}"


def evaluate(dets, gts, registry, thresholds=DEFAULT_THRESHOLDS, ap_mode="all-points"):
    """Full pipeline: per-category APs, modality mAPs, global mAP, H-mAP, for
    detections ``dets`` and ground truth ``gts``, each a ``Records``."""
    images, boxes, det_rows, gt_rows = _columns(dets, gts, registry)
    scores = dets.scores
    thresholds = tuple(thresholds)
    _check_thresholds(thresholds)
    # ap50 comes from the same sort and match pass as the grid
    scored = thresholds if 0.5 in thresholds else thresholds + (0.5,)
    per_category_ap = {}
    for cat, d, g in zip(sorted(registry.categories), det_rows, gt_rows):
        aps = _category_aps(images[d], boxes[d], scores[d], images[g], boxes[g], scored, ap_mode)
        per = {t: aps[t] for t in thresholds}
        per_category_ap[cat] = {
            "per_threshold": per,
            "mean": sum(per.values()) / len(per),
            "ap50": aps[0.5],
        }

    mean_aps = {c: d["mean"] for c, d in per_category_ap.items()}
    per_mod = modality_map(mean_aps, registry)
    return EvalReport(
        per_category_ap=per_category_ap,
        per_modality_map=per_mod,
        global_map=global_union_map(mean_aps),
        hmap=harmonic_modality_map(per_mod.values()),
    )
