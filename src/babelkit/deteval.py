"""Detection evaluation: IoU, average precision, mAP over IoU thresholds,
modality-specific mAP, global union mAP, and the harmonic modality mAP.

Conventions (documented here because typical inputs never exercise them):
  - AP integration is all-points interpolation (monotone envelope of the
    precision-recall curve); a 101-point mode is available via ``ap_mode``.
  - Score ties break by (score desc, image_id asc, box coordinates asc),
    so results are invariant under permutation of the input records.
  - A category with no ground truth and no detections scores AP 1.0; with
    detections but no ground truth, AP 0.0.
  - Each category's detections are sorted once and each image's IoU table
    is computed once; the greedy match and the envelope then run once per
    threshold over those.

All internal values are fractions in [0, 1]; rendering as percent is a
presentation concern (see cli).
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

DEFAULT_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True, slots=True)
class Box:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmax < self.xmin:
            raise ValueError(f"xmax {self.xmax} < xmin {self.xmin}")
        if self.ymax < self.ymin:
            raise ValueError(f"ymax {self.ymax} < ymin {self.ymin}")

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
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True, slots=True)
class GroundTruthEntry:
    image_id: str
    category: str
    box: Box


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


def iou_table(a, b):
    """IoU of every row of ``a`` (..., n, 4) with every row of ``b`` (..., m, 4),
    rows [xmin, ymin, xmax, ymax]: the (..., n, m) tables of ``iou(a[i], b[j])``,
    with the same float operations in the same order, so equal bit for bit.
    Leading dimensions broadcast: a stack of images gives a stack of tables."""
    a, b = a[..., :, None, :], b[..., None, :, :]
    ix = _min(a[..., 2], b[..., 2]) - _max(a[..., 0], b[..., 0])
    iy = _min(a[..., 3], b[..., 3]) - _max(a[..., 1], b[..., 1])
    inter = _max(ix, 0.0) * _max(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def _box_array(records):
    """(n, 4) float64 array of the records' [xmin, ymin, xmax, ymax]."""
    boxes = (r.box for r in records)
    coords = chain.from_iterable((b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes)
    return np.fromiter(coords, dtype=np.float64, count=4 * len(records)).reshape(-1, 4)


def sort_detections(dets):
    """Canonical evaluation order: score desc, then image_id and box
    coordinates ascending. The key depends only on record content, so
    evaluation is invariant under permutation of the input order."""

    def key(i):
        d = dets[i]
        b = d.box
        return (-d.score, d.image_id, b.xmin, b.ymin, b.xmax, b.ymax)

    return sorted(range(len(dets)), key=key)


def _by_image(codes, n_images):
    """Record indices grouped by image code (ascending within an image),
    with each image's count and start in that grouping. Code -1 is left out."""
    kept = np.flatnonzero(codes >= 0)
    grouped = kept[np.argsort(codes[kept], kind="stable")]
    counts = np.bincount(codes[kept], minlength=n_images)
    return grouped, counts, np.cumsum(counts) - counts


def match_candidates(dets_in_order, gts, min_iou):
    """Every (detection, ground truth) pair of one image with IoU >= min_iou:
    the pairs any threshold >= min_iou can match.

    One IoU table per image (that image's detections x ground truths); the
    images whose tables have the same shape go through ``iou_table`` as one
    stack. Returns (k, iou, j) triples, k the detection's position and j the
    ground truth's index, sorted by k, then iou descending, then j."""
    images = {}
    gt_img = np.array([images.setdefault(g.image_id, len(images)) for g in gts], dtype=np.int64)
    det_img = np.array([images.get(d.image_id, -1) for d in dets_in_order], dtype=np.int64)
    dets_by_img, n_det, det_start = _by_image(det_img, len(images))
    gts_by_img, n_gt, gt_start = _by_image(gt_img, len(images))
    det_boxes, gt_boxes = _box_array(dets_in_order), _box_array(gts)
    ks, ious, js = [], [], []
    for nd, ng in set(zip(n_det.tolist(), n_gt.tolist())):
        if nd == 0:
            continue
        stack = np.flatnonzero((n_det == nd) & (n_gt == ng))
        k = dets_by_img[det_start[stack, None] + np.arange(nd)]
        j = gts_by_img[gt_start[stack, None] + np.arange(ng)]
        tables = iou_table(det_boxes[k], gt_boxes[j])
        b, r, c = np.nonzero(tables >= min_iou)
        ks.append(k[b, r])
        ious.append(tables[b, r, c])
        js.append(j[b, c])
    if not ks:
        return []
    k, v, j = np.concatenate(ks), np.concatenate(ious), np.concatenate(js)
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


def _category_aps(dets, gts, thresholds, ap_mode):
    """{threshold: AP} for one category: one canonical sort, one IoU table
    per image, one greedy match and one envelope per threshold."""
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1), got {t}")
    cats = {d.category for d in dets} | {g.category for g in gts}
    if len(cats) > 1:
        raise ValueError(f"mixed categories in one AP computation: {sorted(cats)}")
    if not gts or not dets:
        ap = 1.0 if not gts and not dets else 0.0
        return {t: ap for t in thresholds}
    ordered = [dets[i] for i in sort_detections(dets)]
    candidates = match_candidates(ordered, gts, min(thresholds))
    return {
        t: _ap_from_flags(match_detections(candidates, len(ordered), t), len(gts), ap_mode)
        for t in thresholds
    }


def average_precision(dets, gts, iou_threshold, ap_mode="all-points"):
    """AP for a single category at one IoU threshold."""
    return _category_aps(dets, gts, (iou_threshold,), ap_mode)[iou_threshold]


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
    thresholds: tuple = DEFAULT_THRESHOLDS

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
    """Full pipeline: per-category APs, modality mAPs, global mAP, H-mAP."""
    for d in dets:
        registry.modality_of(d.category)
    for g in gts:
        registry.modality_of(g.category)

    by_cat_d = {c: [] for c in registry.categories}
    by_cat_g = {c: [] for c in registry.categories}
    for d in dets:
        by_cat_d[d.category].append(d)
    for g in gts:
        by_cat_g[g.category].append(g)

    thresholds = tuple(thresholds)
    if not thresholds:
        raise ValueError("threshold list must be non-empty")
    # ap50 comes from the same sort and match pass as the grid
    scored = thresholds if 0.5 in thresholds else thresholds + (0.5,)
    per_category_ap = {}
    for cat in sorted(registry.categories):
        aps = _category_aps(by_cat_d[cat], by_cat_g[cat], scored, ap_mode)
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
        thresholds=thresholds,
    )
