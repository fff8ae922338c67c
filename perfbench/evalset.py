"""The eval-80k detection set and its reference AP.

The set is generated from a seed: ~20k ground-truth boxes and ~60k
detections over 26 categories in three modalities (6 SAR, 15 optical and
5 infrared categories, the paper's split). Detections are jittered copies
of ground truth, near-duplicates of those copies and false positives, with
scores rounded to two decimals so that ties are common. One infrared
category has detections but no ground truth.

The reference AP follows the evaluator's documented conventions with code
of its own (numpy, no babelkit import): order by score descending, then
image id and box coordinates ascending; greedy matching of each detection
to the unmatched ground truth of its image with the highest IoU at or above
the threshold (the earliest one on equal IoU); the area under the monotone
all-points envelope of the precision-recall curve; AP 1.0 for a category
with neither ground truth nor detections and 0.0 for one with only one of
them.
"""

import json

import numpy as np

MODALITIES = {
    "sar": ("ship", "aircraft", "car", "tank", "bridge", "harbor"),
    "optical": (
        "plane", "ship", "storage-tank", "baseball-diamond", "tennis-court",
        "basketball-court", "ground-track-field", "harbor", "bridge",
        "large-vehicle", "small-vehicle", "helicopter", "roundabout",
        "soccer-ball-field", "swimming-pool",
    ),
    "infrared": ("car", "truck", "bus", "van", "freight-car"),
}
PREFIX = {"sar": "sar", "optical": "opt", "infrared": "ir"}
IMAGES_PER_MODALITY = {"sar": 800, "optical": 2000, "infrared": 650}
GT_PER_CATEGORY = (480, 640, 800, 960, 1120)  # cycled over the categories
NO_GT_CATEGORY = "ir.freight-car"
NO_GT_DETECTIONS = 300
IMAGE_SIZE = 1024.0
THRESHOLDS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)


def registry():
    return {m: [f"{PREFIX[m]}.{c}" for c in cats] for m, cats in MODALITIES.items()}


def categories():
    return [c for cats in registry().values() for c in cats]


def _order_box(x0, y0, x1, y1):
    """Round to 0.1 px, keep inside the image, and keep xmin < xmax."""
    lo_x = np.clip(np.round(np.minimum(x0, x1), 1), 0.0, IMAGE_SIZE - 1.0)
    lo_y = np.clip(np.round(np.minimum(y0, y1), 1), 0.0, IMAGE_SIZE - 1.0)
    hi_x = np.clip(np.round(np.maximum(x0, x1), 1), lo_x + 1.0, IMAGE_SIZE)
    hi_y = np.clip(np.round(np.maximum(y0, y1), 1), lo_y + 1.0, IMAGE_SIZE)
    return np.stack([lo_x, lo_y, hi_x, hi_y], axis=1)


def _random_boxes(rng, n):
    w = rng.uniform(16.0, 160.0, n)
    h = rng.uniform(16.0, 160.0, n)
    x0 = rng.uniform(0.0, IMAGE_SIZE - w)
    y0 = rng.uniform(0.0, IMAGE_SIZE - h)
    return _order_box(x0, y0, x0 + w, y0 + h)


def _category_records(rng, n_gt, n_img, n_det_no_gt):
    """(gt image, gt boxes, det image, det boxes, det scores) for one category."""
    gt_img = rng.integers(0, n_img, n_gt)
    gt_box = _random_boxes(rng, n_gt)
    if n_gt == 0:
        det_img = rng.integers(0, n_img, n_det_no_gt)
        det_box = _random_boxes(rng, n_det_no_gt)
        score = np.round(rng.uniform(0.0, 0.85, n_det_no_gt), 2)
        return gt_img, gt_box, det_img, det_box, score

    size = np.stack([gt_box[:, 2] - gt_box[:, 0], gt_box[:, 3] - gt_box[:, 1]] * 2, axis=1)
    n_hit = round(0.85 * n_gt)
    hit = rng.choice(n_gt, n_hit, replace=False)
    sigma = rng.uniform(0.01, 0.15, n_hit)
    jit = gt_box[hit] + rng.standard_normal((n_hit, 4)) * sigma[:, None] * size[hit]
    hit_box = _order_box(*jit.T)
    hit_score = np.round(np.clip(0.95 - 2.0 * sigma + rng.normal(0.0, 0.1, n_hit), 0.0, 1.0), 2)

    n_dup = round(0.3 * n_gt)
    src = rng.integers(0, n_hit, n_dup)
    dup_box = _order_box(*(hit_box[src] + rng.uniform(-0.5, 0.5, (n_dup, 4))).T)
    dup_score = np.round(np.clip(hit_score[src] - 0.01 * rng.integers(0, 3, n_dup), 0.0, 1.0), 2)

    n_fp = 3 * n_gt - n_hit - n_dup
    n_near = n_fp * 2 // 5
    near = rng.integers(0, n_gt, n_near)
    shift = rng.uniform(0.4, 1.0, (n_near, 2)) * rng.choice([-1.0, 1.0], (n_near, 2))
    shift = np.concatenate([shift, shift], axis=1) * size[near]
    near_box = _order_box(*(gt_box[near] + shift).T)
    far_box = _random_boxes(rng, n_fp - n_near)
    fp_score = np.round(rng.uniform(0.0, 0.85, n_fp), 2)

    det_img = np.concatenate([gt_img[hit], gt_img[hit][src], gt_img[near],
                              rng.integers(0, n_img, n_fp - n_near)])
    det_box = np.concatenate([hit_box, dup_box, near_box, far_box])
    score = np.concatenate([hit_score, dup_score, fp_score])
    return gt_img, gt_box, det_img, det_box, score


def generate(seed, scale=1):
    """The detection set as two column dicts (ground truth, detections), each
    in file order: image_id, category, box (n, 4) and, for detections, score."""
    rng = np.random.default_rng([seed, 80])
    cols = {"gt": ([], [], []), "det": ([], [], [], [])}
    k = 0
    for mod, cats in registry().items():
        n_img = IMAGES_PER_MODALITY[mod] * scale
        for cat in cats:
            n_gt = 0 if cat == NO_GT_CATEGORY else GT_PER_CATEGORY[k % len(GT_PER_CATEGORY)] * scale
            k += 1
            gi, gb, di, db, ds = _category_records(rng, n_gt, n_img, NO_GT_DETECTIONS * scale)
            for dst, img, box in ((cols["gt"], gi, gb), (cols["det"], di, db)):
                dst[0].append(np.array([f"{mod}-{i:05d}" for i in img.tolist()], dtype="U16"))
                dst[1].append(np.full(len(img), cat, dtype="U32"))
                dst[2].append(box)
            cols["det"][3].append(ds)
    out = {}
    for kind, parts in cols.items():
        arrays = [np.concatenate(p) for p in parts]
        perm = rng.permutation(len(arrays[0]))
        names = ("image_id", "category", "box", "score")
        out[kind] = {name: a[perm] for name, a in zip(names, arrays)}
    return out["gt"], out["det"]


def write_inputs(gt, det, gt_path, det_path, registry_path):
    for cols, path in ((gt, gt_path), (det, det_path)):
        images = cols["image_id"].tolist()
        cats = cols["category"].tolist()
        boxes = cols["box"].tolist()
        scores = cols["score"].tolist() if "score" in cols else None
        with open(path, "w", encoding="utf-8") as fh:
            for i, (img, cat, box) in enumerate(zip(images, cats, boxes)):
                rec = {"image_id": img, "modality": img.split("-")[0], "category": cat,
                       "bbox": box}
                if scores is not None:
                    rec["score"] = scores[i]
                fh.write(json.dumps(rec) + "\n")
    with open(registry_path, "w", encoding="utf-8") as fh:
        json.dump({"modalities": registry()}, fh, indent=2)


# -- reference AP ------------------------------------------------------------


def _iou(a, b):
    """Row-wise IoU of two (n, 4) box arrays; 0 where the union is empty."""
    ix = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    iy = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a + area_b - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)


def reference_ap(gt_img, gt_box, det_img, det_box, det_score, thresholds=THRESHOLDS):
    """{threshold: AP} for one category. Image ids are strings; ground truth
    is in file order."""
    n_gt, n_det = len(gt_img), len(det_img)
    if n_gt == 0:
        return {t: 1.0 if n_det == 0 else 0.0 for t in thresholds}
    if n_det == 0:
        return {t: 0.0 for t in thresholds}
    _, ranks = np.unique(np.concatenate([np.asarray(gt_img), np.asarray(det_img)]),
                         return_inverse=True)
    g_rank, d_rank = ranks[:n_gt], ranks[n_gt:]
    det_box = np.asarray(det_box, dtype=np.float64)
    gt_box = np.asarray(gt_box, dtype=np.float64)
    order = np.lexsort((det_box[:, 3], det_box[:, 2], det_box[:, 1], det_box[:, 0],
                        d_rank, -np.asarray(det_score, dtype=np.float64)))
    d_rank, det_box = d_rank[order], det_box[order]

    # every (detection, ground truth) pair sharing an image, ground truth
    # in file order within each detection's run of pairs
    by_img = np.argsort(g_rank, kind="stable")
    lo = np.searchsorted(g_rank[by_img], d_rank, "left")
    hi = np.searchsorted(g_rank[by_img], d_rank, "right")
    counts = hi - lo
    pair_det = np.repeat(np.arange(n_det), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    pair_gt = by_img[np.repeat(lo, counts) + np.arange(counts.sum()) - first]
    pair_iou = _iou(det_box[pair_det], gt_box[pair_gt]).tolist()
    pair_gt = pair_gt.tolist()
    ends = np.cumsum(counts).tolist()
    runs = [(i, ends[i] - counts[i], ends[i]) for i in np.flatnonzero(counts).tolist()]

    k = np.arange(1, n_det + 1)
    out = {}
    for t in thresholds:
        matched = bytearray(n_gt)
        flags = np.zeros(n_det, dtype=bool)
        for i, a, b in runs:
            best, best_v = -1, 0.0
            for p in range(a, b):
                j = pair_gt[p]
                if matched[j]:
                    continue
                v = pair_iou[p]
                if v >= t and v > best_v:
                    best, best_v = j, v
            if best >= 0:
                matched[best] = 1
                flags[i] = True
        tp = np.cumsum(flags)
        recall = tp / n_gt
        envelope = np.maximum.accumulate((tp / k)[::-1])[::-1]
        ap, prev = 0.0, 0.0
        for i in np.flatnonzero(flags).tolist():
            ap += (float(recall[i]) - prev) * float(envelope[i])
            prev = float(recall[i])
        out[t] = ap
    return out


def reference_report(gt, det):
    """{category: {threshold: AP}} over the whole set."""
    out = {}
    for cat in categories():
        g = gt["category"] == cat
        d = det["category"] == cat
        out[cat] = reference_ap(gt["image_id"][g], gt["box"][g], det["image_id"][d],
                                det["box"][d], det["score"][d])
    return out


def main():
    """Write one seed's inputs and their reference AP to a directory."""
    import argparse
    import os

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, default=1, help="multiply every count by this")
    parser.add_argument("--out", required=True, help="directory for the inputs")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    gt, det = generate(args.seed, args.scale)
    write_inputs(gt, det, *(os.path.join(args.out, n)
                            for n in ("gt.jsonl", "det.jsonl", "registry.json")))
    ref = {cat: {f"{t:.2f}": ap for t, ap in aps.items()}
           for cat, aps in reference_report(gt, det).items()}
    with open(os.path.join(args.out, "reference_ap.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
    print(f"{len(gt['image_id'])} ground-truth boxes, {len(det['image_id'])} detections")


if __name__ == "__main__":
    main()
