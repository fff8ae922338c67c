"""Check the benchmark's reference AP against the repo's independent oracle.

    python3 perfbench/selftest.py

Run from the root of a checkout. ``tests.test_detect_eval.oracle_ap``
enumerates prefixes with plain-Python loops; ``evalset.reference_ap`` is the
array code that checks eval-80k. They must agree exactly on small random
instances (with score ties and several images), on slices of a generated
eval-80k set (near-duplicates and tied scores), and on hand-worked cases
whose AP is written out below. Exits 1 on the first disagreement.
"""

import os
import sys

import numpy as np

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import evalset  # noqa: E402
from babelkit.deteval import Box, Detection, GroundTruthEntry  # noqa: E402
from tests.test_detect_eval import oracle_ap  # noqa: E402


def _objects(gt, det):
    gts = [GroundTruthEntry(img, "c", Box(*box)) for img, box in gt]
    dets = [Detection(img, "c", Box(*box), score) for img, box, score in det]
    return gts, dets


def _reference(gt, det, thr):
    g_img = [img for img, _ in gt]
    g_box = np.array([box for _, box in gt], dtype=np.float64).reshape(-1, 4)
    d_img = [img for img, _, _ in det]
    d_box = np.array([box for _, box, _ in det], dtype=np.float64).reshape(-1, 4)
    d_score = [score for _, _, score in det]
    return evalset.reference_ap(g_img, g_box, d_img, d_box, d_score, (thr,))[thr]


def _agree(gt, det, thr, expect=None):
    gts, dets = _objects(gt, det)
    ref, oracle = _reference(gt, det, thr), oracle_ap(dets, gts, thr)
    if ref != oracle or (expect is not None and abs(ref - expect) > 1e-12):
        raise SystemExit(f"reference {ref!r}, oracle {oracle!r}, expected {expect!r}\n"
                         f"gt={gt}\ndet={det}\nthr={thr}")


def random_instances(count=3000, seed=20140501):
    rng = np.random.default_rng(seed)

    def box():
        x0, y0 = rng.uniform(0, 50, 2)
        w, h = rng.uniform(1, 30, 2)
        return [float(x0), float(y0), float(x0 + w), float(y0 + h)]

    images = ["a", "b", "c"]
    for _ in range(count):
        n_det, n_gt = int(rng.integers(0, 12)), int(rng.integers(0, 7))
        gt = [(images[rng.integers(3)], box()) for _ in range(n_gt)]
        det = [(images[rng.integers(3)], box(), float(rng.integers(0, 11)) / 10)
               for _ in range(n_det)]
        # duplicate some detections exactly, and some ground truth
        det += [det[i] for i in rng.integers(0, max(n_det, 1), n_det // 3)] if n_det else []
        gt += [gt[i] for i in rng.integers(0, max(n_gt, 1), n_gt // 3)] if n_gt else []
        _agree(gt, det, float(rng.uniform(0.05, 0.95)))
    return count


def generated_slices(seed=0, n_det=300, n_gt=120):
    gt, det = evalset.generate(seed)
    cats = ("sar.ship", "opt.small-vehicle", "ir.van")
    for cat in cats:
        g = np.flatnonzero(gt["category"] == cat)[:n_gt]
        d = np.flatnonzero(det["category"] == cat)[:n_det]
        g_rows = [(str(gt["image_id"][i]), gt["box"][i].tolist()) for i in g]
        images = {img for img, _ in g_rows}
        # detections on the sliced ground truth's images, plus 20 elsewhere
        on = [i for i in d if det["image_id"][i] in images]
        d = on + [i for i in d if det["image_id"][i] not in images][:20]
        d_rows = [(str(det["image_id"][i]), det["box"][i].tolist(), float(det["score"][i]))
                  for i in d]
        for thr in evalset.THRESHOLDS:
            _agree(g_rows, d_rows, thr)
    return len(cats) * len(evalset.THRESHOLDS)


def hand_worked():
    g = [0.0, 0.0, 10.0, 10.0]
    far = [100.0, 100.0, 110.0, 110.0]
    cases = [
        # (ground truth, detections, IoU threshold, AP worked out by hand)
        # equal scores: image "a" sorts first, so the miss ranks above the hit
        ([("b", g)], [("b", g, 0.8), ("a", g, 0.8)], 0.5, 0.5),
        # equal scores in one image: the box with the smaller xmin ranks first
        ([("i", g)], [("i", [20.0, 20.0, 30.0, 30.0], 0.7), ("i", g, 0.7)], 0.5, 1.0),
        # hit, miss, hit: recall 1/2, 1/2, 1; envelope 1, 2/3, 2/3 -> 1/2 + 1/2 * 2/3
        ([("i", g), ("i", [50.0, 50.0, 60.0, 60.0])],
         [("i", g, 0.9), ("i", far, 0.8), ("i", [50.0, 50.0, 60.0, 60.0], 0.7)], 0.5, 5 / 6),
        # a duplicate of a matched detection is a false positive: hit then miss
        ([("i", g)], [("i", g, 0.9), ("i", [0.0, 0.0, 10.0, 10.5], 0.9)], 0.5, 1.0),
        # a near-duplicate with IoU 100/105, under the threshold, ranks first: miss, hit
        ([("i", g)], [("i", [0.0, 0.0, 10.0, 10.5], 0.95), ("i", g, 0.9)], 0.96, 0.5),
        # the first detection takes the ground truth with the higher IoU (1 over
        # 100/120), so the second still finds its exact match at IoU 0.9
        ([("i", [0.0, 0.0, 10.0, 12.0]), ("i", g)],
         [("i", g, 0.9), ("i", [0.0, 0.0, 10.0, 12.0], 0.8)], 0.9, 1.0),
        # equal IoU (1/3) with both boxes: the earlier one is taken, so the exact
        # second detection finds its box used: hit, miss
        ([("i", g), ("i", [10.0, 0.0, 20.0, 10.0])],
         [("i", [5.0, 0.0, 15.0, 10.0], 0.9), ("i", g, 0.8)], 0.3, 0.5),
        # IoU exactly at the threshold matches: [0,0,10,10] vs [0,0,10,20] is 1/2
        ([("i", [0.0, 0.0, 10.0, 20.0])], [("i", g, 0.9)], 0.5, 1.0),
        # empty categories
        ([], [], 0.5, 1.0),
        ([], [("i", g, 0.5)], 0.5, 0.0),
        ([("i", g)], [], 0.5, 0.0),
    ]
    for gt, det, thr, expect in cases:
        _agree(gt, det, thr, expect)
    return len(cases)


def main():
    print(f"random instances: {random_instances()} agree")
    print(f"eval-80k slices: {generated_slices()} (category, threshold) pairs agree")
    print(f"hand-worked cases: {hand_worked()} agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
