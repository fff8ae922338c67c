import math

import numpy as np
import pytest

from babelkit import deteval
from babelkit.deteval import (
    DEFAULT_THRESHOLDS,
    Box,
    Detection,
    EvalReport,
    GroundTruthEntry,
    ModalityRegistry,
    Records,
    _ap_from_flags,
    average_precision,
    evaluate,
    global_union_map,
    harmonic_modality_map,
    iou,
    iou_rows,
    modality_map,
)

# Benchmark-table fixtures: per-modality mAP triples (SAR, optical, IR) with
# their printed harmonic means, overall means (category counts 6/15/5), and
# AP@50 triples with printed overall AP@50.
FT_BENCH_ROWS = [
    # (mAP triple, H-mAP, overall mAP, AP@50 triple, overall AP@50)
    ((53.46, 45.18, 44.99), 47.57, 47.05, (84.11, 76.37, 73.28), 77.56),
    ((53.86, 46.23, 48.21), 49.23, 48.37, (84.93, 78.47, 77.43), 79.76),
    ((53.81, 46.49, 47.99), 49.24, 48.47, (84.70, 78.28, 77.17), 79.55),
    ((53.43, 46.94, 48.78), 49.57, 48.79, (84.81, 78.73, 77.96), 79.99),
    ((60.64, 46.47, 48.87), 51.31, 50.20, (89.94, 77.88, 77.99), 80.68),
    ((63.30, 46.96, 51.32), 53.02, 51.57, (91.70, 77.73, 79.63), 81.32),
]
PT_BENCH_ROWS = [
    ((42.00, 33.56, 36.74), 37.12, 36.12),
    ((39.48, 43.43, 45.11), 42.54, 42.84),
    ((50.10, 43.14, 42.35), 44.94, 44.59),
    ((46.70, 43.36, 46.14), 45.35, 44.67),
    ((41.38, 46.23, 45.74), 44.34, 45.02),
    ((43.30, 34.36, 38.27), 38.30, 37.17),
    ((47.90, 40.84, 41.07), 43.03, 42.51),
    ((46.50, 41.01, 42.30), 43.15, 42.52),
]
CATEGORY_COUNTS = (6, 15, 5)


def weighted_overall(triple):
    total = sum(n * v for n, v in zip(CATEGORY_COUNTS, triple))
    return total / sum(CATEGORY_COUNTS)


# -- independent oracle -------------------------------------------------------


def oracle_ap(dets, gts, thr):
    """Prefix-enumeration AP oracle: re-sorts, re-matches, and re-integrates
    the all-points PR envelope with independent plain-Python loops."""
    if not gts:
        return 1.0 if not dets else 0.0
    if not dets:
        return 0.0
    order = sorted(
        range(len(dets)),
        key=lambda i: (
            -dets[i].score,
            dets[i].image_id,
            dets[i].box.xmin,
            dets[i].box.ymin,
            dets[i].box.xmax,
            dets[i].box.ymax,
        ),
    )
    used = set()
    flags = []
    for i in order:
        d = dets[i]
        best, best_v = None, 0.0
        for j, g in enumerate(gts):
            if j in used or g.image_id != d.image_id:
                continue
            ix = min(d.box.xmax, g.box.xmax) - max(d.box.xmin, g.box.xmin)
            iy = min(d.box.ymax, g.box.ymax) - max(d.box.ymin, g.box.ymin)
            inter = max(ix, 0.0) * max(iy, 0.0)
            union = d.box.area + g.box.area - inter
            v = inter / union if union > 0 else 0.0
            if v >= thr and v > best_v:
                best, best_v = j, v
        if best is not None:
            used.add(best)
            flags.append(True)
        else:
            flags.append(False)
    recalls, precisions = [], []
    tp = 0
    for k, f in enumerate(flags, start=1):
        tp += int(f)
        recalls.append(tp / len(gts))
        precisions.append(tp / k)
    ap, prev = 0.0, 0.0
    for i, r in enumerate(recalls):
        if r <= prev:
            continue
        ap += (r - prev) * max(precisions[i:])
        prev = r
    return ap


def quadratic_ap_from_points(recalls, precisions, mode):
    """The evaluator's former envelope: max(precisions[i:]) at every recall
    step, and a scan of every point for each of the 101 recall levels."""
    if not recalls:
        return 0.0
    if mode == "101pt":
        total = 0.0
        for r in (i / 100.0 for i in range(101)):
            p = 0.0
            for rr, pp in zip(recalls, precisions):
                if rr >= r and pp > p:
                    p = pp
            total += p
        return total / 101.0
    ap = 0.0
    prev_recall = 0.0
    for i in range(len(recalls)):
        if recalls[i] <= prev_recall:
            continue
        p = max(precisions[i:])
        ap += (recalls[i] - prev_recall) * p
        prev_recall = recalls[i]
    return ap


def random_instance(rng, n_det, n_gt, category="cat"):
    def box():
        x0, y0 = rng.uniform(0, 50, 2)
        w, h = rng.uniform(1, 30, 2)
        return Box(x0, y0, x0 + w, y0 + h)

    images = ["a", "b", "c"]
    dets = [
        Detection(rng.choice(images), category, box(), float(rng.integers(0, 11)) / 10)
        for _ in range(n_det)
    ]
    gts = [GroundTruthEntry(rng.choice(images), category, box()) for _ in range(n_gt)]
    return dets, gts


class TestIoU:
    def test_identical(self):
        b = Box(0, 0, 1, 1)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_hand_value(self):
        assert iou(Box(0, 0, 2, 2), Box(1, 0, 3, 2)) == pytest.approx(1 / 3)

    def test_degenerate_union(self):
        b = Box(1, 1, 1, 1)
        assert iou(b, b) == 0.0

    def test_table_bit_identical_to_scalar(self):
        rng = np.random.default_rng(21)

        def boxes(n):
            # corners on a coarse grid with signed zeros make identical,
            # touching and zero-area boxes common; the rest are arbitrary
            grid = rng.integers(-3, 4, (n, 4)) * rng.choice([-0.5, 0.5], (n, 4))
            corners = np.where(rng.random((n, 1)) < 0.7, grid, rng.uniform(-2, 2, (n, 4)))
            lo = np.minimum(corners[:, :2], corners[:, 2:])
            hi = np.maximum(corners[:, :2], corners[:, 2:])
            return np.concatenate([lo, hi], axis=1)

        seen = {"zero-area": 0, "identical": 0, "touching": 0, "disjoint": 0}
        for _ in range(300):
            a = boxes(int(rng.integers(1, 8)))
            b = np.concatenate([boxes(int(rng.integers(0, 8))), a[:1]])
            table = iou_rows(a[:, None], b[None])
            assert table.shape == (len(a), len(b))
            for i, ra in enumerate(a.tolist()):
                for j, rb in enumerate(b.tolist()):
                    ba, bb = Box(*ra), Box(*rb)
                    assert table[i, j].hex() == iou(ba, bb).hex(), (ra, rb)
                    seen["zero-area"] += ba.area == 0.0 or bb.area == 0.0
                    seen["identical"] += ra == rb
                    seen["touching"] += ra[2] == rb[0] or ra[3] == rb[1]
                    seen["disjoint"] += ra[2] < rb[0]
        assert min(seen.values()) > 50, seen

    def test_box_validation(self):
        with pytest.raises(ValueError, match="xmax"):
            Box(2, 0, 1, 1)
        with pytest.raises(ValueError, match="ymax"):
            Box(0, 2, 1, 1)


class TestMatchCandidates:
    def test_triples_equal_brute_force(self):
        rng = np.random.default_rng(31)

        def side(n, n_images):
            # corners on a coarse grid make equal IoUs and zero-area boxes
            # common; half the time the last record repeats the first
            corners = rng.integers(0, 5, (n, 4)) * 2.0
            boxes = np.concatenate(
                [np.minimum(corners[:, :2], corners[:, 2:]), np.maximum(corners[:, :2], corners[:, 2:])],
                axis=1,
            )
            images = rng.integers(0, n_images, n)
            if rng.random() < 0.5:
                images[-1], boxes[-1] = images[0], boxes[0]
            return images, boxes

        seen = {"image without gt": 0, "image without dets": 0, "duplicate box": 0}
        for _ in range(300):
            n_images = int(rng.integers(1, 6))
            det_images, det_boxes = side(int(rng.integers(1, 12)), n_images)
            gt_images, gt_boxes = side(int(rng.integers(1, 8)), n_images)
            # IoUs of 0.25 and 0.5 occur on the grid: a pair at exactly min_iou counts
            min_iou = float(rng.choice([0.25, 0.5, rng.uniform(0.05, 0.95)]))
            got = deteval.match_candidates(det_images, det_boxes, gt_images, gt_boxes, min_iou)
            want = []
            for k, (di, db) in enumerate(zip(det_images.tolist(), det_boxes.tolist())):
                for j, (gi, gb) in enumerate(zip(gt_images.tolist(), gt_boxes.tolist())):
                    v = iou(Box(*db), Box(*gb))
                    if gi == di and v >= min_iou:
                        want.append((k, v, j))
            want.sort(key=lambda t: (t[0], -t[1], t[2]))
            assert [(k, v.hex(), j) for k, v, j in got] == [(k, v.hex(), j) for k, v, j in want]
            seen["image without gt"] += bool(set(det_images.tolist()) - set(gt_images.tolist()))
            seen["image without dets"] += bool(set(gt_images.tolist()) - set(det_images.tolist()))
            for images, boxes in ((det_images, det_boxes), (gt_images, gt_boxes)):
                rows = [(i, *b) for i, b in zip(images.tolist(), boxes.tolist())]
                seen["duplicate box"] += len(set(rows)) < len(rows)
        assert min(seen.values()) > 50, seen


class TestAveragePrecision:
    def test_perfect_single(self):
        b = Box(0, 0, 10, 10)
        dets = [Detection("i", "c", b, 0.9)]
        gts = [GroundTruthEntry("i", "c", b)]
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_false_then_true(self):
        gt = GroundTruthEntry("i", "c", Box(0, 0, 10, 10))
        dets = [
            Detection("i", "c", Box(50, 50, 60, 60), 0.9),  # miss
            Detection("i", "c", Box(0, 0, 10, 10), 0.8),  # hit
        ]
        assert average_precision(dets, [gt], 0.5) == 0.5

    def test_empty_conventions(self):
        assert average_precision([], [], 0.5) == 1.0
        assert average_precision(
            [Detection("i", "c", Box(0, 0, 1, 1), 0.5)], [], 0.5
        ) == 0.0
        assert average_precision(
            [], [GroundTruthEntry("i", "c", Box(0, 0, 1, 1))], 0.5
        ) == 0.0

    def test_mixed_categories_rejected(self):
        dets = [Detection("i", "a", Box(0, 0, 1, 1), 0.5)]
        gts = [GroundTruthEntry("i", "b", Box(0, 0, 1, 1))]
        with pytest.raises(ValueError, match="mixed"):
            average_precision(dets, gts, 0.5)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            average_precision([], [], 0.0)
        with pytest.raises(ValueError):
            average_precision([], [], 1.0)

    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            Detection("i", "c", Box(0, 0, 1, 1), 1.2)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            dets, gts = random_instance(rng, rng.integers(0, 9), rng.integers(0, 6))
            thr = float(rng.uniform(0.05, 0.95))
            assert average_precision(dets, gts, thr) == oracle_ap(dets, gts, thr)

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dets, gts = random_instance(rng, 8, 5)
            squared = [
                Detection(d.image_id, d.category, d.box, d.score**2) for d in dets
            ]
            assert average_precision(dets, gts, 0.5) == average_precision(
                squared, gts, 0.5
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            dets, gts = random_instance(rng, 8, 5)
            perm = [dets[i] for i in rng.permutation(len(dets))]
            assert average_precision(dets, gts, 0.5) == average_precision(perm, gts, 0.5)


class TestEnvelope:
    @pytest.mark.parametrize("mode", ["all-points", "101pt"])
    def test_suffix_max_equals_quadratic(self, mode):
        rng = np.random.default_rng(31)
        for _ in range(400):
            n = int(rng.integers(1, 200))
            flags = rng.random(n) < rng.uniform(0.0, 1.0)
            n_gt = max(1, int(flags.sum()) + int(rng.integers(0, 6)))
            recalls, precisions, tp = [], [], 0
            for k, flag in enumerate(flags.tolist(), start=1):
                tp += flag
                recalls.append(tp / n_gt)
                precisions.append(tp / k)
            got = _ap_from_flags(flags, n_gt, mode)
            assert type(got) is float
            assert got.hex() == quadratic_ap_from_points(recalls, precisions, mode).hex()


def one_category_map(dets, gts, thresholds=DEFAULT_THRESHOLDS):
    """Per-threshold AP and mean over the grid for category "c", as
    ``evaluate`` reports them under a one-category registry."""
    registry = ModalityRegistry({"m": ("c",)})
    report = evaluate(Records.of(dets), Records.of(gts), registry, thresholds)
    d = report.per_category_ap["c"]
    return d["per_threshold"], d["mean"]


class TestMapOverThresholds:
    def test_perfect(self):
        b = Box(0, 0, 10, 10)
        per, mean = one_category_map(
            [Detection("i", "c", b, 0.9)], [GroundTruthEntry("i", "c", b)]
        )
        assert mean == 1.0
        assert all(v == 1.0 for v in per.values())

    def test_iou_06_box(self):
        # det IoU with gt = 0.6: AP 1 for thr in {0.50, 0.55, 0.60}, else 0
        gt = GroundTruthEntry("i", "c", Box(0, 0, 10, 10))
        det = Detection("i", "c", Box(0, 0, 10, 6), 0.9)
        per, mean = one_category_map([det], [gt])
        assert mean == pytest.approx(0.3)

    def test_default_grid(self):
        assert DEFAULT_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

    def test_single_threshold_degenerate(self):
        rng = np.random.default_rng(7)
        dets, gts = random_instance(rng, 5, 3, category="c")
        per, mean = one_category_map(dets, gts, [0.5])
        assert mean == average_precision(dets, gts, 0.5)

    def test_empty_threshold_list(self):
        with pytest.raises(ValueError):
            one_category_map([], [], [])


class TestAggregates:
    def test_modality_map_mean(self):
        reg = ModalityRegistry({"m": ("a", "b")})
        assert modality_map({"a": 0.4, "b": 0.6}, reg) == {"m": 0.5}

    def test_modality_map_unregistered_category(self):
        reg = ModalityRegistry({"m": ("a",)})
        with pytest.raises(KeyError, match="'zzz'"):
            modality_map({"zzz": 0.5}, reg)

    def test_soi_det_shape(self):
        reg = ModalityRegistry(
            {
                "sar": tuple(f"s{i}" for i in range(6)),
                "optical": tuple(f"o{i}" for i in range(15)),
                "ir": tuple(f"i{i}" for i in range(5)),
            }
        )
        aps = {f"s{i}": 0.6330 for i in range(6)}
        aps |= {f"o{i}": 0.4696 for i in range(15)}
        aps |= {f"i{i}": 0.5132 for i in range(5)}
        mm = modality_map(aps, reg)
        assert mm["sar"] == pytest.approx(0.6330)
        assert mm["optical"] == pytest.approx(0.4696)
        assert mm["ir"] == pytest.approx(0.5132)
        assert 100 * harmonic_modality_map(mm.values()) == pytest.approx(53.02, abs=0.01)

    @pytest.mark.parametrize("triple,hmap", [(r[0], r[1]) for r in FT_BENCH_ROWS])
    def test_ft_bench_hmap(self, triple, hmap):
        assert harmonic_modality_map(triple) == pytest.approx(hmap, abs=0.01)

    @pytest.mark.parametrize("triple,hmap", [(r[0], r[1]) for r in PT_BENCH_ROWS])
    def test_pt_bench_hmap(self, triple, hmap):
        assert harmonic_modality_map(triple) == pytest.approx(hmap, abs=0.01)

    @pytest.mark.parametrize(
        "triple,overall", [(r[0], r[2]) for r in FT_BENCH_ROWS + PT_BENCH_ROWS]
    )
    def test_overall_map_weighted_identity(self, triple, overall):
        assert weighted_overall(triple) == pytest.approx(overall, abs=0.01)

    @pytest.mark.parametrize("triple,overall", [(r[3], r[4]) for r in FT_BENCH_ROWS])
    def test_ap50_overall_identity(self, triple, overall):
        assert weighted_overall(triple) == pytest.approx(overall, abs=0.02)

    def test_hmap_identities(self):
        assert harmonic_modality_map([0.37, 0.37, 0.37]) == pytest.approx(0.37)
        assert harmonic_modality_map([0.5, 0.0, 0.9]) == 0.0

    def test_hmap_validation(self):
        with pytest.raises(ValueError):
            harmonic_modality_map([])
        with pytest.raises(ValueError):
            harmonic_modality_map([101.0])
        with pytest.raises(ValueError, match="mixed"):
            harmonic_modality_map([50.0, 0.5])

    def test_hmap_le_arithmetic_mean(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            vals = rng.uniform(0.01, 1.0, rng.integers(1, 6))
            h = harmonic_modality_map(vals)
            assert h <= np.mean(vals) + 1e-12
        same = [0.4, 0.4, 0.4]
        assert harmonic_modality_map(same) == pytest.approx(np.mean(same))

    def test_hmap_symmetric_and_increasing(self):
        vals = [0.3, 0.5, 0.7]
        assert harmonic_modality_map(vals) == harmonic_modality_map(vals[::-1])
        assert harmonic_modality_map([0.35, 0.5, 0.7]) > harmonic_modality_map(vals)

    def test_global_union_map(self):
        aps = {f"c{i}": v for i, v in enumerate([0.5346] * 6 + [0.4518] * 15 + [0.4499] * 5)}
        assert 100 * global_union_map(aps) == pytest.approx(47.05, abs=0.01)
        assert global_union_map({"one": 0.42}) == 0.42
        with pytest.raises(ValueError):
            global_union_map({})


class TestRegistry:
    def test_partition_enforced(self):
        with pytest.raises(ValueError, match="more than one"):
            ModalityRegistry({"a": ("x",), "b": ("x",)})
        with pytest.raises(ValueError):
            ModalityRegistry({})
        with pytest.raises(ValueError):
            ModalityRegistry({"a": ()})

    def test_duplicate_within_one_modality_names_it(self):
        with pytest.raises(ValueError) as exc:
            ModalityRegistry({"sar": ("ship", "ship")})
        assert str(exc.value) == "category 'ship' is listed twice in modality 'sar'"


class TestEvaluate:
    def _registry(self):
        return ModalityRegistry({"sar": ("ship",), "optical": ("car", "plane"), "ir": ("person",)})

    def _perfect(self):
        reg = self._registry()
        dets, gts = [], []
        for k, cat in enumerate(reg.categories):
            b = Box(k * 10, 0, k * 10 + 5, 5)
            dets.append(Detection("img", cat, b, 0.9))
            gts.append(GroundTruthEntry("img", cat, b))
        return dets, gts, reg

    def test_perfect_detector(self):
        dets, gts, reg = self._perfect()
        rep = evaluate(Records.of(dets), Records.of(gts), reg)
        assert rep.global_map == 1.0
        assert rep.hmap == 1.0
        assert rep.summary_line() == "mAP=100.00 H-mAP=100.00"

    def test_weakest_link(self):
        dets, gts, reg = self._perfect()
        dets = [d for d in dets if reg.modality_of(d.category) != "ir"]
        rep = evaluate(Records.of(dets), Records.of(gts), reg)
        assert rep.global_map > 0
        assert rep.hmap == 0.0

    def test_report_cross_field_invariants(self):
        rng = np.random.default_rng(9)
        reg = self._registry()
        dets, gts = [], []
        for cat in reg.categories:
            d, g = random_instance(rng, 10, 6, category=cat)
            dets += d
            gts += g
        rep = evaluate(Records.of(dets), Records.of(gts), reg)
        means = {c: v["mean"] for c, v in rep.per_category_ap.items()}
        assert rep.global_map == pytest.approx(np.mean(list(means.values())), abs=1e-9)
        if all(v > 0 for v in rep.per_modality_map.values()):
            k = len(rep.per_modality_map)
            assert rep.hmap == pytest.approx(
                k / sum(1 / v for v in rep.per_modality_map.values())
            )
        # weighted-mean identity between the two aggregates
        weighted = sum(
            len(reg.modalities[m]) * rep.per_modality_map[m] for m in reg.modalities
        ) / len(reg.categories)
        assert rep.global_map == pytest.approx(weighted, abs=1e-9)

    def test_end_to_end_oracle(self):
        rng = np.random.default_rng(10)
        reg = self._registry()
        for _ in range(20):
            dets, gts = [], []
            for cat in reg.categories:
                d, g = random_instance(rng, int(rng.integers(0, 8)), int(rng.integers(0, 5)), cat)
                dets += d
                gts += g
            rep = evaluate(Records.of(dets), Records.of(gts), reg)
            for cat in reg.categories:
                dc = [d for d in dets if d.category == cat]
                gc = [g for g in gts if g.category == cat]
                expect = sum(oracle_ap(dc, gc, t) for t in DEFAULT_THRESHOLDS) / 10
                assert rep.per_category_ap[cat]["mean"] == expect

    def _tied_instance(self, rng):
        """Many images; scores on a 0.1 grid, duplicated ground-truth boxes,
        near-duplicate detections on a half-pixel grid, and top-scored
        detections halfway between two ground truths (equal IoU with both),
        so equal scores and equal IoUs decide many matches. 'person' has no
        ground truth."""
        reg = self._registry()
        images = [f"img{i:02d}" for i in range(40)]
        dets, gts = [], []
        for cat in reg.categories:
            for _ in range(60 if cat != "person" else 0):
                img = images[rng.integers(len(images))]
                x, y = rng.integers(0, 20, 2) * 2.0
                w, h = rng.integers(2, 8, 2) * 2.0
                gts.append(GroundTruthEntry(img, cat, Box(x, y, x + w, y + h)))
                if rng.random() < 0.2:
                    gts.append(gts[-1])
                elif rng.random() < 0.3:
                    gts.append(GroundTruthEntry(img, cat, Box(x + 2.0, y, x + w + 2.0, y + h)))
                    dets.append(Detection(img, cat, Box(x + 1.0, y, x + w + 1.0, y + h), 1.0))
                for _ in range(rng.integers(0, 4)):
                    dx, dy = rng.integers(-1, 2, 2) * 0.5
                    box = Box(x + dx, y + dy, x + w + dx, y + h + dy)
                    dets.append(Detection(img, cat, box, rng.integers(0, 11) / 10))
            for _ in range(30):
                x, y = rng.integers(0, 40, 2) * 1.0
                box = Box(x, y, x + 6.0, y + 6.0)
                dets.append(Detection(images[rng.integers(len(images))], cat, box,
                                      rng.integers(0, 11) / 10))
        return dets, gts, reg

    def test_many_images_with_ties_match_oracle(self):
        dets, gts, reg = self._tied_instance(np.random.default_rng(11))
        assert len(set(gts)) < len(gts)
        rep = evaluate(Records.of(dets), Records.of(gts), reg)
        for cat in reg.categories:
            dc = [d for d in dets if d.category == cat]
            gc = [g for g in gts if g.category == cat]
            per = rep.per_category_ap[cat]["per_threshold"]
            assert per == {t: oracle_ap(dc, gc, t) for t in DEFAULT_THRESHOLDS}
            assert rep.per_category_ap[cat]["ap50"] == per[0.5]
        assert 0.0 < rep.global_map < 1.0

    @pytest.mark.parametrize("first, second", [("a", "a\x00"), ("z", "\u00e9")])
    def test_image_ids_rank_in_python_string_order(self, first, second):
        """Equal scores and boxes on two images, ground truth on one: the image
        id alone orders the two detections, and AP shows which came first."""
        reg = ModalityRegistry({"m": ("c",)})
        box = Box(0, 0, 10, 10)
        for gt_image, expect in ((first, 1.0), (second, 0.5)):
            gts = [GroundTruthEntry(gt_image, "c", box)]
            for images in ((first, second), (second, first)):
                dets = [Detection(image, "c", box, 0.5) for image in images]
                assert oracle_ap(dets, gts, 0.5) == expect
                assert average_precision(dets, gts, 0.5) == expect
                rep = evaluate(Records.of(dets), Records.of(gts), reg)
                per = rep.per_category_ap["c"]["per_threshold"]
                assert per == {t: oracle_ap(dets, gts, t) for t in DEFAULT_THRESHOLDS}

    def test_ap50_outside_the_grid(self):
        dets, gts, reg = self._tied_instance(np.random.default_rng(12))
        rep = evaluate(Records.of(dets), Records.of(gts), reg, thresholds=(0.6, 0.75))
        for cat in reg.categories:
            dc = [d for d in dets if d.category == cat]
            gc = [g for g in gts if g.category == cat]
            assert set(rep.per_category_ap[cat]["per_threshold"]) == {0.6, 0.75}
            assert rep.per_category_ap[cat]["ap50"] == oracle_ap(dc, gc, 0.5)

    def test_one_sort_per_category(self, monkeypatch):
        dets, gts, reg = self._tied_instance(np.random.default_rng(13))
        calls = {"sort": 0, "match": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(deteval, "sort_detections",
                            counted("sort", deteval.sort_detections))
        monkeypatch.setattr(deteval, "match_detections",
                            counted("match", deteval.match_detections))
        scored = [c for c in reg.categories
                  if any(d.category == c for d in dets) and any(g.category == c for g in gts)]
        # a grid without 0.5 matches once more per category, for ap50
        for grid, matches in ((DEFAULT_THRESHOLDS, len(DEFAULT_THRESHOLDS)), ((0.6, 0.75), 3)):
            calls.update(sort=0, match=0)
            evaluate(Records.of(dets), Records.of(gts), reg, thresholds=grid)
            assert calls == {"sort": len(scored), "match": len(scored) * matches}

    def test_unregistered_category_rejected(self):
        reg = self._registry()
        with pytest.raises(KeyError):
            dets = [Detection("i", "ufo", Box(0, 0, 1, 1), 0.5)]
            evaluate(Records.of(dets), Records.of([]), reg)

    def test_first_unregistered_detection_category_named(self):
        # detections carry two unregistered categories, ground truth a third:
        # the first one the detections list is named, not the smallest name
        box = Box(0, 0, 1, 1)
        dets = [Detection("i", c, box, 0.5) for c in ("ship", "zeppelin", "balloon")]
        gts = [GroundTruthEntry("i", c, box) for c in ("ship", "airship")]
        with pytest.raises(KeyError, match="'zeppelin' is not registered"):
            evaluate(Records.of(dets), Records.of(gts), self._registry())

    def test_csv_rows_format(self):
        dets, gts, reg = self._perfect()
        rows = evaluate(Records.of(dets), Records.of(gts), reg).csv_rows(reg)
        assert rows[0] == ("category", "modality", "ap@50", "ap@[.5:.95]")
        assert len(rows) == 1 + len(reg.categories)
