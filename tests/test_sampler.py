import csv
import io
import json
import math
from collections import Counter

import numpy as np
import pytest

from babelkit.cli import bundled_path, main
from babelkit.sampler import (
    MixtureRecipe,
    RecipeEntry,
    draw_epoch,
    expected_counts,
    verify_rates,
)


def bundled():
    return MixtureRecipe.load(bundled_path("recipes/babelrs_table1.json"))


def reference_draw_epoch(recipe, rng_seed):
    """The per-draw reference: a list of (dataset name, index) pairs built
    from the same generator calls, then permuted as one list."""
    rng = np.random.default_rng(rng_seed)
    draws = []
    for e in recipe.entries:
        if e.sample_rate == 0.0:
            continue
        if e.sample_rate == 1.0:
            kept = np.arange(e.size)
        else:
            kept = np.flatnonzero(rng.random(e.size) < e.sample_rate)
        draws.extend((e.name, int(i)) for i in kept)
    order = rng.permutation(len(draws))
    return [draws[i] for i in order]


def as_pairs(recipe, draws):
    dataset, index = draws
    return [(recipe.entries[d].name, i) for d, i in zip(dataset.tolist(), index.tolist())]


MIXED_RECIPES = {
    "rate_zero": MixtureRecipe((RecipeEntry("a", 7, 0.0, ("VQA",)),
                                RecipeEntry("b", 30, 0.5, ("VG",)))),
    "rate_one": MixtureRecipe((RecipeEntry("a", 25, 1.0, ("VQA",)),
                               RecipeEntry("b", 12, 1.0, ("VG",)))),
    "fractional": MixtureRecipe((RecipeEntry("a", 400, 0.3, ("VQA",)),
                                 RecipeEntry("b", 90, 0.85, ("CLS",)),
                                 RecipeEntry("c", 1000, 0.01, ("Caption",)))),
    "all_zero": MixtureRecipe((RecipeEntry("a", 5, 0.0, ("VQA",)),
                               RecipeEntry("b", 8, 0.0, ("VG",)))),
    "mixed": MixtureRecipe((RecipeEntry("a", 60, 0.0, ("VQA",)),
                            RecipeEntry("b", 50, 1.0, ("VG",)),
                            RecipeEntry("c", 300, 0.4, ("CLS",)),
                            RecipeEntry("d", 20, 1.0, ("Caption",)))),
}


class TestTypes:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            RecipeEntry("x", 0, 0.5, ("VQA",))
        with pytest.raises(ValueError):
            RecipeEntry("x", 10, 1.5, ("VQA",))
        with pytest.raises(ValueError):
            RecipeEntry("x", 10, 0.5, ("Banana",))
        with pytest.raises(ValueError):
            RecipeEntry("x", 10, 0.5, ())

    def test_recipe_unique_names(self):
        e = RecipeEntry("x", 10, 0.5, ("VQA",))
        with pytest.raises(ValueError, match="duplicate"):
            MixtureRecipe((e, e))
        with pytest.raises(ValueError):
            MixtureRecipe(())

    def test_entry_size_bounded_at_parse(self):
        entry = {"name": "a", "size": 10**15, "sample_rate": 0.5, "tasks": ["VQA"]}
        with pytest.raises(ValueError, match="^a: size: 1000000000000000 elements"):
            MixtureRecipe.from_dict({"entries": [entry]})
        assert max(e.size for e in bundled().entries) == 1_394_000

    def test_bundled_recipe_shape(self):
        recipe = bundled()
        assert len(recipe.entries) == 12
        names = {e.name for e in recipe.entries}
        assert {"Mini-InternVL", "SARLang", "Million-AID", "GeoChat"} <= names
        multi = next(e for e in recipe.entries if e.name == "Million-AID")
        assert multi.tasks == ("Caption", "CLS")


class TestExpectedCounts:
    def test_bundled_recipe_products(self):
        counts = expected_counts(bundled())
        assert counts["Mini-InternVL"] == pytest.approx(13940.0)
        assert counts["SARLang"] == pytest.approx(675600.0)
        assert counts["GeoChat"] == pytest.approx(64000.0)

    def test_total_is_sum(self):
        recipe = MixtureRecipe(
            (RecipeEntry("a", 10, 0.5, ("VQA",)), RecipeEntry("b", 4, 1.0, ("VG",)))
        )
        counts = expected_counts(recipe)
        assert sum(counts.values()) == pytest.approx(9.0)


class TestDrawEpoch:
    @pytest.mark.parametrize("name", sorted(MIXED_RECIPES))
    def test_equals_per_draw_reference(self, name):
        recipe = MIXED_RECIPES[name]
        for seed in (0, 1, 7, 21, 1234):
            dataset, index = draw_epoch(recipe, seed)
            assert dataset.dtype == np.int64 and index.dtype == np.int64
            assert as_pairs(recipe, (dataset, index)) == reference_draw_epoch(recipe, seed)

    def test_rate_one_includes_everything(self):
        recipe = MixtureRecipe((RecipeEntry("a", 5, 1.0, ("VQA",)),))
        _, index = draw_epoch(recipe, 0)
        assert sorted(index.tolist()) == list(range(5))

    def test_rate_zero_empty(self):
        recipe = MixtureRecipe((RecipeEntry("a", 5, 0.0, ("VQA",)),))
        dataset, index = draw_epoch(recipe, 0)
        assert dataset.size == 0 and index.size == 0

    def test_determinism(self):
        recipe = MixtureRecipe(
            (RecipeEntry("a", 1000, 0.3, ("VQA",)), RecipeEntry("b", 500, 0.9, ("VG",)))
        )
        assert as_pairs(recipe, draw_epoch(recipe, 42)) == as_pairs(recipe, draw_epoch(recipe, 42))
        assert as_pairs(recipe, draw_epoch(recipe, 42)) != as_pairs(recipe, draw_epoch(recipe, 43))

    def test_binomial_concentration(self):
        recipe = MixtureRecipe((RecipeEntry("big", 10**6, 0.6, ("VQA",)),))
        sigma = math.sqrt(10**6 * 0.6 * 0.4)
        for seed in (0, 1, 2):
            n = draw_epoch(recipe, seed)[1].size
            assert abs(n - 600000) <= 3 * sigma

    def test_global_shuffle(self):
        recipe = MixtureRecipe(
            (RecipeEntry("a", 200, 1.0, ("VQA",)), RecipeEntry("b", 200, 1.0, ("VG",)))
        )
        dataset, _ = draw_epoch(recipe, 0)
        # interleaved, not two contiguous blocks
        assert len(set(dataset[:200].tolist())) == 2

    def test_mean_matches_expected_over_seeds(self):
        recipe = MixtureRecipe((RecipeEntry("a", 20000, 0.25, ("VQA",)),))
        n_seeds = 30
        counts = [draw_epoch(recipe, s)[1].size for s in range(n_seeds)]
        sigma = math.sqrt(20000 * 0.25 * 0.75)
        assert abs(np.mean(counts) - 5000) <= 3 * sigma / math.sqrt(n_seeds)

    def test_chi_square_across_seeds(self):
        # marginal counts should be Binomial(n, p): chi-square goodness of
        # fit on a 50-seed sample must not reject at alpha = 0.001
        n, p = 5000, 0.3
        recipe = MixtureRecipe((RecipeEntry("a", n, p, ("VQA",)),))
        counts = np.array([draw_epoch(recipe, s)[1].size for s in range(50)])
        mean, var = n * p, n * p * (1 - p)
        z = (counts - mean) / math.sqrt(var)
        chi2 = float(np.sum(z**2))
        # chi-square(50) 0.999 quantile ~ 86.66
        assert chi2 < 86.66


class TestVerifyRates:
    def test_exact_rates_pass_at_zero_tolerance(self):
        recipe = MixtureRecipe(
            (RecipeEntry("all", 50, 1.0, ("VQA",)), RecipeEntry("none", 50, 0.0, ("VG",)))
        )
        report = verify_rates(draw_epoch(recipe, 0), recipe, abs_tolerance=0.0)
        assert report["all"] == (1.0, True)
        assert report["none"] == (0.0, True)

    def test_bundled_recipe_one_epoch(self):
        recipe = bundled()
        report = verify_rates(draw_epoch(recipe, 0), recipe, abs_tolerance=0.01)
        assert all(ok for _, ok in report.values())

    def test_mismatched_recipe_fails(self):
        recipe = MixtureRecipe((RecipeEntry("a", 100, 0.9, ("VQA",)),))
        other = MixtureRecipe((RecipeEntry("a", 100, 0.1, ("VQA",)),))
        report = verify_rates(draw_epoch(recipe, 0), other, abs_tolerance=0.05)
        assert not report["a"][1]

    def test_unknown_dataset_rejected(self):
        recipe = MixtureRecipe((RecipeEntry("a", 10, 1.0, ("VQA",)),))
        for code in (1, -1):
            with pytest.raises(ValueError, match="unknown dataset"):
                verify_rates((np.array([0, code]), np.array([0, 0])), recipe, 0.1)


def test_sample_csv_equals_reference_rows(tmp_path, capsys):
    # one name needs csv quoting: it holds a comma and a double quote
    entries = [
        {"name": 'odd, "quoted" set', "size": 300, "sample_rate": 0.35, "tasks": ["VQA"]},
        {"name": "plain", "size": 40, "sample_rate": 1.0, "tasks": ["VG"]},
        {"name": "skipped", "size": 10, "sample_rate": 0.0, "tasks": ["CLS"]},
    ]
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    out = tmp_path / "epoch.csv"
    assert main(["sample", "--recipe", str(path), "--seed", "5", "--out", str(out)]) == 0

    reference = reference_draw_epoch(MixtureRecipe.load(path), 5)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("position", "dataset", "index"))
    writer.writerows((i, name, idx) for i, (name, idx) in enumerate(reference))
    assert out.read_bytes() == buf.getvalue().encode("utf-8")

    drawn = Counter(name for name, _ in reference)
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        f"{e['name']}: expected={e['size'] * e['sample_rate']:.1f} drawn={drawn[e['name']]}"
        for e in entries
    ]
