"""Pretraining-mixture sampler: per-dataset sizes and sampling rates,
expected counts, and a seeded epoch sampler.

"Sample rate" is a per-sample independent inclusion probability per epoch
(Bernoulli, without replacement), so a dataset of size n at rate r
contributes Binomial(n, r) samples with mean n * r.
"""

from dataclasses import dataclass

import numpy as np

from babelkit.checks import (
    config_elements, config_field, config_int, config_keys, config_list, config_number,
    load_config,
)

TASKS = ("VQA", "VG", "Caption", "CLS")


@dataclass(frozen=True)
class RecipeEntry:
    name: str
    size: int
    sample_rate: float
    tasks: tuple

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"dataset name must be a non-empty string, got {self.name!r}")
        config_int(f"{self.name}: size", self.size, 1)
        config_elements(f"{self.name}: size", self.size)
        config_number(f"{self.name}: sample_rate", self.sample_rate)
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"{self.name}: sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        config_list(f"{self.name}: tasks", self.tasks)
        tasks = tuple(self.tasks)
        if not tasks:
            raise ValueError(f"{self.name}: at least one task required")
        for t in tasks:
            if t not in TASKS:
                raise ValueError(f"{self.name}: unknown task {t!r} (allowed: {TASKS})")
        object.__setattr__(self, "tasks", tasks)


@dataclass(frozen=True)
class MixtureRecipe:
    entries: tuple
    seed: int = 0

    def __post_init__(self):
        config_int("recipe seed", self.seed, 0)
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("recipe needs at least one entry")
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate dataset names: {dupes}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_dict(cls, obj):
        config_keys("recipe", obj, cls.__dataclass_fields__)
        rows = config_field("recipe", obj, "entries")
        if not isinstance(rows, list):
            raise ValueError(f"recipe entries must be a list, got {rows!r}")
        fields = RecipeEntry.__dataclass_fields__
        entries = []
        for row in rows:
            config_keys("recipe entry", row, fields)
            entries.append(RecipeEntry(*(config_field("recipe entry", row, k) for k in fields)))
        return cls(entries=tuple(entries), seed=obj.get("seed", 0))

    @classmethod
    def load(cls, path):
        return cls.from_dict(load_config(path))


def expected_counts(recipe):
    """Expected samples per epoch: size * sample_rate per dataset."""
    return {e.name: e.size * e.sample_rate for e in recipe.entries}


def draw_epoch(recipe, rng_seed):
    """One epoch: include each sample of each dataset independently with
    probability sample_rate, then shuffle globally. Deterministic in
    (recipe, rng_seed); returns two int64 arrays in epoch order, each
    draw's dataset (its position in recipe.entries) and its sample index."""
    rng = np.random.default_rng(rng_seed)
    kept = []
    for e in recipe.entries:
        if e.sample_rate == 0.0:
            kept.append(np.arange(0))
        elif e.sample_rate == 1.0:
            kept.append(np.arange(e.size))
        else:
            kept.append(np.flatnonzero(rng.random(e.size) < e.sample_rate))
    dataset = np.repeat(np.arange(len(kept)), [k.size for k in kept])
    index = np.concatenate(kept)
    order = rng.permutation(index.size)
    return dataset[order], index[order]


def verify_rates(draws, recipe, abs_tolerance):
    """Empirical inclusion rate per dataset against the configured rate.
    ``draws`` is draw_epoch's (dataset, index) pair. Returns
    {name: (empirical_rate, passed)}; a dataset code outside the recipe is
    an error."""
    dataset = np.asarray(draws[0], dtype=np.int64)
    n = len(recipe.entries)
    unknown = dataset[(dataset < 0) | (dataset >= n)]
    if unknown.size:
        raise ValueError(f"draw references unknown dataset {int(unknown[0])}")
    counts = np.bincount(dataset, minlength=n).tolist()
    report = {}
    for e, count in zip(recipe.entries, counts):
        emp = count / e.size
        report[e.name] = (emp, abs(emp - e.sample_rate) <= abs_tolerance)
    return report
