"""API-surface tests: __all__ consistency, the stable facade, deprecations.

Covers the public surface promised in README's "Stable API" table: the
``repro.api`` facade (:class:`COLDConfig` + ``fit``/``save``/``load``),
the keyword-only constructor contract with its one-time positional
deprecation shim, and the CLI flag aliases that mirror config field
names.
"""

import importlib
import json

import numpy as np
import pytest

from repro._compat import reset_positional_warnings

PACKAGES = [
    "repro",
    "repro.api",
    "repro.datasets",
    "repro.core",
    "repro.parallel",
    "repro.baselines",
    "repro.eval",
    "repro.serving",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestAllExports:
    def test_every_all_entry_exists(self, package_name):
        module = importlib.import_module(package_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{package_name}.{name} missing"

    def test_all_is_sorted(self, package_name):
        module = importlib.import_module(package_name)
        assert list(module.__all__) == sorted(module.__all__), (
            f"{package_name}.__all__ is not sorted"
        )

    def test_all_has_no_duplicates(self, package_name):
        module = importlib.import_module(package_name)
        assert len(set(module.__all__)) == len(module.__all__)


class TestTopLevelAPI:
    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_headline_classes_importable_from_top_level(self):
        from repro import (
            COLDModel,
            DiffusionPredictor,
            ParallelCOLDSampler,
            SocialCorpus,
            generate_corpus,
        )

        assert COLDModel and DiffusionPredictor and ParallelCOLDSampler
        assert SocialCorpus and generate_corpus

    def test_every_module_has_a_docstring(self):
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"

    def test_public_classes_have_docstrings(self):
        import inspect

        for package_name in PACKAGES:
            module = importlib.import_module(package_name)
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isclass(obj):
                    assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


class TestCOLDConfig:
    def test_defaults_are_valid(self):
        from repro import COLDConfig

        config = COLDConfig()
        assert config.num_communities == 20
        assert config.fast is True

    def test_validation(self):
        from repro import COLDConfig, ConfigError

        with pytest.raises(ConfigError):
            COLDConfig(num_communities=0)
        with pytest.raises(ConfigError):
            COLDConfig(prior="bogus")
        with pytest.raises(ConfigError):
            COLDConfig(num_iterations=10, burn_in=10)
        with pytest.raises(ConfigError):
            COLDConfig(kappa=0.0)

    def test_is_frozen_and_hashable(self):
        from repro import COLDConfig

        config = COLDConfig()
        with pytest.raises(AttributeError):
            config.seed = 1
        assert hash(COLDConfig(seed=2)) == hash(COLDConfig(seed=2))

    def test_evolve_returns_validated_copy(self):
        from repro import COLDConfig, ConfigError

        base = COLDConfig(seed=0)
        derived = base.evolve(seed=3, num_topics=8)
        assert (derived.seed, derived.num_topics) == (3, 8)
        assert base.seed == 0  # original untouched
        with pytest.raises(ConfigError):
            base.evolve(seeed=1)  # typo'd field name
        with pytest.raises(ConfigError):
            base.evolve(num_topics=-1)  # revalidated

    def test_model_and_fit_kwargs_partition_the_fields(self):
        from dataclasses import fields

        from repro import COLDConfig

        config = COLDConfig()
        covered = set(config.model_kwargs()) | set(config.fit_kwargs())
        # num_time_slices describes the corpus, log_level is consumed by
        # api.fit itself (configure_logging); neither reaches the model.
        declared = {f.name for f in fields(config)} - {
            "num_time_slices",
            "log_level",
        }
        assert covered == declared


class TestFacade:
    @pytest.fixture(scope="class")
    def small_corpus(self):
        from repro.datasets.synthetic import SyntheticConfig, generate_corpus

        corpus, _truth = generate_corpus(
            SyntheticConfig(
                num_users=15, num_communities=3, num_topics=4,
                num_time_slices=6, vocab_size=80, seed=2,
            )
        )
        return corpus

    def test_fit_with_overrides(self, small_corpus):
        from repro import api

        model = api.fit(
            small_corpus, num_communities=3, num_topics=4,
            num_iterations=4, seed=1,
        )
        assert model.fitted
        assert model.num_communities == 3

    def test_fit_config_plus_overrides(self, small_corpus):
        from repro import api

        config = api.COLDConfig(
            num_communities=3, num_topics=4, num_iterations=4, seed=1
        )
        a = api.fit(small_corpus, config)
        b = api.fit(small_corpus, config.evolve(seed=1))
        np.testing.assert_array_equal(a.estimates_.phi, b.estimates_.phi)

    def test_fit_rejects_time_grid_mismatch(self, small_corpus):
        from repro import api

        with pytest.raises(api.ConfigError, match="time slices"):
            api.fit(
                small_corpus,
                num_time_slices=small_corpus.num_time_slices + 1,
                num_iterations=2,
            )

    def test_save_load_roundtrip(self, small_corpus, tmp_path):
        from repro import api

        model = api.fit(
            small_corpus, num_communities=3, num_topics=4,
            num_iterations=3, seed=0,
        )
        api.save(model, tmp_path / "m")
        loaded = api.load(tmp_path / "m")
        np.testing.assert_array_equal(loaded.estimates_.phi, model.estimates_.phi)
        assert loaded.fast == model.fast


class TestKeywordOnlyDeprecation:
    def test_coldmodel_accepts_config_positionally(self):
        from repro import COLDConfig, COLDModel

        reset_positional_warnings()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            model = COLDModel(COLDConfig(num_communities=5, num_topics=6))
        assert (model.num_communities, model.num_topics) == (5, 6)

    def test_coldmodel_rejects_config_plus_kwargs(self):
        from repro import COLDConfig, COLDModel
        from repro.core.model import ModelError

        with pytest.raises(ModelError):
            COLDModel(COLDConfig(), num_topics=4)

    def test_legacy_positionals_warn_once_per_class(self):
        from repro import COLDModel

        reset_positional_warnings()
        with pytest.warns(DeprecationWarning, match="keyword"):
            COLDModel(3, 4)
        import warnings

        with warnings.catch_warnings():  # second use: silent
            warnings.simplefilter("error")
            model = COLDModel(3, 4)
        assert (model.num_communities, model.num_topics) == (3, 4)

    def test_parallel_sampler_positionals_warn(self):
        from repro import ParallelCOLDSampler

        reset_positional_warnings()
        with pytest.warns(DeprecationWarning):
            sampler = ParallelCOLDSampler(3, 4)
        assert (sampler.num_communities, sampler.num_topics) == (3, 4)

    def test_synthetic_config_positionals_warn(self):
        from repro.datasets.synthetic import SyntheticConfig

        reset_positional_warnings()
        with pytest.warns(DeprecationWarning):
            config = SyntheticConfig(25)
        assert config.num_users == 25

    def test_keyword_calls_never_warn(self):
        import warnings

        from repro import COLDModel, ParallelCOLDSampler
        from repro.datasets.synthetic import SyntheticConfig
        from repro.parallel.engine import SimulatedCluster

        reset_positional_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            COLDModel(num_communities=2, num_topics=2)
            ParallelCOLDSampler(num_communities=2, num_topics=2)
            SyntheticConfig(num_users=10)
            SimulatedCluster(num_nodes=2)


class TestCLIAliases:
    def test_dimension_aliases_match_canonical_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        canonical = parser.parse_args(
            ["train", "c.jsonl", "m", "--communities", "7", "--topics", "9"]
        )
        aliased = parser.parse_args(
            ["train", "c.jsonl", "m", "--num-communities", "7",
             "--num-topics", "9"]
        )
        assert canonical.communities == aliased.communities == 7
        assert canonical.topics == aliased.topics == 9

    def test_shared_seed_flag_everywhere(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["generate", "o.jsonl", "--seed", "5"],
            ["train", "c.jsonl", "m", "--seed", "5"],
            ["predict", "m", "c.jsonl", "--seed", "5"],
        ):
            assert parser.parse_args(argv).seed == 5

    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        code = main(
            ["bench", str(path), "--cases", "smoke", "--warmup", "1",
             "--reps", "1", "--sweeps-per-rep", "1",
             "--history", str(history)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["cases"][0]["name"] == "smoke"
        assert payload["cases"][0]["draws_match"] is True
        assert "speedup" in capsys.readouterr().out
        rows = [json.loads(line) for line in history.read_text().splitlines()]
        assert len(rows) == 1 and rows[0]["kind"] == "bench"
