"""Unit tests for repro.core.params (hyper-parameter rules of §3.3/§6.5)."""

import math

import pytest

from repro.core.params import Hyperparameters, ParameterError, negative_link_prior


class TestHyperparameters:
    def test_valid_construction(self):
        hp = Hyperparameters(
            rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=5.0, lambda1=0.1
        )
        assert hp.rho == 0.5

    @pytest.mark.parametrize(
        "field", ["rho", "alpha", "beta", "epsilon", "lambda0", "lambda1"]
    )
    def test_rejects_nonpositive_values(self, field):
        values = dict(
            rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=5.0, lambda1=0.1
        )
        values[field] = 0.0
        with pytest.raises(ParameterError):
            Hyperparameters(**values)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            Hyperparameters(
                rho=float("inf"), alpha=1, beta=1, epsilon=1, lambda0=1, lambda1=1
            )

    def test_immutability(self):
        hp = Hyperparameters(
            rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=5.0, lambda1=0.1
        )
        with pytest.raises(AttributeError):
            hp.rho = 1.0  # type: ignore[misc]

    def test_with_lambda0_copies(self):
        hp = Hyperparameters(
            rho=0.5, alpha=0.5, beta=0.01, epsilon=0.01, lambda0=5.0, lambda1=0.1
        )
        hp2 = hp.with_lambda0(9.0)
        assert hp2.lambda0 == 9.0
        assert hp.lambda0 == 5.0
        assert hp2.rho == hp.rho


class TestPaperDefaults:
    def test_common_strategy_values(self, tiny_corpus):
        hp = Hyperparameters.default(100, 100, tiny_corpus)
        assert hp.rho == pytest.approx(0.5)  # 50 / C
        assert hp.alpha == pytest.approx(0.5)  # 50 / K
        assert hp.beta == 0.01
        assert hp.epsilon == 0.01
        assert hp.lambda1 == 0.1

    def test_lambda0_rule(self, tiny_corpus):
        C = 3
        hp = Hyperparameters.default(C, 4, tiny_corpus)
        expected = math.log(tiny_corpus.num_negative_links / C**2)
        assert hp.lambda0 == pytest.approx(expected)

    def test_kappa_scales_lambda0(self, tiny_corpus):
        base = Hyperparameters.default(3, 4, tiny_corpus, kappa=1.0)
        scaled = Hyperparameters.default(3, 4, tiny_corpus, kappa=3.0)
        assert scaled.lambda0 == pytest.approx(3.0 * base.lambda0)

    def test_without_corpus_neutral_lambda0(self):
        hp = Hyperparameters.default(10, 10)
        assert hp.lambda0 == 1.0

    def test_rejects_bad_dimensions(self, tiny_corpus):
        with pytest.raises(ParameterError):
            Hyperparameters.default(0, 10, tiny_corpus)
        with pytest.raises(ParameterError):
            Hyperparameters.default(10, 10, tiny_corpus, kappa=0)


class TestScaledDefaults:
    def test_operating_values(self, tiny_corpus):
        hp = Hyperparameters.scaled(4, 8, tiny_corpus)
        assert hp.rho == 0.5
        assert hp.alpha <= 1.0
        assert hp.lambda0 > Hyperparameters.default(4, 8, tiny_corpus).lambda0

    def test_alpha_follows_paper_rule_for_large_k(self, tiny_corpus):
        hp = Hyperparameters.scaled(4, 100, tiny_corpus)
        assert hp.alpha == pytest.approx(0.5)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ParameterError):
            Hyperparameters.scaled(0, 4)


class TestNegativeLinkPrior:
    def test_floored_on_tiny_graphs(self, hand_corpus):
        # hand corpus: 5 users, 4 links -> n_neg = 16, C = 10 -> ln(0.16) < 0
        assert negative_link_prior(hand_corpus, 10) == pytest.approx(0.1)

    def test_positive_on_sparse_graphs(self, tiny_corpus):
        value = negative_link_prior(tiny_corpus, 3)
        assert value > 1.0

    def test_invalid_community_count(self, tiny_corpus):
        with pytest.raises(ParameterError):
            negative_link_prior(tiny_corpus, 0)


class TestResolve:
    """The one §6.5 prior rule every model fits with."""

    @pytest.fixture()
    def resolved(self, monkeypatch):
        """Records every prior a fit resolves."""
        seen: list[Hyperparameters] = []
        original = Hyperparameters.resolve.__func__

        def spy(cls, *args, **kwargs):
            hp = original(cls, *args, **kwargs)
            seen.append(hp)
            return hp

        monkeypatch.setattr(Hyperparameters, "resolve", classmethod(spy))
        return seen

    @pytest.mark.parametrize("prior", ["paper", "scaled"])
    @pytest.mark.parametrize("include_network", [True, False])
    def test_three_models_resolve_one_prior(
        self, tiny_corpus, resolved, prior, include_network
    ):
        from repro.core.model import COLDModel
        from repro.core.perword import COLDPerWordModel
        from repro.parallel.sampler import ParallelCOLDSampler

        settings = {
            "num_communities": 3,
            "num_topics": 4,
            "prior": prior,
            "include_network": include_network,
        }
        COLDModel(**settings).fit(tiny_corpus, num_iterations=1)
        ParallelCOLDSampler(num_nodes=2, **settings).fit(
            tiny_corpus, num_iterations=1
        )
        COLDPerWordModel(**settings).fit(tiny_corpus, num_iterations=1)
        network = tiny_corpus if include_network else None
        factory = {"paper": Hyperparameters.default, "scaled": Hyperparameters.scaled}
        assert resolved == [factory[prior](3, 4, network)] * 3

    def test_given_prior_wins(self, tiny_corpus):
        given = Hyperparameters.default(3, 4).with_lambda0(7.0)
        assert Hyperparameters.resolve(given, 3, 4, tiny_corpus) is given

    def test_kappa_reaches_only_the_paper_prior(self, tiny_corpus):
        paper = Hyperparameters.resolve(None, 3, 4, tiny_corpus, kappa=2.0)
        assert paper == Hyperparameters.default(3, 4, tiny_corpus, kappa=2.0)
        scaled = Hyperparameters.resolve(
            None, 3, 4, tiny_corpus, prior="scaled", kappa=2.0
        )
        assert scaled == Hyperparameters.scaled(3, 4, tiny_corpus)
