"""Shared fixtures for the serving tests: a saved model + server booter."""

from __future__ import annotations

import threading

import pytest

from repro.core.influence import community_influence, top_influential_users
from repro.serving import ColdHTTPServer, ModelServer, ServerConfig


@pytest.fixture(scope="session")
def model_path(fitted_model, tmp_path_factory):
    """The fitted tiny model saved to disk (the `cold serve` input)."""
    path = tmp_path_factory.mktemp("serving") / "model"
    fitted_model.save(path)
    return path


@pytest.fixture(scope="session")
def influential_answer():
    """``ModelServer.influential``'s answer computed from scratch:
    ``answer(estimates, topic, sims, seed, size, top_users, cached)``."""

    def answer(estimates, topic, sims, seed, size, top_users, cached):
        influence = community_influence(
            estimates, topic, num_simulations=sims, seed=seed
        )
        users, scores = top_influential_users(
            estimates, influence, size=max(top_users, 1)
        )
        return {
            "topic": topic,
            "num_simulations": sims,
            "communities": influence.top(min(size, estimates.num_communities)),
            "degree": [round(float(d), 6) for d in influence.degree],
            "top_users": [int(u) for u in users[:top_users]],
            "user_scores": [round(float(s), 6) for s in scores[:top_users]],
            "cached": cached,
        }

    return answer


@pytest.fixture(scope="session")
def engine(estimates):
    """An in-process ModelServer over the session's fitted estimates."""
    return ModelServer(estimates, ic_simulations=20, cache_size=64)


@pytest.fixture
def serve():
    """Factory booting a ColdHTTPServer on a free port; drained on teardown."""
    booted: list[tuple[ColdHTTPServer, threading.Thread]] = []

    def boot(
        engine=None,
        model_path=None,
        chaos=None,
        config: ServerConfig | None = None,
        **config_kwargs,
    ) -> ColdHTTPServer:
        if config is None:
            config = ServerConfig(port=0, **config_kwargs)
        server = ColdHTTPServer(
            config, engine=engine, model_path=model_path, chaos=chaos
        )
        thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
        thread.start()
        booted.append((server, thread))
        return server

    yield boot
    for server, thread in booted:
        server.begin_drain()
        thread.join(timeout=10)
        assert not thread.is_alive(), "server failed to drain in teardown"
