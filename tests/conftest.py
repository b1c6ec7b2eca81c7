"""Shared pytest fixtures.

Most tests run against a deliberately small Linux configuration space so the
suite stays fast; the full-scale spaces are only exercised by the census and
scalability tests.
"""

from __future__ import annotations

import os
import random
import shutil

import numpy as np
import pytest

from repro.apps.registry import default_bench_tool_for, get_application
from repro.config.parameter import ParameterKind
from repro.platform.executor import WorkerPoolBackend
from repro.platform.metrics import metric_for_application
from repro.platform.pipeline import BenchmarkingPipeline, VirtualClock
from repro.vm.os_model import linux_os_model, unikraft_os_model
from repro.vm.simulator import SystemSimulator


SMALL_SPACE_OPTIONS = {"extra_compile": 20, "extra_runtime": 12, "extra_boot": 4}


def archive_checkpoint(store, name: str, path: str, tag) -> str:
    """Copy the checkpoint at *path* into its own folder; returns the copy.

    A checkpoint is its manifest plus sidecars (trial rows and the state
    file the next save rotates away), so all of them are copied together.
    """
    folder = os.path.join(store.directory, "at{}".format(tag))
    os.makedirs(folder, exist_ok=True)
    for source in (path,) + store.checkpoint_trial_paths(name):
        shutil.copy(source, folder)
    return os.path.join(folder, os.path.basename(path))


def replay_store(model):
    """A DeepTune model's replay buffer and Welford moments, as arrays."""
    n = model.observation_count
    store = {"features": model._feature_buffer[:n].copy(),
             "targets": model._target_buffer[:n].copy(),
             "crashed": model._crash_buffer[:n].copy()}
    for name in ("feature", "target"):
        moments = getattr(model, "_{}_moments".format(name))
        for field in ("count", "mean", "m2"):
            store["{}_moments.{}".format(name, field)] = np.array(
                getattr(moments, field), dtype=np.float64)
    return store


def learned_stores(algorithm):
    """Every observation store a resume rebuilds, as arrays.

    Empty for the algorithms that learn nothing (random, grid).
    """
    stores = {}
    if hasattr(algorithm, "_observed"):
        stores["observed"] = np.array(algorithm._observed, dtype=np.int64)
    if hasattr(algorithm, "model"):  # DeepTune
        stores.update(replay_store(algorithm.model))
        stores["best_values"] = np.array(
            [[str(value) for value in configuration.as_dict().values()]
             for configuration in algorithm._best_configurations])
        stores["best_objectives"] = np.array(algorithm._best_objectives)
    if hasattr(algorithm, "_X"):  # Bayesian
        stores["X"] = np.array(algorithm._X)
        stores["y"] = np.array(algorithm._y)
        stores["crashed"] = np.array(algorithm._crashed)
    if hasattr(algorithm, "_features"):  # Unicorn
        stores["features"] = np.array(algorithm._features)
        stores["objectives"] = np.array(algorithm._objectives)
    return stores


def assert_stores_equal(first, second) -> None:
    """Equal key sets, and each array equal in dtype, shape and bytes."""
    assert set(first) == set(second)
    for key in first:
        assert first[key].dtype == second[key].dtype, key
        assert first[key].shape == second[key].shape, key
        assert first[key].tobytes() == second[key].tobytes(), key


@pytest.fixture(scope="session")
def small_linux_model():
    """A Linux OS model with a reduced filler-parameter tail (fast to encode)."""
    return linux_os_model(version="v4.19", seed=11, **SMALL_SPACE_OPTIONS)


@pytest.fixture(scope="session")
def linux_model():
    """The experiment-scale Linux OS model used by integration tests."""
    return linux_os_model(version="v4.19", seed=1)


@pytest.fixture(scope="session")
def unikraft_model():
    return unikraft_os_model(seed=1)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def small_space(small_linux_model):
    return small_linux_model.space


@pytest.fixture
def default_configuration(small_linux_model):
    return small_linux_model.space.default_configuration()


def make_simulator(os_model, application_name: str, seed: int = 5) -> SystemSimulator:
    """Build a simulator for *application_name* against *os_model*."""
    application = get_application(application_name)
    bench = default_bench_tool_for(application_name)
    return SystemSimulator(os_model, application, bench, seed=seed)


def make_pipeline(os_model, application_name: str, seed: int = 5) -> BenchmarkingPipeline:
    """Build a full benchmarking pipeline for *application_name*."""
    simulator = make_simulator(os_model, application_name, seed=seed)
    metric = metric_for_application(application_name)
    return BenchmarkingPipeline(simulator, metric, clock=VirtualClock())


def make_pool(os_model, application_name: str, seed: int = 5) -> WorkerPoolBackend:
    """Build a one-worker pool, the single-machine platform, for *application_name*."""
    simulator = make_simulator(os_model, application_name, seed=seed)
    metric = metric_for_application(application_name)
    return WorkerPoolBackend(simulator, metric)


@pytest.fixture
def nginx_simulator(small_linux_model):
    return make_simulator(small_linux_model, "nginx")


@pytest.fixture
def nginx_pipeline(small_linux_model):
    return make_pipeline(small_linux_model, "nginx")


@pytest.fixture
def runtime_kinds():
    return [ParameterKind.RUNTIME]
