import random

import pytest

from parcelfuzz.harness import build_manifest, manifest_fingerprints
from parcelfuzz.recorder import SCENARIOS, build_dependency_graph, record_session


@pytest.fixture(scope="session")
def corpus():
    """The full shipped scenario set, recorded once per test run."""
    return record_session(["all"])


@pytest.fixture(scope="session")
def shuffled_corpus():
    """Four copies of every scenario in a seeded random order: 76 records,
    several audio sessions whose supports interleave with other scenarios."""
    names = [name for name in SCENARIOS for _ in range(4)]
    random.Random(11).shuffle(names)
    return record_session(names)


@pytest.fixture(scope="session")
def graph(corpus):
    return build_dependency_graph(corpus)


@pytest.fixture(scope="session")
def manifest():
    return build_manifest()


@pytest.fixture(scope="session")
def manifest_fps(manifest):
    return manifest_fingerprints(manifest)
