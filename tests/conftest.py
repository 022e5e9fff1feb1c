"""Fixtures shared by several test modules."""

import pytest

import untangling as ut

EXHAUSTIVE_MAX_N = 7


@pytest.fixture(scope="session")
def exhaustive_corpus():
    """Every almost-planar drawing of a connected outerplanar graph with
    4 <= n <= 7, built once per session."""
    corpus = []
    for n in range(4, EXHAUSTIVE_MAX_N + 1):
        corpus.extend(ut.enumerate_almost_planar_instances(n))
    return corpus
