"""Fixtures of the process-backend tests."""

import multiprocessing
import threading

import pytest


@pytest.fixture
def leaves_nothing_behind():
    """The test leaves no live worker process and no extra thread."""
    threads = threading.active_count()
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
