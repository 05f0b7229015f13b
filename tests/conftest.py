import multiprocessing
import shutil
from pathlib import Path

import pytest

from claimcheck.catalog import Catalog, load_catalog_file
from claimcheck.gencorpus import GenOptions, write_corpus


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process running, and end it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"processes left running: {left}"


@pytest.fixture(scope="session")
def catalog() -> Catalog:
    return load_catalog_file()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory) -> Path:
    """20-app generated corpus shared by read-only tests."""
    root = tmp_path_factory.mktemp("corpus20")
    write_corpus(root, GenOptions(n_apps=20, consistency=0.76, seed=7))
    return root


@pytest.fixture()
def corpus_copy(small_corpus, tmp_path) -> Path:
    """Mutable copy of the shared corpus for tests that break files."""
    target = tmp_path / "corpus"
    shutil.copytree(small_corpus, target)
    return target
