import multiprocessing
import shutil
import sys
import zipfile
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


@pytest.fixture()
def opened_archives(monkeypatch) -> list[zipfile.ZipFile]:
    """Every ZipFile that claimcheck code opens for reading during the test,
    in the order opened."""
    opened = []

    class RecordedZipFile(zipfile.ZipFile):
        def __init__(self, file, mode="r", *args, **kwargs):
            super().__init__(file, mode, *args, **kwargs)
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if mode == "r" and caller.startswith("claimcheck."):
                opened.append(self)

    monkeypatch.setattr(zipfile, "ZipFile", RecordedZipFile)
    return opened


@pytest.fixture(autouse=True)
def no_archive_left_open(opened_archives):
    """Fail a test that leaves open an archive claimcheck opened, and close
    it. A ZipFile closes itself when it is collected, without a
    ResourceWarning, so no warnings filter would see the leak."""
    yield
    left = [archive.filename for archive in opened_archives if archive.fp is not None]
    for archive in opened_archives:
        archive.close()
    assert not left, f"archives left open: {left}"


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
