import pathlib

import pytest

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def pytest_report_header(config):
    # pyproject.toml's pythonpath puts this tree's src/ ahead of PYTHONPATH,
    # so a test file tests the tree it sits in; the header names that code
    import isolab

    return f"isolab under test: {pathlib.Path(isolab.__file__).resolve()}"


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS
