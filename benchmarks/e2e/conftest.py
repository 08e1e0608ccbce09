"""pytest wiring for the end-to-end benchmark's own tests."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def fresh_tables_file():
    """Replace ``benchmarks/conftest.py``'s fixture of the same name.

    These tests print no paper tables, and the parent fixture would
    truncate the checked-in ``bench_tables.txt`` that a tier-1 golden
    test compares against.
    """
    yield
