"""Fixtures for the benchmark's own tests: run with
``python3 -m pytest perfbench/tests -q -p no:cacheprovider`` from the
repository root."""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)


@pytest.fixture(scope="session")
def bench_spark(tmp_path_factory):
    """A Spark session started the way the benchmark starts it."""
    from perfbench import session

    session.configure(ROOT / "src", tmp_path_factory.mktemp("perfbench-work"))
    spark = session.start()
    yield spark
    session.stop(spark)
