"""The benchmark's local Spark session.

``configure`` must run before pyspark starts its JVM: the master, driver
memory and JVM options are read at launch, and the Python workers that
run the Builder's pandas UDFs inherit ``PYTHONPATH`` from this process
(without ``src`` on it every UDF fails with ``No module named 'repro'``).
All scratch files go under the run's work directory inside the checkout.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

#: Spark cores: the reference figures were taken on 4 cores.
MAX_CORES = 4


def cores() -> int:
    return min(MAX_CORES, len(os.sched_getaffinity(0)))


def driver_memory() -> str:
    """A quarter of physical memory, between 1 and 4 GiB."""
    gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / (1 << 30)
    return f"{max(1, min(4, int(gib / 4)))}g"


def configure(src: Path, work: Path) -> dict:
    """Set the environment the JVM and its Python workers inherit; returns
    the settings to record with the result."""
    n, mem = cores(), driver_memory()
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src)] + ([old] if old else []))
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    # -XX:-UsePerfData: neither the launcher JVM nor the driver JVM writes
    # hsperfdata files outside the work directory.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    tempfile.tempdir = None  # re-read TMPDIR
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.warehouse.dir": str(work / "warehouse"),
        # One partition for the corpus and for every shuffle: at these
        # corpus sizes (under 1 MB) each extra partition adds only task
        # and Python-worker overhead.
        "spark.default.parallelism": "1",
        "spark.sql.shuffle.partitions": "1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
    }
    # A short-lived driver JVM with little live data: the serial collector
    # and C1-only JIT spend fewer threads than the defaults, and made the
    # build faster in side-by-side trials.
    jvm = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:+UseSerialGC -XX:TieredStopAtLevel=1"
    args = ["--master", f"local[{n}]", "--driver-memory", mem, "--driver-java-options", jvm]
    for k, v in conf.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])
    return {"nproc": len(os.sched_getaffinity(0)), "master": f"local[{n}]", "driver_memory": mem,
            "driver_java_options": jvm, "SPARK_LOCAL_DIRS": os.environ["SPARK_LOCAL_DIRS"],
            **conf}


def start():
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
