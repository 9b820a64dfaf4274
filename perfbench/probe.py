"""Set-up probe: one fresh interpreter imports helmdeconv and builds one workload.

Run by the benchmark from the checkout root as

    python3 perfbench/probe.py <workload> <seed> <work_dir>
    python3 perfbench/probe.py --reference

The first form imports the package, builds the workload's grids, filters,
configs and first input, and prints the ``time.perf_counter()`` readings
``{"started", "imported", "built"}`` taken when the script starts, after the
import and after the build.  The second form is the reference for set-up
time: it imports a fixed set of standard-library modules, pure Python and C
extensions, instead of the package, and prints ``{"started", "built"}``.
``perf_counter`` is the system-wide monotonic clock on Linux, so the parent
subtracts its own reading taken just before it started the process and
gets the time to each point, interpreter start-up included.
"""

import json
import sys
import time

started = time.perf_counter()

if sys.argv[1:] == ["--reference"]:
    import argparse  # noqa: F401
    import asyncio  # noqa: F401
    import ctypes  # noqa: F401
    import decimal  # noqa: F401
    import email.mime.multipart  # noqa: F401
    import http.client  # noqa: F401
    import inspect  # noqa: F401
    import json.decoder  # noqa: F401
    import logging.handlers  # noqa: F401
    import pydoc  # noqa: F401
    import sqlite3  # noqa: F401
    import ssl  # noqa: F401
    import tarfile  # noqa: F401
    import unittest  # noqa: F401
    import urllib.request  # noqa: F401
    import xml.etree.ElementTree  # noqa: F401
    import zipfile  # noqa: F401

    print(json.dumps({"started": started, "built": time.perf_counter()}))
    sys.exit(0)

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import helmdeconv  # noqa: E402

imported = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402

name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
WORKLOADS[name](helmdeconv, seed, work_dir)
built = time.perf_counter()
print(json.dumps({"started": started, "imported": imported, "built": built}))
