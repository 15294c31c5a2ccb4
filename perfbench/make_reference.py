#!/usr/bin/env python3
"""Rewrite reference.json: the seed-0 known answers run.py checks every run.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the numbers, and say so in
the change; a kernel that merely reorders float64 arithmetic must pass
against the existing file.
"""

import importlib
import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
pswa = importlib.import_module("pswa")
work_root = run.HERE / "_work"
work_root.mkdir(exist_ok=True)
with tempfile.TemporaryDirectory(dir=work_root) as work:
    values = {w: run.reference_values(pswa, w, Path(work)) for w in run.WORKLOADS}
(run.HERE / "reference.json").write_text(json.dumps(values, indent=1) + "\n")
