#!/usr/bin/env python3
"""Byte-identity check of tgcl's outputs against recorded digests.

Run from anywhere in a checkout::

    python tools/identity.py --write IDENTITY.json   # record the digests
    python tools/identity.py --check IDENTITY.json   # compare against them

Runs every preset of ``harness.PRESETS`` (``main``, ``ablation`` and
``partition``) through ``harness.execute`` with ``jobs=1`` and ``jobs=2``,
and the ``scale-select`` workload of ``perfbench/workloads.py`` (read, not
edited) with ``jobs=1``, each into a fresh temporary directory, with BLAS
pinned to one thread as ``perfbench/run.py`` pins it. Per output directory
it records the sha256 of ``results.csv``, ``summary.json``,
``config_hash.txt`` and ``resolved_config.json`` as written, of every
``buffer_p<n>.json`` without its ``part_ms`` and of every ``epochs.jsonl``
without its ``wall_ms`` (timings that vary from call to call), plus the
numpy, scipy and BLAS versions. For each ``jobs=1`` output it also
digests the period memo's reuse: one line per run of ``timing.jsonl``
with its ``strategy``, ``variant``, ``seed`` and ``reused_periods`` (with
``jobs=2``, which runs reuse a period varies with scheduling, so it is
left out). ``--check`` exits 1, names every file whose digest differs, is
missing or is new, and counts them; digests taken under other library
versions may differ for that reason alone, and the check says so. It
takes about a minute on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the files of an output directory digested as written
DIGESTED = ("results.csv", "summary.json", "config_hash.txt", "resolved_config.json")
#: the timing key dropped from each JSON file kind before it is digested
UNTIMED = {"buffer_p*.json": "part_ms", "epochs.jsonl": "wall_ms"}
#: the fields of each ``timing.jsonl`` row that say which periods a run reused
REUSE_KEYS = ("strategy", "variant", "seed", "reused_periods")


def _drop(value, key: str):
    if isinstance(value, dict):
        return {k: _drop(v, key) for k, v in value.items() if k != key}
    if isinstance(value, list):
        return [_drop(v, key) for v in value]
    return value


def _untimed(path: Path, key: str) -> bytes:
    """The JSON (or JSON-lines) file without ``key`` anywhere, re-serialized."""
    lines = path.read_text().splitlines() if path.suffix == ".jsonl" else [path.read_text()]
    return "\n".join(json.dumps(_drop(json.loads(line), key)) for line in lines if line).encode()


def digest_outputs(out: Path, label: str, reuse: bool) -> dict[str, str]:
    """``{"<label>/<relative path>": sha256}`` of an output directory, plus
    ``"<label>/reused_periods"`` with ``reuse``."""
    found = {name: out / name for name in DIGESTED}
    for pattern in UNTIMED:
        found.update((str(p.relative_to(out)), p) for p in out.glob(f"runs/*/{pattern}"))
    digests = {}
    for rel, path in sorted(found.items()):
        key = next((k for pattern, k in UNTIMED.items() if path.match(pattern)), None)
        data = path.read_bytes() if key is None else _untimed(path, key)
        digests[f"{label}/{rel}"] = hashlib.sha256(data).hexdigest()
    if reuse:
        rows = [json.loads(line) for line in (out / "timing.jsonl").read_text().splitlines() if line]
        data = "\n".join(json.dumps([row[k] for k in REUSE_KEYS]) for row in rows).encode()
        digests[f"{label}/reused_periods"] = hashlib.sha256(data).hexdigest()
    return digests


def versions() -> dict[str, str]:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def _scale_select_config(harness, work: Path) -> dict:
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS["scale-select"]
    path = work / "scale-select.json"
    path.write_text(json.dumps({**workload.config, "seeds": workloads.seeds(workload, 0)}))
    return harness.load_config(path)


def collect(work: Path) -> dict[str, str]:
    from tgcl import harness

    digests: dict[str, str] = {}
    runs = [(f"{p}/jobs{j}", harness.load_config(preset=p), j) for p in harness.PRESETS for j in (1, 2)]
    runs.append(("scale-select/jobs1", _scale_select_config(harness, work), 1))
    for label, cfg, jobs in runs:
        print(f"running {label}", file=sys.stderr, flush=True)
        harness.execute(cfg, work / label, jobs=jobs)
        digests.update(digest_outputs(work / label, label, reuse=jobs == 1))
    return digests


def compare(want: dict, got: dict) -> list[str]:
    """Every difference between two digest maps, in file order."""
    diffs = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            diffs.append(f"{name}: missing")
        elif name not in want:
            diffs.append(f"{name}: not in the recorded digests")
        elif want[name] != got[name]:
            diffs.append(f"{name}: differs")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="record the digests in FILE")
    mode.add_argument("--check", metavar="FILE", help="compare against the digests in FILE")
    args = parser.parse_args(argv)

    for var in THREAD_PINS:
        os.environ[var] = "1"
    os.environ.pop("TGCL_SEED", None)  # it would override every seed list
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="tgcl-identity-") as tmp:
        got = {"versions": versions(), "digests": collect(Path(tmp))}

    if args.write:
        Path(args.write).write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"{len(got['digests'])} digests written to {args.write}")
        return 0
    want = json.loads(Path(args.check).read_text())
    if want["versions"] != got["versions"]:
        print(f"note: recorded under {want['versions']}, checked under {got['versions']}")
    diffs = compare(want["digests"], got["digests"])
    if diffs:
        print(f"identity check failed: {len(diffs)} files missing, new or differing")
        for diff in diffs:
            print(f"  {diff}")
        return 1
    print(f"identity check passed: {len(got['digests'])} files match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
