"""Every benchmark workload's output, byte for byte.

``bench/workloads.py`` builds each workload's pool of cases from a seed.
For seeds 1-10 (850 cases in all) this module runs every case through
in-process ``main`` in a scratch working directory and compares the sha256
of its exit code, stdout and stderr with ``golden/workloads.sha256``.  A
change to the scalars, the operators, the parser or the renderers that
alters one character of any of those outputs fails here, naming the
workload, seed, case index and argv.

The pin also holds the sha256 of each pool's inputs, so a Python whose
``random`` builds other cases fails with its version named, not with 850
unexplained differences.  After a deliberate change of output, write the
pin anew with ``PYTHONPATH=src python tests/test_workloads.py`` and review
which cases changed.
"""

import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from bhqc.cli import main

from _bench import bench_module

PIN = Path(__file__).resolve().parent / "golden" / "workloads.sha256"
SEEDS = range(1, 11)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(workload, work: Path) -> list[tuple[int, tuple[str, ...], str]]:
    """``(index, argv, sha256 of [exit code, stdout, stderr])`` for each case,
    each run with ``work`` as the working directory."""
    for case in workload.cases:
        if case.file_name is not None:
            (work / case.file_name).write_text(case.file_text, encoding="utf-8")
    here = os.getcwd()
    os.chdir(work)
    try:
        outputs = []
        for k, case in enumerate(workload.cases):
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(case.argv))
            digest = _sha(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
            outputs.append((k, case.argv, digest))
        return outputs
    finally:
        os.chdir(here)


def _read_pin() -> tuple[str, dict[tuple[str, str, str], str]]:
    """The Python version the pin was written by, and its hash for each
    ``(workload, seed, index)``; index ``inputs`` is the pool's inputs."""
    lines = PIN.read_text(encoding="ascii").splitlines()
    version = lines[0].removeprefix("# written by CPython ")
    pins = {}
    for line in lines[1:]:
        name, seed, index, digest = line.split()
        pins[name, seed, index] = digest
    return version, pins


def _workloads_module(monkeypatch):
    bench_module(monkeypatch, "exact")
    return bench_module(monkeypatch, "workloads")


@pytest.mark.parametrize("name", ["verify-paper", "classify-mix", "wide-circuits"])
def test_every_case_prints_what_the_pin_holds(monkeypatch, tmp_path, name):
    workloads = _workloads_module(monkeypatch)
    version, pins = _read_pin()
    here = ".".join(map(str, sys.version_info[:3]))
    assert {key[0] for key in pins} == set(workloads.WORKLOADS)
    differ = []
    for seed in SEEDS:
        workload = workloads.make(name, seed)
        assert _sha(workload.inputs_bytes()) == pins[name, str(seed), "inputs"], (
            f"{name} seed {seed}: CPython {here} builds other inputs than "
            f"CPython {version}, which wrote the pin")
        work = tmp_path / str(seed)
        work.mkdir()
        assert sum(key[:2] == (name, str(seed)) for key in pins) == len(workload.cases) + 1
        differ += [f"{name} seed {seed} case {k}: {list(argv)}"
                   for k, argv, digest in _outputs(workload, work)
                   if digest != pins[name, str(seed), str(k)]]
    assert not differ, f"{len(differ)} outputs differ from the pin; the first:\n" + "\n".join(
        differ[:5])


def _write_pin() -> None:
    """Write the pin from the bhqc on ``sys.path``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        workloads = _workloads_module(monkeypatch)
        lines = ["# written by CPython " + ".".join(map(str, sys.version_info[:3]))]
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                workload = workloads.make(name, seed)
                lines.append(f"{name} {seed} inputs {_sha(workload.inputs_bytes())}")
                with tempfile.TemporaryDirectory() as work:
                    lines += [f"{name} {seed} {k} {digest}"
                              for k, _, digest in _outputs(workload, Path(work))]
    PIN.write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    _write_pin()
