"""Byte-for-byte CLI output, pinned against files captured before the
refactors of the code that computes and prints it.

Each file in ``tests/golden`` is the exact stdout of one command, or, for
``usage-*.txt``, the exact stderr of one usage error.  A change to the scalar
layer, the operators, or rendering that alters a single character of a
verdict, a state, or a JSON field fails here.  The help and usage texts are
argparse's, wrapped to ``COLUMNS=80``.

CI also runs this module from a fresh venv holding the built wheel, under
two hash seeds, with ``-o pythonpath=`` so that bhqc and its circuit files
come from the installed package, not from ``src``.  The one test that runs
``python -m bhqc`` in a child gives it the bhqc this process imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bhqc
from bhqc.cli import _DEMOS, main
from bhqc.operators import GATES

from _shipped import CIRCUITS as SHIPPED_DIR

GOLDEN = Path(__file__).resolve().parent / "golden"
CIRCUITS = sorted(SHIPPED_DIR.glob("*.bhqc"))
# name<TAB>ket: the state behind each classify-<name> golden
CLASSIFY = dict(line.split("\t") for line in
                (GOLDEN / "classify.txt").read_text(encoding="utf-8").splitlines())


def _stdout(capsys, argv, code):
    """The stdout of ``main(argv)``, the same with the gates' move tables
    emptied, as the first call finds them, and filled, as the second does."""
    for op in GATES.values():
        op._moves.clear()
    outputs = []
    for _ in range(2):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    return outputs[0]


@pytest.mark.parametrize("flags, name", [
    ([], "verify-paper.txt"),
    (["--json"], "verify-paper.json"),
])
def test_verify_paper(capsys, flags, name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _stdout(capsys, ["verify-paper", *flags], 2) == expected


@pytest.mark.parametrize("name", _DEMOS)
@pytest.mark.parametrize("flags, suffix", [([], "txt"), (["--json"], "json")])
def test_demo(capsys, name, flags, suffix):
    expected = (GOLDEN / f"demo-{name}.{suffix}").read_text(encoding="utf-8")
    assert _stdout(capsys, ["demo", name, *flags], 0) == expected


@pytest.mark.parametrize("name", CLASSIFY)
@pytest.mark.parametrize("flags, suffix", [([], "txt"), (["--json"], "json")])
def test_classify(capsys, name, flags, suffix):
    expected = (GOLDEN / f"classify-{name}.{suffix}").read_text(encoding="utf-8")
    assert _stdout(capsys, ["classify", CLASSIFY[name], *flags], 0) == expected


# --json lists every step already, so --trace adds nothing to it
@pytest.mark.parametrize("path, flags", [
    *(pytest.param(p, [], id=p.stem) for p in CIRCUITS),
    *(pytest.param(p, ["--trace"], id=f"{p.stem}-trace") for p in CIRCUITS),
])
def test_run_json(capsys, path, flags):
    expected = (GOLDEN / f"run-{path.stem}.json").read_text(encoding="utf-8")
    assert _stdout(capsys, ["run", str(path), "--json", *flags], 0) == expected


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
@pytest.mark.parametrize("flags, suffix", [([], "txt"), (["--trace"], "trace.txt")])
def test_run_text(capsys, path, flags, suffix):
    expected = (GOLDEN / f"run-{path.stem}.{suffix}").read_text(encoding="utf-8")
    assert _stdout(capsys, ["run", str(path), *flags], 0) == expected


@pytest.mark.parametrize("encoding", ["ascii", "cp1252"])
@pytest.mark.parametrize("argv, code, golden", [
    (["verify-paper"], 2, "verify-paper.txt"),
    (["demo", "ghz", "--json"], 0, "demo-ghz.json"),
])
def test_the_output_is_utf8_under_any_stdout_encoding(tmp_path, encoding, argv, code, golden):
    # the child finds first the directory this process imported bhqc from
    found = str(Path(bhqc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [found, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "bhqc", *argv], capture_output=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": encoding})
    assert (result.returncode, result.stderr) == (code, b"")
    assert result.stdout == (GOLDEN / golden).read_bytes()


def test_every_circuit_has_a_golden_file():
    for suffix in ("json", "txt", "trace.txt"):
        pinned = {p.name for p in GOLDEN.glob(f"run-*.{suffix}")
                  if p.name.count(".") == suffix.count(".") + 1}
        assert pinned == {f"run-{p.stem}.{suffix}" for p in CIRCUITS}, suffix


def test_every_demo_has_a_golden_file():
    pinned = {p.name for p in GOLDEN.glob("demo-*")}
    assert pinned == {f"demo-{name}.{suffix}" for name in _DEMOS for suffix in ("txt", "json")}


@pytest.mark.parametrize("command", ["bhqc", "run", "demo", "classify", "verify-paper"])
def test_help(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [] if command == "bhqc" else [command]
    assert main([*argv, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"help-{command}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", [
    ("bhqc", []),
    ("frobnicate", ["frobnicate"]),
    ("classify", ["classify"]),
    ("classify-extra", ["classify", "|00>", "|11>"]),
    ("verify-paper", ["verify-paper", "x"]),
    ("classify-json-value", ["classify", "--json=1", "|00>"]),
    ("run", ["run"]),
])
def test_usage_error(capsys, monkeypatch, name, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = (GOLDEN / f"usage-{name}.txt").read_text(encoding="utf-8")
    # CPython releases differ in one respect: the later 3.12 and 3.13 ones
    # list an invalid choice's alternatives with str(), the earlier with repr()
    plain = expected.replace("'run', 'demo', 'classify', 'verify-paper'",
                             "run, demo, classify, verify-paper")
    assert captured.err in (expected, plain)
