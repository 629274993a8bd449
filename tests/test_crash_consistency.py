"""Crash consistency, stated once for every write the CLI makes.

Each writing command (``gen-data``, ``train`` for each method,
``export-coreset``) runs through ``cli.main``, once with a good artifact
already at ``--out`` and once with none.  For every k until the command
completes, its k-th file-system mutation fails, in each way listed for its
kind in ``_WAYS``:

- an open for writing: ``ENOSPC`` or ``EACCES``, nothing opened;
- a ``write``/``writelines`` of at least one byte: ``ENOSPC`` before any
  byte, or after the first half of them;
- a ``mkdir`` of an absent path, an ``unlink`` of a present one, an
  ``os.replace``: ``ENOSPC``, nothing done.

A call that changes nothing on disk is not a mutation.  After each failure
the command exits 3 with the error on stderr, no ``*.tmp`` is left, ``--out``
holds the old artifact byte for byte (a run directory may instead have no
manifest, which no command reads as a run), and each reader of the artifact
prints and writes what it did on the old one or refuses with exit 3 or 4.

Training is deterministic and not what this checks, so each distinct
training is run once and its ``RunResult`` reused.  A ``SIGKILL``ed
``train`` process is checked apart, in a real child process.
"""

import builtins
import contextlib
import errno
import io
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import scanprune
from scanprune import cli, rundir, trainer
from scanprune.cli import main

_ENOSPC = (OSError, errno.ENOSPC)
# each kind of mutation -> the ways it fails; a write's second way writes half its bytes first
_WAYS = {"open": (_ENOSPC, (PermissionError, errno.EACCES)), "write": (_ENOSPC, _ENOSPC),
         "mkdir": (_ENOSPC,), "unlink": (_ENOSPC,), "replace": (_ENOSPC,)}


class _Faults:
    """Counts the file-system mutations made while installed, and fails the ``k``-th the ``way``-th way."""

    def __init__(self, k: int, way: int):
        self.k, self.way, self.count, self.failed = k, way, 0, None

    def hit(self, kind: str) -> bool:
        """Count one mutation of ``kind``; True if it is the one to fail."""
        self.count += 1
        if self.count - 1 != self.k:
            return False
        self.failed = kind
        return True

    def error(self) -> OSError:
        cls, code = _WAYS[self.failed][self.way]
        return cls(code, os.strerror(code))

    def install(self, mp: pytest.MonkeyPatch) -> None:
        real_open, real_mkdir, real_unlink, real_replace = builtins.open, os.mkdir, os.unlink, os.replace

        def open_(file, mode="r", *args, **kwargs):
            if set(mode).isdisjoint("wax+"):
                return real_open(file, mode, *args, **kwargs)
            if self.hit("open"):
                raise self.error()
            return _Writer(real_open(file, mode, *args, **kwargs), self)

        def mkdir(path, *args, **kwargs):
            if not os.path.lexists(path) and self.hit("mkdir"):
                raise self.error()
            return real_mkdir(path, *args, **kwargs)

        def unlink(path, *args, **kwargs):
            if os.path.lexists(path) and self.hit("unlink"):
                raise self.error()
            return real_unlink(path, *args, **kwargs)

        def replace(src, dst, *args, **kwargs):
            if self.hit("replace"):
                raise self.error()
            return real_replace(src, dst, *args, **kwargs)

        for module in (builtins, io):  # pathlib opens through io.open
            mp.setattr(module, "open", open_)
        mp.setattr(os, "mkdir", mkdir)
        mp.setattr(os, "unlink", unlink)
        mp.setattr(os, "replace", replace)


class _Writer:
    """A file open for writing whose ``write`` and ``writelines`` are mutations."""

    def __init__(self, fh, faults: _Faults):
        self._fh, self._faults = fh, faults

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def write(self, data):
        view = data if isinstance(data, str) else memoryview(data).cast("B")  # write_frame writes arrays
        if len(view) and self._faults.hit("write"):
            if self._faults.way:
                self._fh.write(view[:len(view) // 2])
            raise self._faults.error()
        return self._fh.write(data)

    def writelines(self, lines):
        lines = list(lines)
        if lines:
            self.write(lines[0][:0].join(lines))


@pytest.fixture(scope="module")
def trained():
    return {}


def _memoized(name: str, trained: dict):
    """``trainer.<name>`` run once per distinct corpus and arguments, its result kept in ``trained``."""
    train = getattr(trainer, name)

    def cached(ds, *args):
        key = (name, ds.view_a.tobytes(), ds.view_b.tobytes(), ds.labels.tobytes(), ds.corruption.tobytes(),
               repr(args))
        if key not in trained:
            trained[key] = train(ds, *args)
        return trained[key]

    return cached


def _run(argv, faults=None):
    """``main(argv)``'s exit code, stdout and stderr, with ``faults`` installed while it runs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.MonkeyPatch.context() as mp:
        if faults is not None:
            faults.install(mp)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _state(out: Path):
    """What a reader finds at ``out``: a file's bytes, a committed run's files by name, or None."""
    if out.is_file():
        return out.read_bytes()
    if (out / rundir.MANIFEST).is_file():
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return None


def _restore(out: Path, state) -> None:
    """Put ``state`` (see :func:`_state`) at ``out``."""
    if out.is_dir():
        shutil.rmtree(out)
    out.unlink(missing_ok=True)
    if isinstance(state, bytes):
        out.write_bytes(state)
    elif state is not None:
        out.mkdir()
        for name, data in state.items():
            (out / name).write_bytes(data)


def _read(argv):
    """A reader's exit code, stdout, and the files it wrote under ``reader/``."""
    code, stdout, _ = _run(argv)
    wrote = {str(p): p.read_bytes() for p in sorted(Path("reader").rglob("*")) if p.is_file()}
    shutil.rmtree("reader", ignore_errors=True)
    return code, stdout, wrote


_GEN = ["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4", "--mismatch-frac", "0.1",
        "--duplicate-frac", "0.1", "--noise-sigma", "0.1"]
_TRAIN = ["--tau-stop", "6", "--t-td", "1.0", "--batch-size", "32", "--out-dim", "4", "--lr", "0.1", "--rho", "0.3"]


def _train(out, method="scan", seed="1", data="ds.bin"):
    return ["train", "--data", data, "--out", out, "--method", method, "--seed", seed, *_TRAIN]


def _export(out, rho):
    return ["export-coreset", "--run-a", "ra", "--run-b", "rb", "--rho", rho, "--out", out]


_RUN_READERS = [["compare", "--runs", "run"], ["compare", "--runs", "run", "--data", "ds.bin"],
                ["export-coreset", "--run-a", "run", "--run-b", "rb", "--rho", "0.25", "--out", "reader/cs.txt"]]
# command -> its argv, its --out, the argvs that write the old artifact there, and that artifact's readers
_COMMANDS = {
    "gen-data": ([*_GEN, "--seed", "5", "--out", "corpus.bin"], "corpus.bin",
                 [[*_GEN, "--seed", "4", "--out", "corpus.bin"], _train("rcorpus", "full", data="corpus.bin")],
                 [_train("reader/run", "full", data="corpus.bin"),
                  ["compare", "--runs", "rcorpus", "--data", "corpus.bin"]]),
    **{f"train-{method}": ([*_train("run", method, seed="2"), *["--coreset", "cs.txt"] * (method == "static")],
                           "run", [_train("run")], _RUN_READERS)
       for method in ("scan", "full", "random", "static")},
    "export-coreset": (_export("coreset.txt", "0.3"), "coreset.txt", [_export("coreset.txt", "0.25")],
                       [[*_train("reader/run", "static"), "--coreset", "coreset.txt"]]),
}


@pytest.mark.parametrize("existing", [False, True], ids=["none", "existing"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_failed_write_leaves_the_old_artifact_or_none(command, existing, trained, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("train_scan", "train_full", "train_random_baseline", "train_static_coreset"):
        monkeypatch.setattr(cli, name, _memoized(name, trained))
    argv, out, write_old, readers = _COMMANDS[command]
    for setup in ([*_GEN, "--seed", "3", "--out", "ds.bin"], _train("ra"), _train("rb", seed="2"),
                  _export("cs.txt", "0.25"), *write_old):
        assert _run(setup)[0] == 0, setup
    out = Path(out)
    old = _state(out) if existing else None
    _restore(out, old)
    want = [_read(reader) for reader in readers]

    k = way = 0
    while True:
        _restore(out, old)
        faults = _Faults(k, way)
        code, _, err = _run(argv, faults)
        if faults.failed is None:
            break
        case = (command, existing, k, faults.failed, way)
        assert code == 3 and err.endswith(f"error code=3 msg={faults.error()}\n"), (case, err)
        assert not list(Path().rglob("*.tmp")), case
        # a run directory may be left with no manifest instead: not a run
        assert _state(out) == old or (isinstance(old, dict) and _state(out) is None), case
        for reader, seen in zip(readers, want):
            got = _read(reader)
            assert got == seen or got[0] in (3, 4), (case, reader, got)
        way += 1
        if way == len(_WAYS[faults.failed]):
            k, way = k + 1, 0
    assert code == 0 and faults.count == k > 0, (command, existing, err)


def test_killed_train_leaves_a_complete_run_or_no_manifest(tmp_path):
    # SIGKILL runs no finally: the manifest, written last, is all that marks a run
    data, run = tmp_path / "ds.bin", tmp_path / "run"
    assert main(["gen-data", "--n", "600", "--dim", "8", "--num-classes", "4", "--seed", "3",
                 "--out", str(data)]) == 0
    argv = [sys.executable, "-m", "scanprune.cli", "train", "--data", str(data), "--out", str(run),
            "--tau-stop", "24", "--batch-size", "32", "--mlp", "--hidden-dim", "256"]
    src = str(Path(scanprune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True)
    whole = time.perf_counter() - start
    for share in (0.3, 0.6, 0.8, 0.9, 0.95, 0.98, 1.0):  # each starts from the run the last one left
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        time.sleep(share * whole)
        proc.kill()  # SIGKILL
        proc.wait()
        if (run / rundir.MANIFEST).exists():  # complete: every listed artifact reads
            manifest = rundir.read_rounds(run)[0]  # a scan run: its manifest lists rounds.bin
            trainer.load_checkpoint(rundir.listed(run, manifest, rundir.CHECKPOINT))
