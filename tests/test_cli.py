import contextlib
import io
import json
import os
import random
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import scanprune
from scanprune import load_dataset
from scanprune.cli import main
from scanprune.coreset import load_coreset
from scanprune.dataset import DUPLICATE, MISMATCHED, DatasetError, read_frame, write_frame
from scanprune.rundir import _ROUNDS_MAGIC, _ROUNDS_VERSION, _rounds_layout, read_metrics, read_rounds, read_run
from scanprune.trainer import CheckpointError, TrainConfig, load_checkpoint


@pytest.fixture()
def data_file(tmp_path):
    out = tmp_path / "ds.bin"
    rc = main(["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4",
               "--mismatch-frac", "0.1", "--duplicate-frac", "0.1",
               "--noise-sigma", "0.1", "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


def _train(data_file, out_dir, *extra):
    args = ["train", "--data", str(data_file), "--out", str(out_dir),
            "--tau-stop", "6", "--t-td", "1.0", "--batch-size", "32",
            "--out-dim", "4", "--lr", "0.1", "--rho", "0.3"]
    return main(args + list(extra))


def test_gen_data_writes_loadable_corpus(data_file):
    ds = load_dataset(data_file)
    assert ds.n == 64 and ds.dim == 8 and ds.num_classes == 4
    assert int((ds.corruption == MISMATCHED).sum()) == 6
    assert int((ds.corruption == DUPLICATE).sum()) == 6


def test_schedule_table(capsys):
    assert main(["schedule", "--tau-cos", "3", "--epochs", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epoch,phase,rho_cur"
    assert len(lines) == 9
    rhos = [line.split(",")[2] for line in lines[1:]]
    assert rhos == ["0", "0.25", "0.75", "1"] * 2
    phases = [line.split(",")[1] for line in lines[1:5]]
    assert phases == ["Prepare", "Mutate", "Mutate", "Mutate"]


def test_train_writes_run_artifacts(data_file, tmp_path):
    out = tmp_path / "run"
    assert _train(data_file, out, "--method", "scan", "--seed", "1") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "scan"
    assert manifest["config"]["seed"] == 1
    assert manifest["artifacts"] == ["checkpoint.bin", "metrics.jsonl", "rounds.bin"]
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.bin", "manifest.json", "metrics.jsonl",
                                                     "rounds.bin"]
    # one round, prepared at epoch 2; mutation epochs 3-5 each exclude ids from it
    _, history, exclusions, n = read_rounds(out)
    assert n == 64 and [c.built_at_epoch for c in history] == [2] and sorted(exclusions) == [3, 4, 5]
    assert len(read_metrics(out / "metrics.jsonl")) == 6
    load_checkpoint(out / "checkpoint.bin")  # parses cleanly


def test_train_repeat_is_bit_identical(data_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _train(data_file, a, "--seed", "5") == 0
    assert _train(data_file, b, "--seed", "5") == 0
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()

    def masked(path):
        recs = []
        for line in (path / "metrics.jsonl").read_text().splitlines():
            rec = json.loads(line)
            rec["wall_ms"] = 0.0
            recs.append(rec)
        return recs

    assert masked(a) == masked(b)


def test_export_coreset_and_static_training(data_file, tmp_path, monkeypatch):
    ra, rb = tmp_path / "ra", tmp_path / "rb"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    cs = tmp_path / "coreset.txt"
    reads = []
    monkeypatch.setattr("scanprune.rundir.read_metrics", lambda path: reads.append(path) or read_metrics(path))
    assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb),
                 "--rho", "0.25", "--out", str(cs)]) == 0
    assert reads == [ra / "metrics.jsonl", rb / "metrics.jsonl"]  # each run read once
    ids = load_coreset(cs)
    assert len(ids) == 64 - 16
    assert ids == sorted(set(ids)) and min(ids) >= 0 and max(ids) < 64

    out = tmp_path / "static"
    assert _train(data_file, out, "--method", "static", "--coreset", str(cs)) == 0
    recs = read_metrics(out / "metrics.jsonl")
    assert all(r.active_size == 48 for r in recs)


def test_compare_tabulates_runs(data_file, tmp_path, capsys):
    ra, rb = tmp_path / "ra", tmp_path / "rb"
    assert _train(data_file, ra, "--method", "scan", "--seed", "1") == 0
    assert _train(data_file, rb, "--method", "full", "--seed", "1") == 0
    capsys.readouterr()
    assert main(["compare", "--runs", f"{ra},{rb}", "--data", str(data_file),
                 "--probe-seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["method", "run", "probe_acc", "mean_samples", "wall_ms"]
    assert len(lines) == 3
    assert lines[1].startswith("scan") and lines[2].startswith("full")
    for line in lines[1:]:
        probe = float(line.split()[2])
        assert 0.0 <= probe <= 1.0


def test_bad_flags_exit_2(data_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data_file), "--out", str(tmp_path / "x"),
              "--method", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--n", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data_file), "--out", str(tmp_path / "x"), "--mode", "bogus"])
    assert exc.value.code == 2


def test_missing_file_exit_3(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path / "run")]) == 3
    assert main(["compare", "--runs", str(tmp_path / "ghost")]) == 3


def test_invalid_config_exit_4(data_file, tmp_path):
    assert _train(data_file, tmp_path / "x", "--rho", "0.9") == 4
    assert main(["gen-data", "--n", "2", "--dim", "8", "--num-classes", "4",
                 "--out", str(tmp_path / "bad.bin")]) == 4
    assert main(["schedule", "--tau-cos", "0", "--epochs", "4"]) == 4


def test_gen_data_beyond_u32_header_exits_4_before_generating(tmp_path, monkeypatch, capsys):
    def must_not_generate(*args):  # the generator's first step after its spec check
        pytest.fail("corpus generation started on an oversized spec")

    monkeypatch.setattr("scanprune.dataset._class_prototypes", must_not_generate)
    out = tmp_path / "x.bin"
    assert main(["gen-data", "--n", "5000000000", "--dim", "4000", "--num-classes", "3",
                 "--out", str(out)]) == 4
    assert "u32" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_gen_data_non_finite_noise_sigma_exits_4_before_generating(tmp_path, monkeypatch, capsys, sigma):
    def must_not_generate(*args):  # the generator's first step after its spec check
        pytest.fail("corpus generation started on a non-finite noise_sigma")

    monkeypatch.setattr("scanprune.dataset._class_prototypes", must_not_generate)
    out = tmp_path / "x.bin"
    assert main(["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4", "--noise-sigma", sigma,
                 "--out", str(out)]) == 4
    assert "noise_sigma" in capsys.readouterr().err
    assert not out.exists()


def test_model_too_large_to_allocate_exits_4(data_file, tmp_path, capsys):
    # 1e11 x 8 float64 weights are 5.8 TiB: refused at allocation, nothing is filled.
    # The others are shapes NumPy cannot address (a dimension or a byte count past
    # intp), which it rejects before allocating anything.
    cases = (["--out-dim", "100000000000"], ["--out-dim", "100000000000000000000"],
             ["--out-dim", "1152921504606846976"], ["--mlp", "--hidden-dim", "100000000000000000000"])
    for i, extra in enumerate(cases):
        out = tmp_path / f"run{i}"
        assert _train(data_file, out, *extra) == 4, extra
        assert "out of memory" in capsys.readouterr().err
        assert not out.exists()


def test_schedule_negative_epochs_exit_4(capsys):
    assert main(["schedule", "--tau-cos", "3", "--epochs", "-1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "epochs must be >= 0" in captured.err
    assert main(["schedule", "--tau-cos", "3", "--epochs", "0"]) == 0
    assert capsys.readouterr().out == "epoch,phase,rho_cur\n"
    # rejected even though no row would be printed
    assert main(["schedule", "--tau-cos", "0", "--epochs", "0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "tau_cos must be >= 1" in captured.err


class _LineCounter:
    """A stdout that keeps only the number of lines written to it."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


def test_schedule_streams_its_rows():
    # each row is printed as it is made: a table built first would peak near 10 MB here
    sink = _LineCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["schedule", "--tau-cos", "3", "--epochs", "50000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == 1 + 50000
    assert peak < 1 << 20, peak


def test_invalid_numbers_exit_4_before_training(data_file, tmp_path, capsys):
    cases = (["--rho", "0.5"], ["--lr", "nan"], ["--t-td", "inf"], ["--tau-cos", "0"],
             ["--mlp", "--hidden-dim", "0"])
    for i, extra in enumerate(cases):
        out = tmp_path / f"run{i}"
        assert _train(data_file, out, *extra) == 4, extra
        assert "invalid config" in capsys.readouterr().err
        assert not out.exists()  # rejected before the run directory is made


def test_compare_empty_metrics_exit_4(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    (run / "metrics.jsonl").write_text("")
    capsys.readouterr()
    assert main(["compare", "--runs", str(run)]) == 4
    assert "no epoch records" in capsys.readouterr().err


def test_negative_or_malformed_seed_exit_4(data_file, tmp_path, monkeypatch, capsys):
    gen = ["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4", "--out", str(tmp_path / "g.bin")]
    assert main(gen + ["--seed", "-1"]) == 4
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("seed = -2\n")
    for i, extra in enumerate((["--seed", "-1"], ["--config", str(cfg)])):
        out = tmp_path / f"run{i}"
        assert _train(data_file, out, *extra) == 4, extra
        assert not out.exists()
    capsys.readouterr()
    # rejected before any run is read: the run directory does not exist
    assert main(["compare", "--runs", str(tmp_path / "absent"), "--probe-seed", "-1"]) == 4
    assert "--probe-seed" in capsys.readouterr().err
    assert not (tmp_path / "g.bin").exists()
    # the environment sets no seed: a command given no --seed takes the default 0
    monkeypatch.delenv("SCAN_SEED", raising=False)
    assert main(gen) == 0
    unset = (tmp_path / "g.bin").read_bytes()
    for raw in ("7", "abc"):
        monkeypatch.setenv("SCAN_SEED", raw)
        assert main(gen) == 0
        assert (tmp_path / "g.bin").read_bytes() == unset
        out = tmp_path / f"env-{raw}"
        assert _train(data_file, out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 0


def test_config_file_with_flag_override(data_file, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# comment line\nlr = 0.25\nbatch_size = 16\nseed = 9\n")
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(data_file),
               "--out", str(out), "--tau-stop", "6", "--t-td", "1.0",
               "--out-dim", "4", "--lr", "0.5"])
    assert rc == 0
    conf = json.loads((out / "manifest.json").read_text())["config"]
    assert conf["lr"] == 0.5  # flag wins over file
    assert conf["batch_size"] == 16 and conf["seed"] == 9


def test_config_file_rejects_unknown_key(data_file, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    assert main(["train", "--config", str(cfg), "--data", str(data_file),
                 "--out", str(tmp_path / "run")]) == 4


def test_epsilon_is_refused_as_a_flag_and_as_a_config_key(data_file, tmp_path, capsys):
    # the warm-up rule's division guard is the constant 1e-12, not a setting
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        _train(data_file, out, "--epsilon", "0")
    assert exc.value.code == 2
    cfg = tmp_path / "old.cfg"
    cfg.write_text("epsilon = 1e-12\n")
    capsys.readouterr()
    assert _train(data_file, out, "--config", str(cfg)) == 4
    assert "unknown config key: epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_run_whose_manifest_records_epsilon_still_reads(data_file, tmp_path, capsys):
    ra, rb, cs = tmp_path / "ra", tmp_path / "rb", tmp_path / "coreset.txt"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    compare = ["compare", "--runs", f"{ra},{rb}", "--data", str(data_file), "--probe-seed", "0"]
    export = ["export-coreset", "--run-a", str(ra), "--run-b", str(rb), "--rho", "0.25", "--out", str(cs)]
    capsys.readouterr()
    assert main(compare) == 0 and main(export) == 0
    want = capsys.readouterr().out, cs.read_bytes()
    for run in (ra, rb):  # as a run written before epsilon became a constant records it
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["config"]["epsilon"] = 1e-12
        (run / "manifest.json").write_text(json.dumps(manifest, indent=2))
    cs.unlink()
    assert main(compare) == 0 and main(export) == 0
    assert (capsys.readouterr().out, cs.read_bytes()) == want


def test_config_line_without_equals_exit_4(data_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment\nlr 0.1\n")
    out = tmp_path / "run"
    assert _train(data_file, out, "--config", str(cfg)) == 4
    assert "bad config line 2: 'lr 0.1'" in capsys.readouterr().err
    assert not out.exists()


def test_static_without_coreset_exit_4(data_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert _train(data_file, out, "--method", "static") == 4
    assert "--coreset is required for method=static" in capsys.readouterr().err
    assert not out.exists()


def _child_env() -> dict:
    """The environment with ``src`` put first on ``PYTHONPATH``, so a child process imports this scanprune."""
    src = str(Path(scanprune.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "scanprune.cli", "schedule",
                           "--tau-cos", "2", "--epochs", "3"],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "epoch,phase,rho_cur"


def test_bad_invocations_of_a_real_process_exit_2_3_or_4_without_a_traceback(data_file, tmp_path):
    # Each command as a shell runs it: stderr ends in its one error line and holds
    # no traceback or NumPy warning, and nothing is written.  b"\xff" is a path
    # byte that is not UTF-8.
    (tmp_path / "taken").write_text("")
    huge = str(10 ** 400)  # no float holds it: math.ceil(tau_stop / 4) once raised OverflowError
    (tmp_path / "huge.cfg").write_text(f"tau_stop = {huge}\n")
    gen = ["gen-data", "--n", "16", "--dim", "4", "--num-classes", "2", "--out", "x.bin"]
    train = ["train", "--data", str(data_file), "--out", "run"]
    cases = [  # argv, exit code, the end of stderr's last line
        (gen + ["--noise-sigma", "1e300"], 4, "noise_sigma=1e+300 overflows the float32 views (overflow "
                                              "encountered in cast)"),
        (gen + ["--noise-sigma", "1e308"], 4, "noise_sigma=1e+308 overflows the float32 views (overflow "
                                              "encountered in multiply)"),
        (train + ["--batch-size", "16", "--tau-stop", "8", "--lr", "1e300"], 4,
         "training failed: overflow at epoch 0: overflow encountered in multiply"),
        (train + ["--batch-size", "2", "--tau-cos", "1", "--rho", "0.4999999999999999"], 4, "counts as 0.5"),
        (train + ["--tau-stop", huge], 4, "tau_stop must be <= 4294967296, the u32 limit of rounds.bin's epochs"),
        (train + ["--config", "huge.cfg"], 4, "tau_stop must be <= 4294967296, the u32 limit of rounds.bin's epochs"),
        (["schedule", "--tau-cos", huge, "--epochs", "2"], 4,
         "tau_cos must be <= 4294967296, the u32 limit of rounds.bin's epochs"),
        (train + ["--out", b"taken/\xff"], 3, "Not a directory: 'taken'"),
        (train + ["--batch-size", "many"], 2, "argument --batch-size: invalid int value: 'many'"),
        (["schedule", "--tau-cos", "3", "--epochs", "-1"], 4, "epochs must be >= 0"),
        (["export-coreset", "--run-a", "absent", "--run-b", "absent", "--rho", "0.3", "--out", "c.txt"], 3,
         "No such file or directory: 'absent/manifest.json'"),
        (["compare", "--runs", "taken"], 3, "Not a directory: 'taken/manifest.json'"),
    ]
    env = _child_env()
    for argv, code, message in cases:
        proc = subprocess.run([sys.executable, "-m", "scanprune.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True)
        err = proc.stderr.decode(errors="replace")
        assert proc.returncode == code and err.endswith(message + "\n"), (argv, err)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.bin", "huge.cfg", "taken"]


def test_compare_malformed_metrics_exit_4(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    good = (run / "metrics.jsonl").read_text().splitlines()[0]
    wrong_type = json.dumps(dict(json.loads(good), active_size="many"))
    bool_and_non_finite = json.dumps(dict(json.loads(good), epoch=True, active_size=True,
                                          mean_loss_fg=float("nan"), mean_loss_gf=float("inf")))
    past_float = json.dumps(dict(json.loads(good), wall_ms=10 ** 400))  # compare's sum once overflowed
    for bad in ("{", '{"epoch": 1}', "[1, 2]", wrong_type, bool_and_non_finite, past_float):
        (run / "metrics.jsonl").write_text(good + "\n" + bad + "\n")
        capsys.readouterr()
        assert main(["compare", "--runs", str(run)]) == 4, bad
        assert "bad run directory" in capsys.readouterr().err


def test_compare_malformed_manifest_exit_4(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    for bad in ("{not json", "{}", "[]"):
        (run / "manifest.json").write_text(bad)
        capsys.readouterr()
        assert main(["compare", "--runs", str(run)]) == 4, bad
        assert "bad run directory" in capsys.readouterr().err


def test_compare_data_dim_mismatch_exit_4(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    other = tmp_path / "other.bin"
    assert main(["gen-data", "--n", "64", "--dim", "6", "--num-classes", "4",
                 "--seed", "3", "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["compare", "--runs", str(run), "--data", str(other)]) == 4
    assert "differs from dataset dim" in capsys.readouterr().err


def test_oversized_dataset_header_exit_4(data_file, tmp_path, capsys):
    raw = bytearray(data_file.read_bytes())
    raw[8:16] = struct.pack("<II", 2**32 - 1, 2**32 - 1)  # n, dim
    huge = tmp_path / "huge.bin"
    huge.write_bytes(bytes(raw))
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    capsys.readouterr()
    assert main(["compare", "--runs", str(run), "--data", str(huge)]) == 4
    assert "bad dataset file" in capsys.readouterr().err
    assert _train(huge, tmp_path / "run2") == 4


def test_dataset_with_zero_dim_or_unknown_flag_exit_4(data_file, tmp_path, capsys):
    raw = data_file.read_bytes()
    zero_dim = tmp_path / "zero_dim.bin"  # n=64, dim=0: no views, then labels and flags
    zero_dim.write_bytes(raw[:12] + struct.pack("<I", 0) + raw[16:20] + raw[-5 * 64:])
    bad_flag = tmp_path / "bad_flag.bin"
    bad_flag.write_bytes(raw[:-1] + bytes([3]))
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    for bad in (zero_dim, bad_flag):
        capsys.readouterr()
        assert _train(bad, tmp_path / "run2") == 4, bad
        assert "bad dataset file" in capsys.readouterr().err
        assert not (tmp_path / "run2").exists()
        assert main(["compare", "--runs", str(run), "--data", str(bad)]) == 4, bad
        assert "bad dataset file" in capsys.readouterr().err


def test_dataset_with_trailing_bytes_exit_4(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    long = tmp_path / "long.bin"
    long.write_bytes(data_file.read_bytes() + bytes(40))
    capsys.readouterr()
    assert _train(long, tmp_path / "run2") == 4
    err = capsys.readouterr().err
    assert "bad dataset file" in err and "overlong" in err
    assert not (tmp_path / "run2").exists()
    assert main(["compare", "--runs", str(run), "--data", str(long)]) == 4
    assert "overlong" in capsys.readouterr().err


def test_hidden_dim_without_mlp_exit_4(data_file, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("hidden_dim = 64\n")
    for i, extra in enumerate((["--hidden-dim", "64"], ["--config", str(cfg)])):
        out = tmp_path / f"run{i}"
        assert _train(data_file, out, *extra) == 4, extra
        err = capsys.readouterr().err
        assert "invalid config" in err and "hidden_dim" in err and "mlp" in err, extra
        assert not out.exists()
    assert _train(data_file, tmp_path / "mlp", "--config", str(cfg), "--mlp") == 0


@pytest.mark.parametrize("case", ["cut inside the header", "version 2"])
def test_compare_checkpoint_header_cut_or_of_another_version_exit_4(data_file, tmp_path, capsys, case):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    ckpt = run / "checkpoint.bin"
    raw = ckpt.read_bytes()
    # header: magic, then 20 bytes of u32 version, is_mlp, dim, hidden, out_dim
    bad, message = {"cut inside the header": (raw[:4 + 13], "truncated header"),
                    "version 2": (raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported version 2")}[case]
    ckpt.write_bytes(bad)
    capsys.readouterr()
    assert main(["compare", "--runs", str(run), "--data", str(data_file)]) == 4
    captured = capsys.readouterr()
    assert "cannot probe" in captured.err and message in captured.err
    assert captured.out == ""


def test_compare_checkpoint_header_of_no_model_exit_4(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    ckpt = run / "checkpoint.bin"
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:20] + struct.pack("<I", 0) + raw[24:])  # out_dim=0
    capsys.readouterr()
    assert main(["compare", "--runs", str(run), "--data", str(data_file)]) == 4
    captured = capsys.readouterr()
    assert "cannot probe" in captured.err and "no model" in captured.err
    assert captured.out == ""


def _edit_rounds(path, edit) -> None:
    """Rewrite the rounds file at ``path`` after ``edit(header, arrays)`` changes its fields in place."""
    header, arrays = read_frame(path, _ROUNDS_MAGIC, _ROUNDS_VERSION, 5, _rounds_layout)
    edit(header, arrays)
    write_frame(path, _ROUNDS_MAGIC, (_ROUNDS_VERSION, *header), list(arrays.values()))


def _set(name, index, value):
    """An edit that sets one header field or array element."""
    def edit(header, arrays):
        (header if name == "header" else arrays[name])[index] = value
    return edit


def _no_round(header, arrays):
    header[1] = 0
    for name in ("built_at_epoch", "ids", "redundant", "scores"):
        arrays[name] = arrays[name][:0]


def test_export_coreset_rejects_bad_candidates(data_file, tmp_path, capsys):
    ra, rb = tmp_path / "ra", tmp_path / "rb"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    path = ra / "rounds.bin"
    original = path.read_bytes()

    cases = {  # name -> (the file's bytes, or an edit of its header and arrays; the error's text)
        "bad magic": (b"SCNX" + original[4:], "bad magic"),
        "another version": (original[:4] + struct.pack("<I", 2) + original[8:], "unsupported version 2"),
        "truncated": (original[:-1], "truncated"),
        "overlong": (original + b"\0", "overlong"),
        "no round": (_no_round, "declares no round"),
        "tag 2": (_set("redundant", (0, 0), 2), "a tag is neither 0"),
        "id out of range": (_set("ids", (0, 0), 64), "must lie in [0, 64)"),
        "negative id": (_set("ids", (0, 0), -1), "must lie in [0, 64)"),
        "duplicate id": (_set("ids", (0, 1), read_rounds(ra)[1][0].ids[0]), "appears more than once"),
        "NaN score": (_set("scores", (0, 0), float("nan")), "scores must be finite"),
        "n differs from the run's": (_set("header", 0, 65), "n=65, but the first epoch"),
        "counts that do not sum": (_set("excluded_count", 0, 1), "excluded_count sums to"),
        "excluded id out of range": (_set("excluded", 0, 64), "excluded ids must lie in [0, 64)"),
        "Mutate epochs out of order": (_set("mutate_epoch", 1, 3), "mutate_epoch must be strictly increasing"),
    }
    for name, (bad, message) in cases.items():
        path.write_bytes(original)
        if callable(bad):
            _edit_rounds(path, bad)
            assert path.read_bytes() != original, name
        else:
            path.write_bytes(bad)
        out = tmp_path / "coreset.txt"
        capsys.readouterr()
        assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb),
                     "--rho", "0.25", "--out", str(out)]) == 4, name
        err = capsys.readouterr().err
        assert "bad rounds file" in err and message in err, name
        assert not out.exists(), name

    path.write_bytes(original)
    (ra / "metrics.jsonl").write_text("{\n")
    assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb),
                 "--rho", "0.25", "--out", str(out)]) == 4
    assert "bad run directory" in capsys.readouterr().err


def test_static_coreset_non_integer_line_exit_4(data_file, tmp_path, capsys):
    cs = tmp_path / "coreset.txt"
    cs.write_text("# n=64 rho=0.25 runs=a,b\n0\n1\nabc\n")
    out = tmp_path / "run"
    capsys.readouterr()
    assert _train(data_file, out, "--method", "static", "--coreset", str(cs)) == 4
    assert "not an integer id" in capsys.readouterr().err
    assert not out.exists()  # rejected before the run directory is made


def test_static_coreset_bad_ids_exit_4_without_run_dir(data_file, tmp_path, capsys):
    # 48 ids each, the count the header's n=64 rho=0.25 declares
    cases = {"repeated id": "0\n" * 2 + "".join(f"{i}\n" for i in range(1, 47)),
             "out of range": "".join(f"{i}\n" for i in range(47)) + "64\n"}
    for name, body in cases.items():
        cs = tmp_path / "coreset.txt"
        cs.write_text("# n=64 rho=0.25 runs=a,b\n" + body)
        out = tmp_path / "run"
        capsys.readouterr()
        assert _train(data_file, out, "--method", "static", "--coreset", str(cs)) == 4, name
        assert "training failed" in capsys.readouterr().err, name
        assert not out.exists(), name


def test_train_empty_out_exit_4_leaves_the_current_directory_as_it_was(data_file, tmp_path, monkeypatch,
                                                                       capsys):
    # Path("") is the current directory: an empty --out would write a run there
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    (cwd / "metrics.jsonl").write_text('{"epoch": 0}\n')
    monkeypatch.chdir(cwd)
    before = {q.name: q.read_bytes() for q in cwd.iterdir()}
    assert _train(data_file, "") == 4
    assert "--out is empty" in capsys.readouterr().err
    assert {q.name: q.read_bytes() for q in cwd.iterdir()} == before


def test_export_coreset_rejects_run_that_is_not_scan(data_file, tmp_path, capsys):
    # a full run trained into a former scan run's directory leaves its
    # rounds.bin behind; the manifest says the run is not a scan run
    reused, rb = tmp_path / "reused", tmp_path / "rb"
    assert _train(data_file, reused, "--seed", "1") == 0
    assert _train(data_file, reused, "--method", "full", "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    assert (reused / "rounds.bin").exists()
    out = tmp_path / "coreset.txt"
    capsys.readouterr()
    assert main(["export-coreset", "--run-a", str(reused), "--run-b", str(rb),
                 "--rho", "0.25", "--out", str(out)]) == 4
    assert "bad run directory" in capsys.readouterr().err
    assert not out.exists()


def test_export_coreset_rejects_run_directory_from_before_rounds_bin(data_file, tmp_path, capsys):
    # a run written with candidates.json and no rounds.bin has no second reader
    old, rb = tmp_path / "old", tmp_path / "rb"
    assert _train(data_file, old, "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    (old / "rounds.bin").unlink()
    (old / "candidates.json").write_text(json.dumps({"n": 64, "built_at_epoch": 2, "entries": [
        {"sample_id": 0, "tag": "redundant", "rank_score": 0.5}]}))
    manifest = json.loads((old / "manifest.json").read_text())
    manifest["artifacts"] = ["candidates.json", "checkpoint.bin", "metrics.jsonl"]
    (old / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "coreset.txt"
    capsys.readouterr()
    assert main(["export-coreset", "--run-a", str(old), "--run-b", str(rb),
                 "--rho", "0.25", "--out", str(out)]) == 4
    assert "does not list rounds.bin from a scan run" in capsys.readouterr().err
    assert not out.exists()


def test_export_coreset_rho_that_removes_every_sample_exit_4(data_file, tmp_path, capsys):
    # floor(rho * 64) is 64 for a rho this close to 1 (prune_count's +1e-9):
    # the coreset would be empty, which train --method static refuses
    ra, rb, out = tmp_path / "ra", tmp_path / "rb", tmp_path / "coreset.txt"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    capsys.readouterr()
    assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb), "--rho", "0.9999999999999998",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "removes all 64 samples" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("rho", ["0", "1", "nan"])
def test_export_coreset_rho_outside_0_1_exit_4(data_file, tmp_path, capsys, rho):
    ra, rb, out = tmp_path / "ra", tmp_path / "rb", tmp_path / "coreset.txt"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    capsys.readouterr()
    assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb), "--rho", rho,
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "rho must lie in (0, 1)" in captured.err and captured.out == ""
    assert not out.exists()


def test_export_coreset_from_corpora_of_different_n_exit_4(data_file, tmp_path, capsys):
    other = tmp_path / "other.bin"
    assert main(["gen-data", "--n", "80", "--dim", "8", "--num-classes", "4", "--seed", "3",
                 "--out", str(other)]) == 0
    ra, rb, out = tmp_path / "ra", tmp_path / "rb", tmp_path / "coreset.txt"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(other, rb, "--seed", "2") == 0
    capsys.readouterr()
    assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb), "--rho", "0.25",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "dataset sizes differ: 64 vs 80" in captured.err and captured.out == ""
    assert not out.exists()


def test_export_coreset_from_corpora_of_the_same_n_exit_4(data_file, tmp_path, capsys):
    # same n, another seed: the candidate ids name unrelated samples
    other = tmp_path / "other.bin"
    assert main(["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4", "--seed", "4",
                 "--out", str(other)]) == 0
    ra, rb, out = tmp_path / "ra", tmp_path / "rb", tmp_path / "coreset.txt"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(other, rb, "--seed", "2") == 0
    capsys.readouterr()
    assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb), "--rho", "0.25",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert f"{rb}: was not trained on the dataset with SHA-256" in captured.err and captured.out == ""
    assert not out.exists()

    intact = {run: (run / "manifest.json").read_text() for run in (ra, rb)}
    for stripped in ((rb,), (ra,), (ra, rb)):  # manifests that record no dataset hash; the first is named
        for run, text in intact.items():
            manifest = json.loads(text)
            if run in stripped:
                del manifest["dataset"]["sha256"]
            (run / "manifest.json").write_text(json.dumps(manifest))
        assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb), "--rho", "0.25",
                     "--out", str(out)]) == 4, stripped
        err = capsys.readouterr().err
        assert str(stripped[0]) in err and "None" not in err, stripped
        assert not out.exists(), stripped


def test_compare_data_sha_mismatch_exit_4(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    other = tmp_path / "other.bin"  # same n and dim, another seed
    assert main(["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4",
                 "--seed", "4", "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["compare", "--runs", str(run), "--data", str(other)]) == 4
    assert "SHA-256" in capsys.readouterr().err

    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["dataset"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert main(["compare", "--runs", str(run), "--data", str(data_file)]) == 4
    assert "SHA-256" in capsys.readouterr().err
    assert main(["compare", "--runs", str(run)]) == 0  # no --data, nothing to check


def test_compare_reads_only_listed_files(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    for name, argv in (("checkpoint.bin", ["--data", str(data_file)]), ("metrics.jsonl", [])):
        manifest["artifacts"].remove(name)
        (run / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["compare", "--runs", str(run), *argv]) == 4, name
        assert f"does not list {name}" in capsys.readouterr().err, name


def test_undecodable_files_exit_4(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    (run / "metrics.jsonl").write_bytes(b"\xff\xfe\n")
    capsys.readouterr()
    assert main(["compare", "--runs", str(run)]) == 4
    assert "bad run directory" in capsys.readouterr().err

    cfg = tmp_path / "train.cfg"
    cfg.write_bytes(b"lr = 0.1\n\xff\n")
    assert main(["train", "--config", str(cfg), "--data", str(data_file),
                 "--out", str(tmp_path / "run2")]) == 4
    assert "bad config file" in capsys.readouterr().err

    cs = tmp_path / "coreset.txt"
    cs.write_bytes(b"0\n1\n\xff\n")
    assert _train(data_file, tmp_path / "run3", "--method", "static", "--coreset", str(cs)) == 4
    assert "bad coreset file" in capsys.readouterr().err
    assert not (tmp_path / "run2").exists() and not (tmp_path / "run3").exists()


def test_directory_or_file_in_the_wrong_place_exit_3(data_file, tmp_path, monkeypatch):
    assert main(["compare", "--runs", str(data_file)]) == 3  # a run that is a file
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    assert main(["compare", "--runs", str(run), "--data", str(tmp_path)]) == 3
    assert _train(tmp_path, tmp_path / "x") == 3
    assert _train(data_file, tmp_path / "x", "--config", str(tmp_path)) == 3
    assert _train(data_file, tmp_path / "x", "--method", "static", "--coreset", str(tmp_path)) == 3
    monkeypatch.chdir(tmp_path)
    for out in (str(tmp_path), "."):  # "." has no name for a temporary file beside it
        assert main(["gen-data", "--n", "8", "--dim", "2", "--num-classes", "2", "--out", out]) == 3, out
    assert not list(tmp_path.parent.glob("*.tmp")) and not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("case", ["gen-data", "gen-data <out>.tmp", "train", "export-coreset"])
def test_out_name_too_long_exits_3(data_file, tmp_path, monkeypatch, capsys, case):
    # a last component over NAME_MAX; for "<out>.tmp" one that fits, but not with ".tmp" after it
    if case == "export-coreset":
        assert _train(data_file, tmp_path / "ra") == 0
    parent = tmp_path / "parent"
    parent.mkdir()
    name_max = os.pathconf(parent, "PC_NAME_MAX")
    out = str(parent / ("a" * (name_max - 2 if case.endswith(".tmp") else name_max + 45)))
    argv = {"gen-data": ["gen-data", "--n", "8", "--dim", "2", "--num-classes", "2", "--out", out],
            "train": ["train", "--data", str(data_file), "--out", out, "--tau-stop", "6"],
            "export-coreset": ["export-coreset", "--run-a", str(tmp_path / "ra"), "--run-b",
                               str(tmp_path / "ra"), "--rho", "0.3", "--out", out]}[case.split()[0]]
    monkeypatch.setattr("scanprune.cli.train_scan", lambda *a: pytest.fail("trained"))
    capsys.readouterr()
    assert main(argv) == 3
    assert "File name too long" in capsys.readouterr().err
    assert not list(parent.iterdir())


def _frame_cuts(size: int, header_end: int, arrays: list[int]) -> list[int]:
    """Every length from 0 to the header's end, and each array boundary and one byte before it."""
    ends = [header_end + sum(arrays[:k + 1]) for k in range(len(arrays))]
    return sorted({*range(header_end + 1), *ends, *(e - 1 for e in ends)} - {size})


@pytest.mark.parametrize("kind", ["dataset", "linear checkpoint", "mlp checkpoint"])
def test_cut_or_extended_frame_raises_its_typed_error_and_exits_4(data_file, tmp_path, capsys, kind):
    run = tmp_path / "run"
    assert _train(data_file, run, *(("--mlp", "--hidden-dim", "3") if kind == "mlp checkpoint" else ())) == 0
    compare = ["compare", "--runs", str(run), "--data", str(data_file)]
    if kind == "dataset":
        path, load, error, message = data_file, load_dataset, DatasetError, "bad dataset file"
        header_end, arrays = 20, [64 * 8 * 4, 64 * 8 * 4, 64 * 4, 64]  # n=64, dim=8
        commands = [["train", "--data", str(path), "--out", str(tmp_path / "x"), "--tau-stop", "6"], compare]
    else:
        path, load, error, message = run / "checkpoint.bin", load_checkpoint, CheckpointError, "cannot probe"
        header_end, arrays = 24, [w.nbytes for _, w in load_checkpoint(path).weights()] + [8]  # + log_temp
        commands = [compare]
    raw = path.read_bytes()
    assert len(raw) == header_end + sum(arrays)
    cases = [raw[:cut] for cut in _frame_cuts(len(raw), header_end, arrays)] + [raw + b"\0"]
    for bad in cases:
        path.write_bytes(bad)
        with pytest.raises(error):  # neither struct.error nor ValueError, nor a short array
            load(path)
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 4, (len(bad), argv[0])
            assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_manifest_hashes_the_dataset_as_it_was_read(data_file, tmp_path, monkeypatch):
    import hashlib

    from scanprune import cli

    read_sha = hashlib.sha256(data_file.read_bytes()).hexdigest()
    real = cli.train_scan

    def rewrite_then_train(ds, cfg):
        data_file.write_bytes(b"rewritten while training")
        return real(ds, cfg)

    monkeypatch.setattr(cli, "train_scan", rewrite_then_train)
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    assert json.loads((run / "manifest.json").read_text())["dataset"]["sha256"] == read_sha


def _export(data_file, tmp_path):
    ra, rb, cs = tmp_path / "ra", tmp_path / "rb", tmp_path / "coreset.txt"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb),
                 "--rho", "0.25", "--out", str(cs)]) == 0
    return cs


def test_static_coreset_short_or_foreign_file_exit_4(data_file, tmp_path, capsys):
    cs = _export(data_file, tmp_path)
    lines = cs.read_text().splitlines(keepends=True)
    assert lines[0].startswith("# n=64 rho=0.25 ") and len(lines) == 1 + 48
    cases = {"truncated": ("".join(lines[:30]), "means 48 ids, the file holds 29"),
             "n mismatch": (lines[0].replace("n=64", "n=80") + "".join(lines[1:]), "dataset has n=64")}
    for name, (text, message) in cases.items():
        cs.write_text(text)
        out = tmp_path / "static"
        capsys.readouterr()
        assert _train(data_file, out, "--method", "static", "--coreset", str(cs)) == 4, name
        err = capsys.readouterr().err
        assert "bad coreset file" in err and message in err, name
        assert not out.exists(), name


def test_static_coreset_without_header_still_trains(data_file, tmp_path):
    cs = tmp_path / "ids.txt"
    cs.write_text("".join(f"{i}\n" for i in range(0, 64, 3)))
    out = tmp_path / "static"
    assert _train(data_file, out, "--method", "static", "--coreset", str(cs)) == 0
    assert all(r.active_size == 22 for r in read_metrics(out / "metrics.jsonl"))


def test_compare_empty_runs_entry_exit_4(data_file, tmp_path, capsys, monkeypatch):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    monkeypatch.chdir(run)  # an empty entry must not read the current directory as a run
    for runs in (f"{run},", "", f",{run}", f"{run},,{run}"):
        capsys.readouterr()
        assert main(["compare", "--runs", runs, "--data", str(data_file)]) == 4, runs
        captured = capsys.readouterr()
        assert "--runs has an empty entry" in captured.err and captured.out == "", runs


def _mutate(raw: bytes, kind: str, rng: random.Random) -> bytes:
    """``raw`` cut short, with one byte changed, or with 1-8 random bytes inserted."""
    at = rng.randrange(len(raw))
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ rng.randrange(1, 256)]) + raw[at + 1:]
    return raw[:at] + rng.randbytes(rng.randint(1, 8)) + raw[at:]


# Each file the CLI reads, and the commands that read it.
_READERS = {
    "ds.bin": ("compare", "static"),
    "ra/checkpoint.bin": ("compare",),
    "ra/manifest.json": ("compare", "export"),
    "ra/metrics.jsonl": ("compare", "export"),
    "ra/rounds.bin": ("export",),
    "coreset.txt": ("static",),
}


@pytest.mark.parametrize("target", list(_READERS))
def test_byte_mutated_files_exit_0_3_or_4(data_file, tmp_path, target):
    cs = _export(data_file, tmp_path)
    commands = {
        "compare": ["compare", "--runs", f"{tmp_path / 'ra'},{tmp_path / 'rb'}", "--data", str(data_file)],
        "export": ["export-coreset", "--run-a", str(tmp_path / "ra"), "--run-b", str(tmp_path / "rb"),
                   "--rho", "0.25", "--out", str(tmp_path / "out.txt")],
        "static": ["train", "--data", str(data_file), "--out", str(tmp_path / "static"), "--tau-stop", "6",
                   "--batch-size", "32", "--out-dim", "4", "--method", "static", "--coreset", str(cs)],
    }
    path = tmp_path / target
    raw = path.read_bytes()
    rng = random.Random(target)
    for i in range(60):
        kind = ("truncate", "flip", "insert")[i % 3]
        path.write_bytes(_mutate(raw, kind, rng))
        for command in _READERS[target]:
            try:
                code = main(commands[command])
            except Exception as exc:  # any escape is the failure under test
                pytest.fail(f"{target} mutation {i} ({kind}): {command} raised {exc!r}")
            assert code in (0, 3, 4), (target, i, kind, command, code)
    path.write_bytes(raw)


def test_config_file_booleans_are_checked(data_file, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    for raw in ("banana", "", "2", "on"):
        cfg.write_text(f"mlp = {raw}\n")
        out = tmp_path / "bad"
        assert _train(data_file, out, "--config", str(cfg)) == 4, raw
        assert "bad value for mlp" in capsys.readouterr().err
        assert not out.exists()
    for i, (raw, mlp) in enumerate((("1", True), ("TRUE", True), ("Yes", True),
                                    ("0", False), ("False", False), ("NO", False))):
        cfg.write_text(f"mlp = {raw}\n")
        out = tmp_path / f"ok{i}"
        assert _train(data_file, out, "--config", str(cfg)) == 0, raw
        assert json.loads((out / "manifest.json").read_text())["config"]["mlp"] is mlp


def test_manifest_records_the_mlp_hidden_width(data_file, tmp_path):
    for i, extra in enumerate((["--mlp"], ["--mlp", "--hidden-dim", "16"])):
        out = tmp_path / f"run{i}"
        assert _train(data_file, out, *extra) == 0
        # header: magic, then u32 version, is_mlp, dim, hidden, out_dim
        hidden = struct.unpack_from("<I", (out / "checkpoint.bin").read_bytes(), 16)[0]
        assert json.loads((out / "manifest.json").read_text())["config"]["hidden_dim"] == hidden, extra


def test_batch_larger_than_corpus_trains_as_one_batch(data_file, tmp_path):
    big, whole = tmp_path / "big", tmp_path / "whole"
    assert _train(data_file, big, "--batch-size", "10000000000000") == 0
    assert _train(data_file, whole, "--batch-size", "64") == 0
    assert (big / "checkpoint.bin").read_bytes() == (whole / "checkpoint.bin").read_bytes()


# A valid value other than the default for every TrainConfig field, as a flag
# or config-file value and as the manifest records it.
_NON_DEFAULT = {
    "rho": ("0.25", 0.25),
    "tau_cos": ("2", 2),
    "tau_stop": ("7", 7),
    "t_td": ("0.5", 0.5),
    "batch_size": ("16", 16),
    "lr": ("0.2", 0.2),
    "out_dim": ("3", 3),
    "seed": ("5", 5),
    "mode": ("view_pair", "view_pair"),
    "mlp": ("yes", True),
    "hidden_dim": ("16", 16),
}


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)])
def test_every_config_field_is_set_by_flag_and_by_config_file(data_file, tmp_path, name, route):
    raw, recorded = _NON_DEFAULT[name]
    settings = {"mlp": "yes", name: raw} if name == "hidden_dim" else {name: raw}
    if route == "flag":
        argv = []
        for key, value in settings.items():
            flag = "--" + key.replace("_", "-")
            argv += [flag] if key == "mlp" else [flag, value]
    else:
        cfg = tmp_path / "train.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        argv = ["--config", str(cfg)]
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_file), "--out", str(out), *argv]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"][name] == recorded


def test_gen_data_defaults_equal_the_spelled_out_flags(tmp_path):
    base = ["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4", "--seed", "3"]
    short, spelled = tmp_path / "short.bin", tmp_path / "spelled.bin"
    assert main([*base, "--out", str(short)]) == 0
    assert main([*base, "--mismatch-frac", "0", "--duplicate-frac", "0", "--noise-sigma", "0.1",
                 "--out", str(spelled)]) == 0
    assert short.read_bytes() == spelled.read_bytes()


# ----------------------------------------------- train's flags and config fuzzed
#
# tau_stop, tau_cos, batch_size, out_dim and hidden_dim come only from small
# ranges or non-numeric text (an unset tau_stop is 32), so no example runs more
# than about a thousand steps on a 64 x 8 corpus or allocates more than a few MB.

_SMALL_INT_KEYS = {"tau_stop": (-2, 7), "tau_cos": (-1, 5), "batch_size": (-1, 70), "out_dim": (-1, 6),
                   "hidden_dim": (-1, 12)}
_GARBAGE_TEXT = ["", "abc", "nan", "inf", "-inf", "1_0", "3.0", "0x10", "+2", "1e3", "\x00", "\ufeff1",
                 "\u0663", "\u00b2", "yes", "paired", "None", "[1]", "  7  "]
_GARBAGE = st.sampled_from(_GARBAGE_TEXT)
_FLOAT_TEXT = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                        st.floats(0.0, 1.0).map(str), _GARBAGE)


def _value_text(key: str):
    if key in _SMALL_INT_KEYS:
        return st.one_of(st.integers(*_SMALL_INT_KEYS[key]).map(str), _GARBAGE)
    if key == "seed":
        return st.one_of(st.integers(-3, 2 ** 70).map(str), _GARBAGE)
    if key == "mode":
        return st.one_of(st.sampled_from(["paired", "view_pair", "PAIRED", "view-pair"]), _GARBAGE)
    if key == "mlp":
        return st.one_of(st.sampled_from(["yes", "no", "1", "0", "True", "false", "maybe"]), _GARBAGE)
    return _FLOAT_TEXT  # rho, t_td, lr; and any unknown key


_KEYS = [f.name for f in fields(TrainConfig)] + ["Rho", "tau stop", "batch-size", "\u03c1", "\ufeffrho", ""]


@st.composite
def _config_lines(draw) -> bytes:
    kind = draw(st.sampled_from(["pair", "pair", "pair", "comment", "blank", "no_equals", "bytes"]))
    if kind == "comment":
        return ("# " + draw(st.text(max_size=10))).encode()
    if kind == "blank":
        return draw(st.sampled_from([b"", b"   ", b"\t"]))
    if kind == "bytes":  # non-ASCII, undecodable, NUL
        return draw(st.binary(max_size=12).map(lambda b: b.replace(b"=", b"").replace(b"\n", b"")))
    key = draw(st.sampled_from(_KEYS))
    if kind == "no_equals":
        return key.encode()
    sep = draw(st.sampled_from(["=", " = ", "\t=\t", "  =", "= ", " == "]))
    return f"{key}{sep}{draw(_value_text(key.strip()))}".encode("utf-8", "surrogatepass")


_FLAG_VALUES = {"--rho": _FLOAT_TEXT, "--lr": _FLOAT_TEXT, "--seed": _value_text("seed"),
                "--tau-stop": _value_text("tau_stop"), "--batch-size": _value_text("batch_size"),
                "--out-dim": _value_text("out_dim"), "--hidden-dim": _value_text("hidden_dim"),
                "--mode": _value_text("mode"),
                "--method": st.sampled_from(["scan", "full", "random", "static", "bogus"])}


@st.composite
def _train_argv(draw):
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES) + ["--mlp"]), max_size=4)):
        flags += [flag] if flag == "--mlp" else [flag, draw(_FLAG_VALUES[flag])]
    config = draw(st.sampled_from(["none", "file", "file", "file", "directory", "missing"]))
    lines = draw(st.lists(_config_lines(), max_size=8)) if config == "file" else []
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    return flags, config, newline.join(lines)


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "ds.bin"
    assert main(["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4", "--mismatch-frac", "0.1",
                 "--duplicate-frac", "0.1", "--seed", "3", "--out", str(out)]) == 0
    return out


@settings(max_examples=80, deadline=None)
@given(case=_train_argv())
def test_train_flags_and_config_fuzzed_exit_0_2_3_or_4(fuzz_data, case):
    flags, config, body = case
    work = Path(tempfile.mkdtemp())
    try:
        out = work / "run"
        argv = ["train", "--data", str(fuzz_data), "--out", str(out), *flags]
        if config != "none":
            cfg = {"file": work / "train.cfg", "directory": work, "missing": work / "absent.cfg"}[config]
            if config == "file":
                cfg.write_bytes(body)
            argv += ["--config", str(cfg)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse on a bad flag value
            assert exc.code == 2, argv
            code = 2
        assert code in (0, 2, 3, 4), argv
        event(f"exit {code}")
        assert (out / "manifest.json").exists() == (code == 0), (argv, body)
    finally:
        shutil.rmtree(work)


# ------------------------------------------------------ --out refused alike
#
# Both rules hold for every command that writes: an empty --out exits 4, and an
# --out the OS would refuse (a directory where the file goes, a file where a
# directory goes) exits 3.  Paths are relative to a copy of ``work``: a corpus,
# two scan runs on it, the coreset exported from them, a scan run ``rc`` on
# another corpus of the same n, a file ``taken`` and an empty directory ``dir``.

@pytest.fixture(scope="module")
def work(fuzz_data):
    root = fuzz_data.parent / "work"
    root.mkdir()
    shutil.copy(fuzz_data, root / "ds.bin")
    for run, seed in (("ra", "1"), ("rb", "2")):
        assert _train(root / "ds.bin", root / run, "--seed", seed) == 0
    assert main(["export-coreset", "--run-a", str(root / "ra"), "--run-b", str(root / "rb"), "--rho", "0.25",
                 "--out", str(root / "coreset.txt")]) == 0
    other = fuzz_data.parent / "other.bin"
    assert main(["gen-data", "--n", "64", "--dim", "8", "--num-classes", "4", "--seed", "4",
                 "--out", str(other)]) == 0
    assert _train(other, root / "rc", "--seed", "1") == 0
    (root / "taken").write_text("")
    (root / "dir").mkdir()
    return root


def _tree(root: Path) -> dict:
    """Every path under ``root``, mapped to its bytes (None for a directory)."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


_GEN_ARGV = ["gen-data", "--n", "8", "--dim", "2", "--num-classes", "2"]
_WRITERS = {"gen-data": _GEN_ARGV,
            "train": ["train", "--data", "ds.bin", "--tau-stop", "6"],
            "export-coreset": ["export-coreset", "--run-a", "ra", "--run-b", "rb", "--rho", "0.25"]}
_BAD_OUT = {  # case -> (command, --out, exit code, stderr text)
    "gen-data-empty": ("gen-data", "", 4, "--out is empty"),
    "train-empty": ("train", "", 4, "--out is empty"),
    "export-coreset-empty": ("export-coreset", "", 4, "--out is empty"),
    "gen-data-directory": ("gen-data", "dir", 3, "Is a directory: 'dir'"),
    "export-coreset-directory": ("export-coreset", "dir", 3, "Is a directory: 'dir'"),
    "gen-data-under-a-file": ("gen-data", "taken/ds.bin", 3, "Not a directory"),
    "export-coreset-under-a-file": ("export-coreset", "taken/coreset.txt", 3, "Not a directory"),
    "train-file": ("train", "taken", 3, "Not a directory: 'taken'"),
    "train-under-a-file": ("train", "taken/run", 3, "Not a directory: 'taken'"),
    "train-two-under-a-file": ("train", "taken/a/b", 3, "Not a directory: 'taken'"),
}


@pytest.mark.parametrize("case", list(_BAD_OUT))
def test_bad_out_exits_alike_in_every_command(work, tmp_path, monkeypatch, capsys, case):
    command, out, code, message = _BAD_OUT[case]
    shutil.copytree(work, tmp_path / "work")
    monkeypatch.chdir(tmp_path / "work")
    monkeypatch.setattr("scanprune.cli.train_scan", lambda *a: pytest.fail("trained"))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main([*_WRITERS[command], "--out", out]) == code
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert _tree(tmp_path) == before  # nothing written, not even a temporary file


def _strict_utf8_stdout() -> io.TextIOWrapper:
    """A stdout that, like a UTF-8 terminal's, cannot encode a lone surrogate."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")


def test_undecodable_names_print_escaped_on_a_utf8_stdout(work, tmp_path, monkeypatch):
    # A non-UTF-8 argv byte reaches Python as a lone surrogate ("\udcff"), and
    # a manifest's JSON can spell one ("\ud800").  Printing either raised
    # UnicodeEncodeError after the command had written its file.
    shutil.copytree(work, tmp_path / "work")
    monkeypatch.chdir(tmp_path / "work")
    shutil.move("ra", "r\udcffa")
    manifest = json.loads(Path("rb", "manifest.json").read_text())
    Path("rb", "manifest.json").write_text(json.dumps(dict(manifest, method="\ud800")))
    stdout = _strict_utf8_stdout()
    with contextlib.redirect_stdout(stdout):
        assert main([*_GEN_ARGV, "--out", "d\udcff.bin"]) == 0
        assert main(["export-coreset", "--run-a", "r\udcffa", "--run-b", "r\udcffa", "--rho", "0.25",
                     "--out", "c\udcff.txt"]) == 0
        assert main(["compare", "--runs", "r\udcffa,rb"]) == 0
    stdout.flush()
    text = stdout.buffer.getvalue().decode()
    assert "wrote d\\udcff.bin n=8" in text and "wrote c\\udcff.txt |coreset|" in text
    assert "r\\udcffa" in text and "\\ud800" in text
    assert Path("c\udcff.txt").read_text().startswith("# n=64 rho=0.25 runs=r\\udcffa,r\\udcffa\n")
    assert load_coreset("c\udcff.txt", n=64)


# ------------------------------------------------------------ every command fuzzed
#
# Each example runs one command in a fresh copy of ``work``.  --n, --dim and
# --num-classes come only from small ranges or non-numeric text, so a corpus
# is a few KB; schedule's --epochs and train's --tau-stop likewise, so no
# example prints more than a few rows or trains more than 32 epochs on 64
# samples.  A non-UTF-8 argv byte arrives as a lone surrogate in
# U+DC80..U+DCFF; no argv holds a NUL.

_PATHS = st.sampled_from(["", ".", "dir", "dir/", "taken", "taken/x", "absent", "absent/x", "ds.bin", "ra",
                          "rb", "ra/metrics.jsonl", "ra/rounds.bin", "new.out", "dir/new.out",
                          "\udcff", "n\udce9w.out", "ra/\udcff"])
# Text that is not a number, undecodable bytes among it; no NUL, which no argv can hold.
_NUMBER = st.sampled_from([v for v in _GARBAGE_TEXT if "\x00" not in v] + ["\udcff", "1\udcff"])
_RUN = st.sampled_from(["ra", "rb/", "rc"])
_OUT = st.sampled_from(["new.out", "dir/new.out", "ds.bin", "n\udce9w.out"])
_RUN_OUT = st.sampled_from(["new.run", "dir/new.run", "ra", "n\udce9w.run"])


def _fraction(hi: float):
    return st.floats(0.0, hi).map(str)


_COMMAND_FLAGS = {  # flag -> (a value the command accepts, a value it may refuse)
    "gen-data": {
        "--n": (st.integers(5, 40).map(str), st.one_of(st.integers(-1, 4).map(str), _NUMBER)),
        "--dim": (st.integers(2, 6).map(str), st.one_of(st.integers(-1, 1).map(str), _NUMBER)),
        "--num-classes": (st.integers(2, 5).map(str), st.one_of(st.integers(-1, 1).map(str), _NUMBER)),
        "--mismatch-frac": (_fraction(0.4), _FLOAT_TEXT),
        "--duplicate-frac": (_fraction(0.4), _FLOAT_TEXT),
        "--noise-sigma": (_fraction(1.0), _FLOAT_TEXT),
        "--seed": (st.integers(0, 2 ** 70).map(str), st.one_of(st.integers(-3, -1).map(str), _NUMBER)),
        "--out": (_OUT, _PATHS),
    },
    "export-coreset": {
        "--run-a": (_RUN, _PATHS),
        "--run-b": (_RUN, _PATHS),
        "--rho": (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(str), _FLOAT_TEXT),
        "--out": (_OUT, _PATHS),
    },
    "compare": {
        "--runs": (st.lists(_RUN, min_size=1, max_size=3).map(",".join),
                   st.lists(st.one_of(_RUN, _PATHS), min_size=1, max_size=3).map(",".join)),
        "--data": (st.just("ds.bin"), _PATHS),
        "--probe-seed": (st.integers(0, 2 ** 70).map(str), st.one_of(st.integers(-3, -1).map(str), _NUMBER)),
    },
    "schedule": {
        "--tau-cos": (st.integers(1, 5).map(str), st.one_of(st.integers(-2, 0).map(str), _NUMBER)),
        "--epochs": (st.integers(0, 12).map(str), st.one_of(st.integers(-3, -1).map(str), _NUMBER)),
    },
    "train": {
        "--data": (st.just("ds.bin"), _PATHS),
        "--out": (_RUN_OUT, _PATHS),
        "--coreset": (st.just("coreset.txt"), _PATHS),
        "--method": (st.just("static"), st.sampled_from(["scan", "full", "random", "bogus"])),
        "--tau-stop": (st.integers(4, 8).map(str), st.one_of(st.integers(-2, 3).map(str), _NUMBER)),
    },
}


@st.composite
def _command_argv(draw, command: str):
    """Every flag with a value the command accepts, except up to two, drawn bad or left out."""
    flags = _COMMAND_FLAGS[command]
    spoiled = draw(st.sets(st.sampled_from(list(flags)), max_size=2))
    argv = [command]
    for flag, (good, bad) in flags.items():
        if flag not in spoiled:
            argv += [flag, draw(good)]
        elif draw(st.integers(0, 3)):
            argv += [flag, draw(bad)]
    return argv


@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gen_data_export_and_compare_fuzzed_exit_0_2_3_or_4(work, command, data):
    """Every command, schedule and train too; the name predates them and is kept so the ids stay."""
    argv = data.draw(_command_argv(command))
    root = Path(tempfile.mkdtemp())
    cwd = os.getcwd()
    try:
        shutil.copytree(work, root / "work")
        os.chdir(root / "work")
        before = _tree(root)
        try:
            with contextlib.redirect_stdout(_strict_utf8_stdout()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:  # argparse on a missing flag or a bad flag value
            assert exc.code == 2, argv
            code = 2
        assert code in (0, 2, 3, 4), argv
        event(f"exit {code}")
        changed = {path for path, _ in before.items() ^ _tree(root).items()}
        if code == 0 and command not in ("compare", "schedule"):
            out = argv[argv.index("--out") + 1]
            written = Path("work", out)
            if command == "train":  # the run directory, its files and the parents made for it
                assert all(written.is_relative_to(p) or Path(p).is_relative_to(written)
                           for p in changed), (argv, changed)
                read_run(out)  # raises unless whole
            else:  # only the one file written
                assert changed <= {str(written)}, (argv, changed)
                if command == "export-coreset":
                    assert load_coreset(out), argv  # whole, and never empty
                    corpora = {read_run(argv[argv.index(flag) + 1])[0]["dataset"]["sha256"]
                               for flag in ("--run-a", "--run-b")}
                    assert len(corpora) == 1, argv  # both runs trained on one corpus
                else:
                    load_dataset(out)  # raises unless whole
        else:  # a refused command, compare or schedule writes nothing: no *.tmp, no partial artifact
            assert not changed, (argv, code, changed)
    finally:
        os.chdir(cwd)
        shutil.rmtree(root)
