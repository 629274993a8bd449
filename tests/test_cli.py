import json
import struct
import subprocess
import sys

import pytest

from scanprune import load_dataset, load_checkpoint
from scanprune.cli import main
from scanprune.coreset import load_coreset
from scanprune.dataset import DUPLICATE, MISMATCHED
from scanprune.trainer import read_metrics


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
    for name in ("metrics.jsonl", "checkpoint.bin", "candidates.json"):
        assert name in manifest["artifacts"]
        assert (out / name).exists()
    # mutation epochs 3-5 each dump their excluded ids
    for epoch in (3, 4, 5):
        assert (out / f"pruned_epoch{epoch:04d}.txt").exists()
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


def test_export_coreset_and_static_training(data_file, tmp_path):
    ra, rb = tmp_path / "ra", tmp_path / "rb"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    cs = tmp_path / "coreset.txt"
    assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb),
                 "--rho", "0.25", "--out", str(cs)]) == 0
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


def test_missing_file_exit_3(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path / "run")]) == 3
    assert main(["compare", "--runs", str(tmp_path / "ghost")]) == 3


def test_invalid_config_exit_4(data_file, tmp_path):
    assert _train(data_file, tmp_path / "x", "--rho", "0.9") == 4
    assert main(["gen-data", "--n", "2", "--dim", "8", "--num-classes", "4",
                 "--out", str(tmp_path / "bad.bin")]) == 4
    assert main(["schedule", "--tau-cos", "0", "--epochs", "4"]) == 4


def test_invalid_numbers_exit_4_before_training(data_file, tmp_path, capsys):
    cases = (["--epsilon", "0"], ["--lr", "nan"], ["--t-td", "inf"], ["--tau-cos", "0"],
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


def test_seed_env_fallback(data_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SCAN_SEED", "7")
    out = tmp_path / "run"
    assert _train(data_file, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7


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


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "scanprune.cli", "schedule",
                           "--tau-cos", "2", "--epochs", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "epoch,phase,rho_cur"


def test_compare_malformed_metrics_exit_4(data_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(data_file, run) == 0
    good = (run / "metrics.jsonl").read_text().splitlines()[0]
    wrong_type = json.dumps(dict(json.loads(good), active_size="many"))
    for bad in ("{", '{"epoch": 1}', "[1, 2]", wrong_type):
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


def test_export_coreset_rejects_bad_candidates(data_file, tmp_path, capsys):
    ra, rb = tmp_path / "ra", tmp_path / "rb"
    assert _train(data_file, ra, "--seed", "1") == 0
    assert _train(data_file, rb, "--seed", "2") == 0
    original = (ra / "candidates.json").read_text()

    def with_entry(**fields):
        def mutate(data):
            data["entries"][0].update(fields)
            return json.dumps(data)
        return mutate

    def duplicate_first(data):
        data["entries"][1]["sample_id"] = data["entries"][0]["sample_id"]
        return json.dumps(data)

    cases = {
        "bad json": "{",
        "missing entries": lambda d: json.dumps({k: v for k, v in d.items() if k != "entries"}),
        "missing n": lambda d: json.dumps({k: v for k, v in d.items() if k != "n"}),
        "not an object": "[]",
        "unknown tag": with_entry(tag="bogus"),
        "id out of range": with_entry(sample_id=99999),
        "negative id": with_entry(sample_id=-1),
        "non-integer id": with_entry(sample_id=1.5),
        "bad score": with_entry(rank_score="high"),
        "duplicate id": duplicate_first,
        "n differs from the run's": lambda d: json.dumps({**d, "n": 3_000_000}),
    }
    for name, mutate in cases.items():
        text = mutate(json.loads(original)) if callable(mutate) else mutate
        (ra / "candidates.json").write_text(text)
        out = tmp_path / "coreset.txt"
        capsys.readouterr()
        assert main(["export-coreset", "--run-a", str(ra), "--run-b", str(rb),
                     "--rho", "0.25", "--out", str(out)]) == 4, name
        assert "bad candidates file" in capsys.readouterr().err, name
        assert not out.exists(), name

    (ra / "candidates.json").write_text(original)
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
    cases = {"repeated id": "0\n1\n0\n2\n", "out of range": "0\n1\n64\n"}
    for name, body in cases.items():
        cs = tmp_path / "coreset.txt"
        cs.write_text("# n=64 rho=0.25 runs=a,b\n" + body)
        out = tmp_path / "run"
        capsys.readouterr()
        assert _train(data_file, out, "--method", "static", "--coreset", str(cs)) == 4, name
        assert "training failed" in capsys.readouterr().err, name
        assert not out.exists(), name


def test_train_out_is_a_file_exit_4(data_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert _train(data_file, out) == 4
    assert "not a directory" in capsys.readouterr().err
