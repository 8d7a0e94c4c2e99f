import csv
import json
import subprocess
import sys

import pytest

from blocksparse.cli import main
from blocksparse.experiments import read_csv_without_timing


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unknown_experiment_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-an-experiment"])
    assert exc.value.code == 2


def test_bad_flag_usage_error():
    # a malformed value, and flags that do not exist: no step size or solver is user-set
    for flags in (["--mu", "abc"], ["--alpha", "0.1"], ["--solver", "fbs"],
                  ["--solver", "magic"]):
        with pytest.raises(SystemExit) as exc:
            main(["rpca-decompose", *flags])
        assert exc.value.code == 2


def test_dump_config_prints_json(capsys):
    code = main(["rpca-decompose", "--dump-config", "--seed", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "rpca-decompose"
    assert payload["seed"] == 5
    assert payload["solver"] == "fbs"


@pytest.mark.parametrize("argv", [
    ["memory-benchmark", "--seed", "-1"],
    ["cs-recovery-sweep", "--trials", "0"],
    ["cs-recovery-sweep", "--jobs", "0"],
    ["cs-recovery-sweep", "--k-sparsity", "0"],
    ["cs-recovery-sweep", "--clique-side", "0"],
    ["cs-recovery-sweep", "--clique-side", "33"],
    ["memory-benchmark", "--clique-side", "17"],
    ["cs-recovery-sweep", "--lambda", "nan"],
    ["blocktv-denoise", "--lambda", "-0.1"],
    ["rpca-decompose", "--mu", "0"],
    ["rpca-decompose", "--epsilon", "nan"],
    ["blocktv-denoise", "--epsilon", "-1"],
    ["cs-recovery-sweep", "--m-over-k", "-1"],
    ["cs-recovery-sweep", "--m-over-k", "nan"],
    ["robust-cs-snr-sweep", "--snr-db", "inf"],
    ["rpca-decompose", "--clique-side", "33"],
    ["blocktv-denoise", "--clique-side", "65"],
    ["robust-cs-snr-sweep", "--m-over-k", "0.01"],
])
def test_bad_flag_value_exits_2_before_running(argv, tmp_path, capsys):
    name, *flags = argv
    assert main([name, "--trials", "1", *flags, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("blocksparse: ")
    assert not (tmp_path / "out").exists()


def test_io_error_exit_3(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["memory-benchmark", "--out-dir", str(blocker / "sub"),
                 "--trials", "1"])
    assert code == 3


def test_run_writes_csv_and_exits_zero(tmp_path, capsys):
    code = main(["memory-benchmark", "--out-dir", str(tmp_path), "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("memory-benchmark.csv")
    assert (tmp_path / "memory-benchmark.csv").exists()


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "blocksparse.cli", "blocktv-denoise",
         "--trials", "1", "--lambda", "0.1", "--seed", "1",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "blocktv-denoise.csv").exists()


def test_seed_rerun_reproduces_csv(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["blocktv-denoise", "--trials", "1", "--lambda", "0.15",
                     "--seed", "9", "--out-dir", str(out)])
        assert code == 0
    assert (read_csv_without_timing(a / "blocktv-denoise.csv")
            == read_csv_without_timing(b / "blocktv-denoise.csv"))


def test_blocktv_tiny_epsilon_writes_no_failed_row(tmp_path):
    code = main(["blocktv-denoise", "--trials", "1", "--epsilon", "1e-9",
                 "--snr-db", "200", "--out-dir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "blocktv-denoise.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and [row["failed"] for row in rows] == ["0"] * len(rows)
