"""``tools/peak_rss.py`` runs one ``virtlprm`` command in a fresh process and
prints that process's peak resident memory."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"


def run_tool(*argv):
    return subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True,
                          timeout=300)


def test_prints_the_peak_of_a_fresh_command(tmp_path):
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"cycles": [{"cycle_id": 1, "frame_count": 2, "seed": 1}]}))
    run = run_tool("gen", "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()  # the command's own stdout is discarded
    name, value = line.split()
    assert name == "peak_rss_mb" and 10.0 < float(value) < 4096.0
    assert (tmp_path / "a" / "manifest.json").is_file()


def test_exit_code_and_stderr_pass_through(tmp_path):
    run = run_tool("gen", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "a"))
    assert run.returncode == 2
    assert "config error" in run.stderr
    assert run.stdout.startswith("peak_rss_mb ")
