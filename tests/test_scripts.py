"""The experiment scripts under scripts/ run to the end and print their
expected summary lines. Each runs in its own process in a temporary
directory, which also receives any file it writes. make_minicorpus.py is
left out: it rewrites the bundled package data."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


LAST_LINES = {
    "demo_word_features.py": "  sentence_3: +0.1091  +0.1891  +0.6650",
    "cluster_map.py": "layout written to cluster_layout.csv",
    "planted_recovery.py": "recovered in 10/10 runs (threshold 0.9)",
}


@pytest.mark.parametrize("name", sorted(LAST_LINES))
def test_script_runs_to_its_summary(tmp_path, name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == LAST_LINES[name]
    if name == "cluster_map.py":
        assert "1-NN cluster purity in 2-D: 100.0%" in lines
        layout = (tmp_path / "cluster_layout.csv").read_text()
        assert len(layout.splitlines()) == 150
