"""The README's Quickstart and Evaluation commands, run as CI runs them:
``readme_commands.sh`` under ``bash -e`` in a fresh directory, with
``queryflip`` and ``python`` on PATH as this interpreter and ``src``."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SCRIPT = TESTS / "readme_commands.sh"
README = TESTS.parent / "README.md"
SRC = TESTS.parent / "src"


def _shim(path: Path, argv: str) -> None:
    path.write_text(f'#!/bin/sh\nexec "{sys.executable}" {argv} "$@"\n')
    path.chmod(0o755)


def test_readme_commands_script_passes(tmp_path):
    bin_dir, run_dir = tmp_path / "bin", tmp_path / "run"
    bin_dir.mkdir()
    run_dir.mkdir()
    _shim(bin_dir / "queryflip", "-m queryflip.cli")
    _shim(bin_dir / "python", "")
    env = {
        **os.environ,
        "PATH": os.pathsep.join((str(bin_dir), os.environ.get("PATH", ""))),
        "PYTHONPATH": os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
        ),
    }
    result = subprocess.run(
        ["bash", "-e", str(SCRIPT)],
        cwd=run_dir,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]


def test_script_runs_every_readme_command():
    """Each line of the README's bash blocks under Quickstart (Evaluation
    included) is a line of the script, so the two cannot drift apart."""
    readme = README.read_text(encoding="utf-8")
    section = readme[readme.index("## Quickstart") : readme.index("## Configuration")]
    blocks = re.findall(r"```bash\n(.*?)```", section, re.S)
    commands = [line.strip() for block in blocks for line in block.splitlines()]
    script = {line.strip() for line in SCRIPT.read_text().splitlines()}
    assert len(blocks) == 2
    assert [c for c in commands if c and c not in script] == []
