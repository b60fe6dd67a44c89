"""The README's "Library tour" block runs as written and prints what its comments promise."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          stdin=subprocess.DEVNULL, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    kappa_star, f_star = lines[2].split()
    assert kappa_star.startswith("0.5857864")
    assert f_star.startswith("0.9514883")
