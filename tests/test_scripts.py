"""Smoke tests of the tools in scripts/ that call the public API."""

import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import untangling

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, *args: str) -> str:
    src = str(Path(untangling.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sweep_optimality_finds_every_answer_optimal():
    out = _run("sweep_optimality.py", "--n", "5", "--also-edge-fixed")
    assert out.startswith("n=5: 67 almost-planar drawings, all optimal")


def test_render_gallery_writes_parseable_svgs(tmp_path):
    out = _run("render_gallery.py", "--out", str(tmp_path))
    written = sorted(tmp_path.glob("*.svg"))
    assert len(written) == 14
    assert sorted(out.split()) == sorted(map(str, written))
    for path in written:
        assert ElementTree.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"
