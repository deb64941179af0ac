"""numpy is the only runtime dependency: scipy and hypothesis are test-only."""

import os
import subprocess
import sys
from pathlib import Path

import coopmec

SCRIPT = """
import sys
# a None entry makes any import of the module raise ImportError
for name in ("scipy", "hypothesis"):
    sys.modules[name] = None
sys.path.insert(0, {tests!r})
from conftest import desk_params
from coopmec.bench import run_benchmark
from coopmec.cli import EXIT_OK, main

for scheme in ("joint-partial", "comp-partial", "comm-partial"):
    rep = run_benchmark(scheme, desk_params(T=0.05))
    # certified with a dual: cold (0 iterations) or by the ascent
    assert rep.ok and rep.dual is not None, (scheme, rep.status)
with open({cfg!r}, "w") as fh:
    fh.write("sweep_param = T\\nsweep_from = 30\\nsweep_to = 50\\nsweep_steps = 2\\n")
assert main(["sweep", "--config", {cfg!r}, "--out", {out!r}]) == EXIT_OK
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "hypothesis")
                and sys.modules[m] is not None)
print("loaded:", loaded)
"""


def test_solver_and_cli_run_without_scipy_or_hypothesis(tmp_path):
    src = Path(coopmec.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    script = SCRIPT.format(tests=str(tests), cfg=str(tmp_path / "sweep.cfg"),
                           out=str(tmp_path / "sweep.csv"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 1 + 2 * 7
