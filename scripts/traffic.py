"""The functions of src/cavitycharge that no command and no demo enters.

Starts a fresh interpreter with OPENBLAS_NUM_THREADS=1 in a temporary
working directory. It installs sys.setprofile before the first cavitycharge
import, then runs 12 commands through cavitycharge.cli.main and every
script in demos/ with runpy. Nine commands must exit 0: reproduce-paper
--out, budget for each target on the bundled paper_yb.scenario, and
fit-ringdown --fsr-hz 7.41e9 on the bundled traces. Three must end in
argparse's SystemExit: --help and budget --help (0), and a budget with an
unknown --target (2). A command that ends otherwise, or a demo that
raises, stops the run. Prints, sorted and one a line, every function and method
defined in src/cavitycharge that was never entered, nested ones included
and lambdas not, as its module and qualified name (ringdown.fit_ringdown.project
for a function defined in fit_ringdown). Standard library only; run from
anywhere:

    python3 scripts/traffic.py
"""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cavitycharge")

# the traced run: its stdout is one "<file>:<first line>" per code object of
# the package that it entered
_TRACED = """
import contextlib, glob, io, os, runpy, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

root = sys.argv[1]
package = os.path.join(root, "src", "cavitycharge") + os.sep
traces = sorted(glob.glob(os.path.join(root, "src", "cavitycharge", "data", "traces", "*.csv")))
sys.setprofile(profile)
from cavitycharge import BUDGET_TARGETS, cli

commands = [["reproduce-paper", "--out", "report.csv"],
            *(["budget", "--scenario", "paper_yb.scenario", "--target", t] for t in BUDGET_TARGETS),
            ["fit-ringdown", "--fsr-hz", "7.41e9", *traces]]
# help and usage errors, which argparse alone prints, with its exit code
printed = {("--help",): 0, ("budget", "--help"): 0,
           ("budget", "--scenario", "paper_yb.scenario", "--target", "warp-drive"): 2}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in commands:
        if cli.main(argv) != 0:
            sys.exit(f"toolkit {' '.join(argv)} did not exit 0")
    for argv, code in printed.items():
        try:
            cli.main(list(argv))
        except SystemExit as exc:
            if exc.code == code:
                continue
        sys.exit(f"toolkit {' '.join(argv)} did not exit {code}")
    for demo in sorted(glob.glob(os.path.join(root, "demos", "*.py"))):
        runpy.run_path(demo, run_name="__main__")
sys.setprofile(None)
files = {code.co_filename: os.path.realpath(code.co_filename) for code in entered}
print("\\n".join(f"{files[code.co_filename]}:{code.co_firstlineno}" for code in entered
                 if files[code.co_filename].startswith(package)))
"""


def defined() -> dict[tuple[str, int], str]:
    """{(file, first line): module.qualified.name} of every def in the package.
    A decorated function's first line is its first decorator's, as its code
    object records it."""
    found = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        _defs(tree, path, os.path.basename(path)[:-3], found)
    return found


def _defs(node, path: str, scope: str, found: dict) -> None:
    for child in ast.iter_child_nodes(node):
        name = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(path, first)] = name
        _defs(child, path, name, found)


def entered() -> set[tuple[str, int]]:
    """(file, first line) of every code object the traced run entered."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as cwd:
        run = subprocess.run([sys.executable, "-c", _TRACED, ROOT], cwd=cwd, env=env,
                             capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"the traced run failed ({run.returncode}):\n{run.stderr}")
    return {(path, int(line)) for path, _, line in
            (entry.rpartition(":") for entry in run.stdout.splitlines())}


def unentered() -> list[str]:
    """The names of the package's functions that the traced run never entered."""
    reached = entered()
    return sorted(name for key, name in defined().items() if key not in reached)


if __name__ == "__main__":
    print("\n".join(unentered()))
