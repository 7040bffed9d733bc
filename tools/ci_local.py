"""Run the CI workflow's steps on this machine, before a merge.

Usage:  python tools/ci_local.py

Every `run:` block of .github/workflows/tests.yml runs in order under
`bash -eo pipefail`, from a scratch copy of the checkout (its tracked
files and the untracked ones git does not ignore), with GITHUB_STEP_SUMMARY and RUNNER_TEMP pointed into the scratch
directory and `${{ matrix.python-version }}` read as this interpreter's
version.  A step that fails does not stop the later ones, as if each had
`if: always()`.  Steps that only name an action (`uses:`) have nothing to
run here.  Each step prints PASS, FAIL or SKIP with its time, and the
last line sums them up; the exit status is 1 when a step failed.

Steps that need the network are skipped by name, each with its reason
(see NEEDS_NETWORK).  pip is told to use no package index
(PIP_NO_INDEX, PIP_DISABLE_PIP_VERSION_CHECK), so a step that would
download a package fails instead of reaching out.

The workflow is read by a reader for the shape this file has, which needs
no package: a `steps:` list whose items hold `name:`, `uses:` and `run:`
keys, a `run:` value on its line or as a `|` block.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

NEEDS_NETWORK = {
    "Installed package, outside the checkout":
        "`pip install .` builds in an isolated environment, which fetches "
        "the build backend from the package index",
}


def read_steps(text):
    """(name, run) of each step of each job, in order, with run None for a
    step that only names an action, read line by line: a step starts with
    `- ` under a `steps:` key, its keys sit two columns past the dash
    (comments and deeper keys, such as those under `with:`, are passed
    over), and a `run: |` block holds the lines indented past its key,
    less their common indentation, with one final newline."""
    steps, lines = [], text.splitlines()
    steps_indent = item_indent = None
    k = 0
    while k < len(lines):
        line = lines[k]
        k += 1
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "steps:":
            steps_indent, item_indent = indent, None
            continue
        if steps_indent is None or indent <= steps_indent:
            steps_indent = None
            continue
        if stripped.startswith("- ") and item_indent in (None, indent):
            item_indent = indent
            steps.append({})
            stripped, indent = stripped[2:], indent + 2
        elif indent != item_indent + 2:
            continue
        key, _, value = stripped.partition(":")
        value = value.strip()
        if value == "|":
            block = []
            while k < len(lines) and (not lines[k].strip() or len(lines[k])
                                      - len(lines[k].lstrip()) > indent):
                block.append(lines[k])
                k += 1
            while block and not block[-1].strip():
                block.pop()
            margin = min(len(b) - len(b.lstrip()) for b in block if b.strip())
            value = "".join(b[margin:] + "\n" for b in block)
        steps[-1][key] = value
    return [(step.get("name") or step.get("uses"), step.get("run"))
            for step in steps]


def copy_checkout(into: Path):
    """The checkout's tracked and untracked, not ignored, files, copied
    under `into`; every file but .git when git cannot list them."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], cwd=ROOT, check=True,
            capture_output=True).stdout.decode().split("\0")
    except (OSError, subprocess.CalledProcessError):
        shutil.copytree(ROOT, into, ignore=shutil.ignore_patterns(".git"))
        return
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def main():
    steps = read_steps(WORKFLOW.read_text(encoding="utf-8"))

    scratch = Path(tempfile.mkdtemp(prefix="ci_local-"))
    work, runner_temp = scratch / "checkout", scratch / "runner_temp"
    runner_temp.mkdir()
    copy_checkout(work)
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    env = dict(os.environ, GITHUB_STEP_SUMMARY=str(scratch / "summary.md"),
               RUNNER_TEMP=str(runner_temp), PIP_NO_INDEX="1",
               PIP_DISABLE_PIP_VERSION_CHECK="1")
    bin_dir = Path(sys.executable).parent
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"

    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    started = time.perf_counter()
    for name, run in steps:
        if run is None:
            continue  # an action, which only GitHub runs
        if name in NEEDS_NETWORK:
            counts["SKIP"] += 1
            print(f"SKIP          {name}: needs the network, "
                  f"{NEEDS_NETWORK[name]}", flush=True)
            continue
        script = run.replace("${{ matrix.python-version }}", version)
        t0 = time.perf_counter()
        done = subprocess.run(["bash", "-eo", "pipefail", "-c", script],
                              cwd=work, env=env, capture_output=True,
                              text=True)
        elapsed = time.perf_counter() - t0
        verdict = "PASS" if done.returncode == 0 else "FAIL"
        counts[verdict] += 1
        print(f"{verdict} {elapsed:8.1f} s  {name}", flush=True)
        if done.returncode:
            tail = (done.stdout + done.stderr).strip().splitlines()[-20:]
            print("\n".join("    " + line for line in tail), flush=True)

    total = sum(counts.values())
    print(f"ci_local: {counts['PASS']} passed, {counts['FAIL']} failed, "
          f"{counts['SKIP']} skipped of {total} run steps in "
          f"{time.perf_counter() - started:.1f} s (Python {version})")
    shutil.rmtree(scratch, ignore_errors=True)
    return 1 if counts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main())
