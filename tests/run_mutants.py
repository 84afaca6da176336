"""Run the mutation checks listed in mutants.json and report the survivors.

Each mutant names a file, an exact old text that occurs in it once, the new
text that replaces it, and the tests expected to fail.  For each mutant the
runner copies the repository to a temporary directory, applies the mutant
there and runs only the named tests.  The mutant is killed when one of them
fails.  A mutant marked ``equivalent`` cannot be killed, for the reason it
gives, and is expected to survive.

    python3 tests/run_mutants.py              # every mutant
    python3 tests/run_mutants.py "mark: u <= tp dropped" ...

Exits 1 when a mutant that is not marked equivalent survives, or when an
equivalent one is killed.  This is slow, and it is not part of the tier-1
suite; tests/test_mutants.py only checks that every old text is still there.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).with_name("mutants.json")
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")


def load_mutants():
    return json.loads(MUTANTS.read_text())


def killed(mutant):
    """Whether a named test fails with the mutant applied to a copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        path = copy / mutant["file"]
        text = path.read_text()
        if text.count(mutant["old"]) != 1:
            raise SystemExit("%s: old text does not occur exactly once" % mutant["name"])
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant["tests"]], cwd=copy, env=env, capture_output=True, text=True)
    # 1: a test failed; 2: the mutated code broke collection
    if result.returncode not in (0, 1, 2):
        raise SystemExit("%s: pytest exited %d\n%s"
                         % (mutant["name"], result.returncode, result.stdout))
    return result.returncode != 0


def main(names):
    mutants = [m for m in load_mutants() if not names or m["name"] in names]
    bad = 0
    for mutant in mutants:
        dead = killed(mutant)
        equivalent = mutant.get("equivalent")
        if equivalent:
            verdict = "killed, though listed as equivalent" if dead else "survived (equivalent)"
            bad += dead
        else:
            verdict = "killed" if dead else "SURVIVED"
            bad += not dead
        print("%-56s %s" % (mutant["name"], verdict), flush=True)
    print("%d mutant(s), %d unexpected" % (len(mutants), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
