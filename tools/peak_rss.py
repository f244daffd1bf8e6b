"""Peak resident memory of one ``virtlprm`` command, run in a fresh process.

    python3 tools/peak_rss.py gen --config cycle.json --out archive

Runs ``python -m virtlprm`` with the given arguments in a child process, with
this checkout's ``src/`` first on ``PYTHONPATH``, discards the command's
stdout, lets its stderr through, and prints the child's peak resident set
size (``ru_maxrss``) as ``peak_rss_mb <MB>``. A fresh process is needed
because glibc keeps freed heap resident: a peak taken inside a process that
ran something before also counts what that left behind. Exits with the
command's exit code.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb(argv: list[str]) -> tuple[int, float]:
    """The exit code of ``virtlprm argv`` and its peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = subprocess.run([sys.executable, "-m", "virtlprm", *argv], env=env,
                          stdout=subprocess.DEVNULL).returncode
    # ru_maxrss is in KiB on Linux; the only child waited for is this one
    return code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    code, mb = peak_rss_mb(argv)
    print(f"peak_rss_mb {mb:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
