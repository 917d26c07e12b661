"""Regenerate the peak-shootout reference outputs with the system C compiler.

Each shootout program (``src/repro/bench/programs/<name>.c``) is compiled
by ``gcc -O0`` and run natively; its stdout is stored verbatim as
``perfbench/expected/<name>.out``.  The benchmark compares every timed
iteration against these files, so the reference never comes from the
engine under test.

Usage, from the repository root::

    python3 perfbench/make_expected.py            # write the files
    python3 perfbench/make_expected.py --check    # compare only
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAMS_DIR = os.path.join(ROOT, "src", "repro", "bench", "programs")
EXPECTED_DIR = os.path.join(HERE, "expected")


def native_output(source_path: str, workdir: str) -> bytes:
    binary = os.path.join(workdir, "a.out")
    subprocess.run(["gcc", "-O0", "-o", binary, source_path, "-lm"],
                   check=True)
    return subprocess.run([binary], check=True, capture_output=True,
                          timeout=120).stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored files, write nothing")
    args = parser.parse_args(argv)
    names = sorted(name[:-2] for name in os.listdir(PROGRAMS_DIR)
                   if name.endswith(".c"))
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    differing = []
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for name in names:
            output = native_output(os.path.join(PROGRAMS_DIR, name + ".c"),
                                   workdir)
            path = os.path.join(EXPECTED_DIR, name + ".out")
            if args.check:
                with open(path, "rb") as handle:
                    if handle.read() != output:
                        differing.append(name)
                continue
            with open(path, "wb") as handle:
                handle.write(output)
            print(f"{name}: {len(output)} bytes")
    if differing:
        print("differs from gcc -O0: " + ", ".join(differing),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
