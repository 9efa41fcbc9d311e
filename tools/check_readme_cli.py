"""Run the `$ birack ...` examples of README.md and compare their output.

    python tools/check_readme_cli.py

In the README's CLI block, an example is a line `$ birack ARGS` followed by
its output, up to a blank line or the end of the block; an output line
`...` ends the part that is compared.  Each example runs through the
installed `birack` command, so after `pip install .` and from outside the
checkout it exercises the console script and the bundled data the package
carries.  Prints a diff for each example whose output differs and exits 1
if any does.
"""

from __future__ import annotations

import difflib
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def examples(text: str) -> list[tuple[list[str], list[str], bool]]:
    """(arguments, expected output lines, whether the output is cut short by
    `...`) of every `$ birack` example."""
    found, current, in_block = [], None, False
    for line in text.splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ birack "):
            current = [shlex.split(line)[2:], [], False]
            found.append(current)
        elif current is not None and line.strip() == "...":
            current[2], current = True, None
        elif current is not None and not line.strip():
            current = None
        elif current is not None:
            current[1].append(line)
    return [tuple(example) for example in found]


def mismatches(command: list[str], text: str) -> list[str]:
    """A diff for each example whose output differs from the README's."""
    out = []
    for args, expected, cut in examples(text):
        run = subprocess.run(command + args, capture_output=True, text=True, check=False)
        got = run.stdout.splitlines()
        if cut:
            got = got[:len(expected)]
        if run.returncode != 0 or got != expected:
            label = " ".join(["birack", *args])
            out.append(f"{label} (exit {run.returncode})\n" + "\n".join(
                difflib.unified_diff(expected, got, "README", label, lineterm="")))
    return out


def main() -> int:
    text = README.read_text()
    failed = mismatches(["birack"], text)
    for diff in failed:
        print(diff)
    print(f"{len(examples(text)) - len(failed)} of {len(examples(text))} README examples match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
