"""The README's CLI tour, run in-process and compared with a golden transcript.

Each line of the ```sh block under "## CLI tour" is split like a shell
would (comments stripped), the leading `symtest` is dropped and the rest
goes to `cli.dispatch`.  The exit code and stdout of every line must match
`readme_tour.golden` byte for byte.  To rewrite the golden after a
deliberate output change:

    PYTHONPATH=src python tests/test_readme_tour.py > tests/readme_tour.golden
"""

import contextlib
import io
import shlex
from pathlib import Path

from symtest.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "readme_tour.golden"


def tour_lines() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split("## CLI tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in body.splitlines() if line.strip()]


def transcript() -> str:
    out = []
    for line in tour_lines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "symtest", line
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = dispatch(argv[1:])
        out.append(f"$ {shlex.join(argv)}\nexit {code}\n{stdout.getvalue()}")
    return "".join(out)


def test_readme_tour_matches_golden():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(transcript(), end="")
