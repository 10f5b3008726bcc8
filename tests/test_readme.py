"""Every ``$ skewcount ...`` example in README.md prints exactly what README shows,
and every ``python`` block of README runs.

Each ``sh`` block line starting with ``$ skewcount`` is a command; the lines
after it, up to the next ``$`` line or the end of the block, are its stdout.
Route timings vary, so ``elapsed_ms`` is compared as README writes it, ``{...}``.
The ``python`` blocks run in order in one namespace, as a reader would paste them.
"""

import re
import shlex
from pathlib import Path

import pytest

from skewcount.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[str, str]]:
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        current = None
        for line in block.splitlines():
            if line.startswith("$ "):
                current = (line[2:], [])
                examples.append(current)
            elif current is not None:
                current[1].append(line)
    return [(command, "".join(f"{out}\n" for out in lines)) for command, lines in examples]


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4
    assert all(command.startswith("skewcount ") for command, _ in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    out = re.sub(r'"elapsed_ms": \{[^{}]*\}', '"elapsed_ms": {...}', capsys.readouterr().out)
    assert code == 0
    assert out == expected


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
