"""The README's library example runs as it says, and its caps table holds the code's caps."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from oridial import cohomology, deformations, trees

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    expected = [line.rsplit("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected, "the example prints nothing"
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_caps_table_lists_the_fixed_ceilings():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Resource caps"):]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([\d,]+) \|", section, re.MULTILINE)
    caps = [(cohomology, "MAX_GROUP"), (cohomology, "MAX_DIM"), (cohomology, "MAX_COCHAIN_DIM"),
            (trees, "MAX_LEVEL"), (deformations, "MAX_ORDER")]
    assert [(name, module, int(value.replace(",", ""))) for name, module, value in rows] == [
        (name, module.__name__.rsplit(".", 1)[1], getattr(module, name)) for module, name in caps]
