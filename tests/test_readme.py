"""README's ``python`` examples run as written."""

import contextlib
import io
import re
from pathlib import Path

from deltaforge import node_eq, parse

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(L_flat, expected_variant):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
    # the Library example prints the case study's variant
    printed = parse(L_flat, "SCDefinition", out.getvalue())
    assert node_eq(printed, expected_variant, {"elements"})
