"""The README's library example prints what its comments say."""

import contextlib
import io
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_in_ten_lines_prints_each_commented_value():
    # the block under "Library in ten lines", run as written: every print
    # line ends in "# value", the text that print writes
    section = README.read_text(encoding="utf-8").split("## Library in ten lines\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["s(1,1) + s(2)", "5", "-935"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
