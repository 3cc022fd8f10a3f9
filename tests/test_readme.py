"""The README's "Library use" block, run as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_examples():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under ## Library use"
    lineno = text[:text.index(block.group(1))].count("\n")
    test = doctest.DocTestParser().get_doctest(block.group(1), {}, "README.md", str(README), lineno)
    assert len(test.examples) == 9
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
