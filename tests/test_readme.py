import doctest
import re
from pathlib import Path

from suite_gates import GATES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_pycon_blocks():
    # the ```pycon blocks run as one doctest, in order; only the
    # fences are stripped, since doctest would read a closing fence as
    # expected output
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```pycon\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README.md", str(README), 0)
    assert len(test.examples) >= 8
    runner = doctest.DocTestRunner()
    messages = []
    runner.run(test, out=messages.append)
    assert runner.failures == 0, "".join(messages)


def test_readme_gate_table_is_the_suite_gates_table():
    text = README.read_text(encoding="utf-8")
    tests = text[text.index("\n## Tests\n") :]
    rows = re.findall(r"^\| (\d+) \| `([a-z-]+)` \| ≤ (\d+) \| (.+) \|$", tests, flags=re.M)
    expected = [
        (str(gate), suite, str(top), ", ".join(map(str, ci_ranks)) or "—")
        for gate, (suite, top, ci_ranks, _) in GATES.items()
    ]
    assert rows == expected
