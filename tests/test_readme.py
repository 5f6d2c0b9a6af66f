import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library sketch)", "exec"), {})
    assert capsys.readouterr().out.strip()
