import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    # the README's python block must keep working as the public API shrinks
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    rate = float(capsys.readouterr().out)
    assert abs(rate + 1.5) < 0.01  # "about -1.50"
