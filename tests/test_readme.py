import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs():
    """The README's "Library use" example runs against the package API."""
    match = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE)
    assert match, "README.md has no python block under '## Library use'"
    exec(compile(match.group(1), str(README), "exec"), {})
