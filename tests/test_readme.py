import re
from pathlib import Path

from voxaug.config import load_config, save_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs():
    """The README's "Library use" example runs against the package API."""
    match = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE)
    assert match, "README.md has no python block under '## Library use'"
    exec(compile(match.group(1), str(README), "exec"), {})


def test_readme_pipeline_config_block_loads_and_round_trips(tmp_path):
    """The README's "Pipeline config" example is a valid config, and saving
    and loading it again gives an equal config."""
    match = re.search(r"^## Pipeline config\n.*?^```json\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE)
    assert match, "README.md has no json block under '## Pipeline config'"
    path = tmp_path / "readme.json"
    path.write_text(match.group(1))
    cfg = load_config(path)
    assert len(cfg.pipeline) == 5
    save_config(cfg, tmp_path / "saved.json")
    assert load_config(tmp_path / "saved.json") == cfg
