"""The README's examples stay in step with the package: its config block
loads, and its library sketch names only what ``wavemaplab`` exports."""

import dataclasses
import re
from pathlib import Path

import wavemaplab
from wavemaplab.cli import ExperimentConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    assert len(blocks) == 1, f"expected one {lang} block in the README"
    return blocks[0]


def test_readme_config_loads_to_the_defaults(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(_block("ini"))
    cfg, _ = load_config(str(path))
    assert cfg == dataclasses.replace(ExperimentConfig(), name="demo",
                                      out_dir="results")


def test_readme_sketch_names_exported_attributes():
    names = set(re.findall(r"\bwm\.(\w+)", _block("python")))
    assert names
    assert sorted(n for n in names if not hasattr(wavemaplab, n)) == []
