"""The README's library example runs against the installed package root."""

import pathlib
import re

import nht

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_package_root_is_the_documented_surface():
    assert sorted(nht.__all__) == sorted(
        "doubling_chain evaluate_candidate forward_transform inverse_transform "
        "circular_autocorr NHTError".split()
    )
