import re
from pathlib import Path

import pytest


def test_python_examples_run_and_print_what_their_comments_say():
    # the ```python blocks of the README, in order, in one namespace
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 3
    ns = {}
    exec(blocks[0], ns)
    assert abs(ns["ms"].trivial() - 1.0) < 1e-13
    assert ns["ms"].dominant_nontrivial() == pytest.approx(-0.13546, abs=1e-5)
    assert ns["ms"].verdict == "stable"
    exec(blocks[1], ns)
    exec(blocks[2], ns)
    assert ns["ms"].dominant() == pytest.approx(2.0176, abs=1e-4)
