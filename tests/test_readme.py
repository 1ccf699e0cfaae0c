"""Every python code block in README.md runs as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_custom_profile_example_finds_poschl_teller_e0():
    # the 1/sin mass example is poschl_teller at alpha = v0 = m0 = 1
    code = next(block for block in BLOCKS if "solve_approximate" in block)
    scope = {"__name__": "readme_example"}
    exec(compile(code, str(README), "exec"), scope)
    assert f"{scope['e0']:.8f}" == "1.48937765"
    grid, tmap = scope["grid"], scope["tmap"]
    assert (grid.lo, grid.hi, grid.n) == (tmap.q_lo, tmap.q_hi, 2000)
