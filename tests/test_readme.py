"""The README's library quick start runs as written."""

import contextlib
import io
import pathlib
import re

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("seed,overfits", [(2, True), (0, False)])
def test_quick_start_runs(seed, overfits):
    # y_raw and X_raw are the quick start's inputs: the reference signal on
    # (1, 2, 3) with an offset; seed 2 selects {1,2,3,6}, seed 0 selects {1,2,3}
    rng = np.random.default_rng(seed)
    X_raw = rng.standard_normal((50, 10))
    y_raw = 10.0 + X_raw[:, :3] @ np.array([1.0, 2.0, 3.0]) + rng.standard_normal(50)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_start_code(), {"y_raw": y_raw, "X_raw": X_raw})
    lines = out.getvalue().splitlines()
    # the theorem line only for a strict overfit, where AIC at n = 50 forces it
    assert lines[:-1] == (["True True"] if overfits else [])
    coverage, ratio = map(float, lines[-1].split())
    assert (coverage, round(ratio, 5)) == (0.861, 1.0533)
