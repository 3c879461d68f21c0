"""README's library example runs as written against the current API."""

import contextlib
import io
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    # pad with the lines before the block so tracebacks point into README.md
    offset = text.count("\n", 0, len(text) - len(section) + block.start(1))
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile("\n" * offset + block.group(1), str(README), "exec"), namespace)
    # the example's claim: three positions within ~1e-6 of the truth
    est = np.sort(namespace["result"].estimate.positions.ravel())
    np.testing.assert_allclose(est, namespace["truth"].positions.ravel(), rtol=0, atol=1e-5)
