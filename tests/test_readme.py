"""The README's library quick start runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the quick start section has no python block"
    return match.group(1)


def test_quick_start_runs(capsys):
    namespace: dict = {}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert "avg derivative:" in out and "95% CI:" in out
    fit, res = namespace["fit"], namespace["res"]
    # h loads on z1 and z2, so both stages should keep them
    assert {0, 1} <= set(fit.selected.tolist())
    assert res.ci_lower < res.theta_hat < res.ci_upper
