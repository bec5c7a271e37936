from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs_and_recovers_the_rate(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}: Library use", "exec"), {})
    line = next(line for line in capsys.readouterr().out.splitlines() if " vs " in line)
    estimate, truth = map(float, line.split(" vs "))
    assert estimate == pytest.approx(truth, rel=0.05)
