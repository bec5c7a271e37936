import re
from pathlib import Path

import pytest

from deltaprobe import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs_and_recovers_the_rate(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}: Library use", "exec"), {})
    line = next(line for line in capsys.readouterr().out.splitlines() if " vs " in line)
    estimate, truth = map(float, line.split(" vs "))
    assert estimate == pytest.approx(truth, rel=0.05)


def test_exit_code_table_matches_the_error_tree():
    section = README.read_text(encoding="utf-8").split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    table = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")]
    rows = {int(code): re.findall(r"`(\w+)`", base) for code, _, base in table[2:]}
    assert rows.pop(0) == []  # success names no class
    for code, names in rows.items():
        cls = getattr(errors, names[0])
        assert issubclass(cls, errors.DeltaProbeError) and cls.exit_code == code, names[0]
    # and no code of the error tree is missing from the table
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.DeltaProbeError)]
    assert {c.exit_code for c in classes} == set(rows)
