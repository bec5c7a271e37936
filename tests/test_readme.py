import json
import re
from pathlib import Path

import pytest

from deltaprobe import cli, errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs_and_recovers_the_rate(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}: Library use", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    estimate, truth = map(float, next(line for line in lines if " vs " in line).split(" vs "))
    assert estimate == pytest.approx(truth, rel=0.05)
    report = json.loads(lines[-1])
    assert report["b_av_bps"] == estimate and report["n_sizes"] == 2


def _transcripts():
    """(command, output) of each `$ ` line of the README's shell blocks."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        if block.startswith("$ "):
            for chunk in block[2:].split("\n$ "):
                command, _, output = chunk.partition("\n")
                yield command, output


def test_cli_transcripts_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for command, output in _transcripts():
        argv = command.split()
        if argv[0] == "cat":  # the input file the commands after it read
            (tmp_path / argv[1]).write_text(output, encoding="utf-8")
            continue
        assert cli.main(argv[1:]) == 0, command
        # the transcript writes a session id of 16 hex digits as "...."
        out = re.sub(r"sim-[0-9a-f]{16}\.jsonl", "sim-....jsonl", capsys.readouterr().out)
        assert out == output, command
        ran.append(command)
    assert ran == ["deltaprobe estimate adsl.csv", "deltaprobe simulate twohop.json"]


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
