"""tools/artifact_digest.py: one digest line per written file, then stdout."""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import artifact_digest  # noqa: E402


def test_digests_every_written_file_and_stdout(capsys):
    cwd = os.getcwd()
    assert artifact_digest.main() == 0
    assert os.getcwd() == cwd
    lines = capsys.readouterr().out.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths[-1] == "(stdout)"
    assert paths[:-1] == sorted(paths[:-1])
    for want in ("data/config.resolved", "pre/model.ckpt", "ren/render/view0.ppm",
                 "fin/task.ckpt", "ev/eval.csv", "gc/config.resolved"):
        assert want in paths
    assert "tiny.json" not in paths
    assert not any(os.path.isabs(p) or p.startswith("..") for p in paths)


def test_a_failing_command_stops_the_tool(monkeypatch, capsys):
    main = artifact_digest.cli.main

    def failing_render(argv):
        return 2 if argv[0] == "render" else main(argv)

    monkeypatch.setattr(artifact_digest.cli, "main", failing_render)
    assert artifact_digest.main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "render exited 2" in captured.err
