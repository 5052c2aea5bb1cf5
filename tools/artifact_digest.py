"""Digest every file and the stdout that the six CLI commands write.

    PYTHONPATH=<checkout>/src python3 tools/artifact_digest.py

Runs acceptance criterion 10's tiny configuration through gen-data,
pretrain, render, finetune, eval and gradcheck, in that order, in a fresh
temporary directory with relative output paths, so that config.resolved and
stdout do not depend on where the checkout or the directory lives. Prints
``sha256  relative/path`` for each file the commands write, sorted by path,
then one line for their joined stdout. Two checkouts whose outputs agree
write the same bytes; compare them with diff. A command that exits non-zero
stops the tool with that exit code.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from querysplat import cli

# Criterion 10's configuration (tests/test_acceptance.py).
TINY = {
    "seed": 0,
    "data": {"n_scenes": 2, "n_objects": 1, "n_views": 2,
             "image_size": [32, 32], "keep_rate": 0.5},
    "decoder": {"queries": 16, "feature_dim": 32},
    "pretrain": {"total_steps": 6, "warmup_steps": 2,
                 "checkpoint_every": 3, "snapshot_every": 3,
                 "hflip_prob": 0.5},
    "finetune": {"steps": 4, "grid": 4, "k": 4, "d_task": 16,
                 "pe_hidden": 8},
}

COMMANDS = [
    ["gen-data", "--out-dir", "data"],
    ["pretrain", "--data", "data", "--out-dir", "pre"],
    ["render", "--checkpoint", "pre/model.ckpt", "--scene", "data/scenes/0000",
     "--out-dir", "ren"],
    ["finetune", "--data", "data", "--pretrained", "pre/model.ckpt",
     "--out-dir", "fin"],
    ["eval", "--data", "data", "--pretrained", "pre/model.ckpt",
     "--task", "fin/task.ckpt", "--out-dir", "ev"],
    ["gradcheck", "--out-dir", "gc"],
]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_all():
    """Run COMMANDS in the current directory; returns (exit code, stdout)."""
    with open("tiny.json", "w") as f:
        json.dump(TINY, f)
    stdout = io.StringIO()
    for argv in COMMANDS:
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*argv, "--config", "tiny.json"])
        if code != 0:
            print(f"{argv[0]} exited {code}", file=sys.stderr)
            return code, stdout.getvalue()
    return 0, stdout.getvalue()


def main():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="artifact_digest_") as root:
        os.chdir(root)
        try:
            code, stdout = run_all()
            if code != 0:
                return code
            digests = {}
            for dirpath, _, files in os.walk("."):
                for name in files:
                    path = os.path.relpath(os.path.join(dirpath, name))
                    if path != "tiny.json":
                        with open(path, "rb") as f:
                            digests[path] = sha256(f.read())
        finally:
            os.chdir(cwd)
    for path in sorted(digests):
        print(f"{digests[path]}  {path}")
    print(f"{sha256(stdout.encode())}  (stdout)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
