"""Digest of every shipped (config, command) run, for comparing two checkouts.

Runs each command named in the ``run`` section of every shipped config
(``finslerkit/configs/*.json``) through ``finslerkit.cli.main`` and prints
one sorted JSON object: for each ``<config>/<command>`` the sha256 of the
CSV and the ``--json`` summary without its ``csv`` path.

    PYTHONPATH=src python tools/shipped_digest.py > digest.json

Run it on two checkouts and compare the outputs (``diff`` or ``cmp``);
identical output means byte-identical CSVs and equal summaries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from finslerkit.cli import COMMANDS, builtin_config, main


def shipped_digest() -> dict:
    out: dict = {}
    names = sorted(p.name[: -len(".json")] for p in resources.files("finslerkit").joinpath("configs").iterdir())
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            text = builtin_config(name)
            cfg_path = Path(tmp) / f"{name}.json"
            cfg_path.write_text(text)
            for command in (c for c in json.loads(text)["run"] if c in COMMANDS):
                csv_path = Path(tmp) / f"{name}-{command}.csv"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main([command, "--config", str(cfg_path), "--out", str(csv_path), "--json"])
                if code != 0:
                    out[f"{name}/{command}"] = {"exit_code": code}
                    continue
                summary = json.loads(stdout.getvalue())
                summary.pop("csv")
                out[f"{name}/{command}"] = {
                    "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
                    "summary": summary,
                }
    return out


if __name__ == "__main__":
    print(json.dumps(shipped_digest(), indent=1, sort_keys=True))
