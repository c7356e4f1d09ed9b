"""Digest of every shipped (config, command) run, for comparing two checkouts.

Runs each command named in the ``run`` section of every shipped config
(``finslerkit/configs/*.json``) through ``finslerkit.cli.main`` and prints
one sorted JSON object: for each ``<config>/<command>`` the sha256 of the
CSV and the ``--json`` summary without its ``csv`` path.

    PYTHONPATH=src python tools/shipped_digest.py > digest.json

Run it on two checkouts and compare the outputs (``diff`` or ``cmp``);
identical output means byte-identical CSVs and equal summaries.  With
``--against BASE.json`` (a digest printed on another checkout) it prints,
instead of the digest, how many entries are identical out of the total and
one line for each entry that differs, naming the differing parts; it exits
0 either way.

    PYTHONPATH=src python tools/shipped_digest.py --against digest.json
"""

from __future__ import annotations

import argparse
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


def differences(base: dict, head: dict) -> list[str]:
    """One line per key whose entries differ: the parts that differ, or the
    digest that alone has the key."""
    lines = []
    for key in sorted(set(base) | set(head)):
        if key not in base or key not in head:
            lines.append(f"{key}: only in the {'head' if key in head else 'base'} digest")
            continue
        parts = [p for p in sorted(set(base[key]) | set(head[key])) if base[key].get(p) != head[key].get(p)]
        if parts:
            lines.append(f"{key}: differs in {', '.join(parts)}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="BASE.json", help="compare with a digest printed on another checkout")
    args = parser.parse_args()
    digest = shipped_digest()
    if args.against is None:
        print(json.dumps(digest, indent=1, sort_keys=True))
    else:
        with open(args.against, encoding="utf-8") as fh:
            base = json.load(fh)
        lines = differences(base, digest)
        total = len(set(base) | set(digest))
        print(f"shipped digest: {total - len(lines)} of {total} entries identical")
        for line in lines:
            print(line)
