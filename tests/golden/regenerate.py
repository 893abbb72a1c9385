"""Rewrite the golden stdout documents from the code in this checkout.

Each command named in ``commands.json`` runs as ``python -m pirlab <argv>``
with ``PIRLAB_SEED`` unset; its stdout is written, byte for byte, to
``<name>.json`` beside this file, and its exit code to the command's
``exit`` field. Run it from the repository root after a deliberate stdout
change, and review the result with ``git diff tests/golden``:

    python tests/golden/regenerate.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    manifest = HERE / "commands.json"
    commands = json.loads(manifest.read_text())
    env = {name: value for name, value in os.environ.items() if name != "PIRLAB_SEED"}
    src = str(HERE.parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for name, command in commands.items():
        done = subprocess.run([sys.executable, "-m", "pirlab", *command["argv"]], env=env, capture_output=True)
        (HERE / f"{name}.json").write_bytes(done.stdout)
        command["exit"] = done.returncode
    lines = [f"  {json.dumps(name)}: {json.dumps(command)}" for name, command in commands.items()]
    manifest.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
