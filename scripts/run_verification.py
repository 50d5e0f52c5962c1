#!/usr/bin/env python3
"""Run the full oracle verification suite and print one line per check.

Usage: python scripts/run_verification.py [OUT_DIR]
"""

import json
import sys
import tempfile
from pathlib import Path

from posgame.cli import main as posgame_main


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("verification_out")
    config = {
        "verify": {"n": [2, 3, 5], "kappa": [1, 5, 25], "draws": 3, "n_steps": 2000},
        "output": {"seed": 20240901},
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))
        return posgame_main(["verify", "--config", str(cfg_path), "--out", str(out)])


if __name__ == "__main__":
    sys.exit(main())
