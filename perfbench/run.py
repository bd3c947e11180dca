"""rlseg benchmark launcher.

    python3 perfbench/run.py --workload chars_narrow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/`` and nowhere else, so the command fails (exit 1, nothing on
standard output) where the sources are missing. See perfbench/README.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def require_program() -> None:
    """Put the checkout's src/ first on sys.path, or exit when it has no rlseg."""
    if not (SRC / "rlseg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rlseg sources under {SRC}")
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    require_program()
    from measure import main

    sys.exit(main())
