"""Make ``bench`` and ``repro`` importable however pytest was started."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
