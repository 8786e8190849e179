"""docs/api.md and the package exports cannot drift apart.

Every name in the first column of a module table must resolve in the
module its ``## `module` `` heading names; a ``### `Class` methods``
table resolves on that class, and a dotted name walks submodules.
"""

import importlib
import re
from pathlib import Path

API_MD = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def _resolve(owner, dotted):
    for part in dotted.split("."):
        if not hasattr(owner, part):  # a submodule not imported yet
            importlib.import_module(f"{owner.__name__}.{part}")
        owner = getattr(owner, part)
    return owner


def test_every_documented_name_resolves():
    owner, checked, missing = None, 0, []
    for line in API_MD.read_text().splitlines():
        head = re.match(r"#+ `([\w.]+)`", line)
        if line.startswith("## "):
            owner = importlib.import_module(head[1]) if head else None
        elif head:
            owner = _resolve(owner, head[1])
        elif owner is not None and line.startswith("| `"):
            for name in re.findall(r"`([A-Za-z_][\w.]*)", line.split("|")[1]):
                checked += 1
                try:
                    _resolve(owner, name)
                except (AttributeError, ImportError):
                    missing.append(f"{owner.__name__}.{name}")
    assert checked > 50, "the module tables were not parsed"
    assert not missing, f"docs/api.md names what the code lacks: {missing}"
