"""Print the public functions, classes and methods of a checkout of
blockinv with their settable parameters, and the total.

    python tools/api_surface.py ROOT

ROOT is a checkout root (with ``src/blockinv``), imported under its own
package name as ``engine_overhead.py`` imports one.  Every public name (no
leading underscore) that a module of the package defines is listed: a
function with its parameters, a class with its constructor's, and each
public method of a class with its own.  A settable parameter is any
parameter a caller can pass, so every one but ``self`` and ``cls``.  The
last line is the total, which a change that adds no option does not raise.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from engine_overhead import load  # noqa: E402


def parameters(obj) -> list[str]:
    try:
        names = inspect.signature(obj).parameters
    except (TypeError, ValueError):  # no signature to read
        return []
    return [name for name in names if name not in ("self", "cls")]


def surface(pkg) -> list[tuple[str, list[str]]]:
    """(dotted name, settable parameters) of each public function, class
    and method of the package, module by module."""
    rows = []
    for info in sorted(pkgutil.iter_modules(pkg.__path__), key=lambda info: info.name):
        module = importlib.import_module(f"{pkg.__name__}.{info.name}")
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            label = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                rows.append((label, parameters(obj)))
            elif inspect.isclass(obj):
                rows.append((label, parameters(obj)))
                for attr, member in sorted(vars(obj).items()):
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        rows.append((f"{label}.{attr}", parameters(member)))
    return rows


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path)
    args = ap.parse_args(argv)
    rows = surface(load(args.root.resolve(), "blockinv_surface"))
    for label, params in rows:
        print(f"{label}({', '.join(params)})  {len(params)}")
    print(f"total {sum(len(params) for _, params in rows)} settable parameters "
          f"in {len(rows)} functions, classes and methods")


if __name__ == "__main__":
    main()
