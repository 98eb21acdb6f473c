"""Every name a ``repro`` package lists in ``__all__`` resolves.

Deleting a function but leaving its name in a package's ``__all__``
breaks ``from repro.<package> import *`` and nothing else, so no other
test sees it.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_package_export_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    packages = [importlib.import_module(name) for name in names]
    exporting = [p for p in packages if hasattr(p, "__all__")]
    assert len(exporting) >= 18
    unresolved = [
        f"{package.__name__}.{name}"
        for package in exporting
        for name in package.__all__
        if not hasattr(package, name)
    ]
    assert unresolved == []
