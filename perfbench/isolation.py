"""Cold jobs: find every cache in the package and clear it before each job.

Caches are found by scanning the package's modules for objects with a
``cache_clear`` method, not from a fixed list, so a cache added later is
cleared too.  ``Field.tables`` and ``Field.prime_rep`` are cached per
``Field`` instance; clearing ``gf.make_field`` drops those instances.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import types


def package_modules(package) -> list[types.ModuleType]:
    """The package and all its submodules, imported (``__main__`` excepted)."""
    mods = [package]
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            mods.append(importlib.import_module(info.name))
    return mods


def _members(mod):
    """Each module global, and each attribute of a class the module defines."""
    for obj in vars(mod).values():
        if isinstance(obj, types.ModuleType):
            continue
        yield obj
        if isinstance(obj, type) and obj.__module__ == mod.__name__:
            for val in vars(obj).values():
                yield getattr(val, "__func__", val)


def find_caches(modules) -> dict[str, object]:
    """Qualified name -> cache object, for every cache defined in the package."""
    prefix = modules[0].__name__
    found = {}
    for mod in modules:
        for obj in _members(mod):
            seen = set()
            while obj is not None and id(obj) not in seen:
                seen.add(id(obj))
                module = str(getattr(obj, "__module__", ""))
                if callable(getattr(obj, "cache_clear", None)) and module.startswith(prefix):
                    found[f"{module}.{obj.__qualname__}"] = obj
                obj = getattr(obj, "__wrapped__", None)
    return found


def _cached_property_values(modules):
    """Labels of module-level objects that hold a computed cached_property."""
    for mod in modules:
        for label, obj in vars(mod).items():
            if isinstance(obj, (type, types.ModuleType)) or not hasattr(obj, "__dict__"):
                continue
            for cls in type(obj).__mro__:
                for attr, val in vars(cls).items():
                    if isinstance(val, functools.cached_property) and attr in vars(obj):
                        yield f"{mod.__name__}.{label}.{attr}"


def reset(caches: dict[str, object], modules) -> None:
    """Clear every cache; raise if any package-level cached state survives."""
    for cache in caches.values():
        cache.cache_clear()
    survivors = [
        label
        for label, cache in caches.items()
        if hasattr(cache, "cache_info") and cache.cache_info().currsize
    ]
    survivors += _cached_property_values(modules)
    if survivors:
        raise RuntimeError(f"package caches survived the reset: {survivors}")
