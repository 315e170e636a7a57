"""Meta-test: every public item in the library carries a docstring.

Documentation is a deliverable; this test keeps it from regressing.
Public = importable from a ``repro`` module without a leading underscore.
"""

import importlib
import inspect
import pathlib
import pkgutil

import repro


def _iter_modules():
    package_dir = pathlib.Path(repro.__file__).parent
    yield repro
    for info in pkgutil.walk_packages([str(package_dir)], prefix="repro."):
        yield importlib.import_module(info.name)


def _public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        yield name, member


def test_every_module_has_a_docstring():
    undocumented = [
        module.__name__
        for module in _iter_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert not undocumented, f"modules without docstrings: {undocumented}"


def test_every_public_class_and_function_documented():
    missing = []
    for module in _iter_modules():
        for name, member in _public_members(module):
            if not (member.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
    assert not missing, f"undocumented public items: {missing}"


def test_public_methods_documented():
    missing = []
    for module in _iter_modules():
        for class_name, cls in _public_members(module):
            if not inspect.isclass(cls):
                continue
            for method_name, method in vars(cls).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not (method.__doc__ or "").strip():
                    missing.append(
                        f"{module.__name__}.{class_name}.{method_name}"
                    )
    assert not missing, f"undocumented public methods: {missing}"
