"""The rules that keep a cold ``import evidentia.cli`` cheap: no dataclass
has methods or a docstring generated for it, and the import leaves out
what only ``--format json`` and ``check`` use."""

import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import evidentia
from evidentia._value import Value


def _dataclasses():
    found = []
    for info in pkgutil.walk_packages(evidentia.__path__, "evidentia."):
        if info.name == "evidentia.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
            ):
                found.append(value)
    return found


def test_every_dataclass_is_found():
    names = {cls.__qualname__ for cls in _dataclasses()}
    assert len(names) >= 26
    assert {"Proposition", "SourceSpan", "Model", "AndPred", "SuiteResult"} <= names


def test_every_dataclass_has_a_docstring_of_its_own():
    # Without one, dataclasses makes one up from inspect.signature.
    for cls in _dataclasses():
        made_up = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
        assert vars(cls).get("__doc__") not in (None, "", made_up), cls


def test_every_dataclass_shares_one_eq_and_hash_and_has_no_generated_repr():
    for cls in _dataclasses():
        assert issubclass(cls, Value), cls
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
        assert cls.__eq__ is Value.__eq__ and cls.__hash__ is Value.__hash__, cls
        # A __repr__ written in the module may stand (a proposition lists
        # its cells); dataclasses compiles its own from a string.
        if "__repr__" in vars(cls):
            written_in = vars(cls)["__repr__"].__code__.co_filename
            assert written_in == sys.modules[cls.__module__].__file__, cls


def test_importing_the_cli_leaves_out_json_and_the_suites():
    package_root = str(Path(evidentia.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {package_root!r})\n"
        "import evidentia.cli\n"
        "print(sorted({'json', 'evidentia.suites', 'evidentia.oracle'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
