"""Built-in example models, shipped as package data.

Data access only; parsing/compiling them is the caller's business, which
keeps this module import-light.
"""

from importlib import resources


def names() -> list[str]:
    """Names of the bundled model files, without the ``.evd`` suffix."""
    entries = resources.files(__package__).iterdir()
    return sorted(e.name[: -len(".evd")] for e in entries if e.name.endswith(".evd"))


def source(name: str) -> str:
    """The text of one bundled model."""
    return (resources.files(__package__) / f"{name}.evd").read_text(encoding="utf-8")
