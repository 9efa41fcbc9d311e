"""Bundled sample biracks, cochains, and diagram codes.

Diagrams live under links/ as crossing-list files and under knots/ as
signed Gauss codes (virtual knots among them, stored through their
classical crossings only).  Names are case-insensitive file stems, e.g.
"l2a1", "k3_1", "v2_1".
"""

from __future__ import annotations

from importlib import resources

from ..algebra import AugmentedBirack, parse_birack
from ..diagram import LinkDiagram, parse_diagram
from ..homology import Cochain2, parse_cochain

__all__ = [
    "available_biracks",
    "available_cochains",
    "available_diagrams",
    "load_birack",
    "load_cochain",
    "load_diagram",
]

# the (folder, suffix) of the files of each kind of item, in listing order
_FILES = {
    "birack": (("biracks", ".txt"),),
    "cochain": (("cochains", ".txt"),),
    "diagram": (("links", ".txt"), ("knots", ".gauss")),
}


def _root():
    return resources.files(__package__)


def _names(kind: str) -> list[str]:
    names = []
    for subdir, suffix in _FILES[kind]:
        folder = _root() / subdir
        if folder.is_dir():
            names += sorted(entry.name[: -len(suffix)] for entry in folder.iterdir()
                            if entry.name.endswith(suffix))
    return names


def _bundled(kind: str, name: str) -> tuple[str, str]:
    """(file name, text) of the bundled item of that kind and name, or KeyError."""
    for subdir, suffix in _FILES[kind]:
        path = _root() / subdir / f"{name.lower()}{suffix}"
        if path.is_file():
            return path.name, path.read_text()
    raise KeyError(f"no bundled {kind} {name!r}; have {_names(kind)}")


def available_biracks() -> list[str]:
    return _names("birack")


def available_cochains() -> list[str]:
    return _names("cochain")


def available_diagrams() -> list[str]:
    return _names("diagram")


def load_birack(name: str) -> AugmentedBirack:
    return parse_birack(_bundled("birack", name)[1])


def load_cochain(name: str, size: int) -> Cochain2:
    return parse_cochain(_bundled("cochain", name)[1], size)


def load_diagram(name: str) -> LinkDiagram:
    file_name, text = _bundled("diagram", name)
    return parse_diagram(text, file_name)
