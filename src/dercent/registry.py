"""Registry of kernel generators for the basic Weitzenboeck derivation.

The construction of centralizer generators takes the algebra generators
of Ker D as input.  For n = 2 and 3 these are the classical ones; for
n = 4, 5, 6 the shipped entries were produced by the candidate search in
the oracle module (kernel elements of low degree outside the subalgebra
of earlier picks) and are flagged as candidates rather than certified
algebra generating sets.  `search_degree` records how far the search
looked; below that degree the entries provably span the kernel.

Loading checks only that each entry sits under its own n with n-variable
generators; other structural problems surface when the construction
checks that every generator-set element is annihilated by the n-th power
of the derivation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import RegistryError
from .poly import Poly, parse_count

# How deep the candidate search runs per n when regenerating the file.
SEARCH_DEGREES = {2: 1, 3: 2, 4: 5, 5: 4, 6: 3}

_CLASSICAL = {2, 3}


@dataclass(frozen=True)
class KernelEntry:
    """Kernel generators for one variable count."""

    n: int
    generators: tuple[Poly, ...]
    source: str  # "classical" or "derived-candidates"
    search_degree: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "source": self.source,
            "search_degree": self.search_degree,
            "generators": [g.to_json() for g in self.generators],
        }

    @classmethod
    def from_json(cls, data: dict) -> "KernelEntry":
        return cls(
            n=parse_count(data["n"]),
            generators=tuple(Poly.from_json(g) for g in data["generators"]),
            source=str(data["source"]),
            search_degree=parse_count(data["search_degree"]),
        )


def default_registry_text() -> str:
    return (resources.files("dercent") / "data" / "kernel_registry.json").read_text()


def load_registry(path: str | Path | None = None) -> dict[int, KernelEntry]:
    """Registry from the packaged data file or a caller-supplied JSON file."""
    text = Path(path).read_text() if path is not None else default_registry_text()
    try:
        raw = json.loads(text)
        registry = {int(k): KernelEntry.from_json(v) for k, v in raw.items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RegistryError(f"malformed kernel registry: {exc}") from exc
    for n, entry in registry.items():
        if entry.n != n or any(g.nvars != n for g in entry.generators):
            raise RegistryError(
                f"malformed kernel registry: the entry under key {n} is not for n={n}"
            )
    return registry


def registry_entry(n: int, path: str | Path | None = None) -> KernelEntry:
    registry = load_registry(path)
    if n not in registry:
        raise RegistryError(
            f"no kernel generators registered for n={n} "
            f"(available: {sorted(registry)})"
        )
    return registry[n]


def validate_entry(entry: KernelEntry) -> None:
    """Kernel membership and isobaric checks; raises RegistryError."""
    from .weitzenboeck import isobaric_components, weitzenboeck_derivation

    D = weitzenboeck_derivation(entry.n)
    for g in entry.generators:
        if D(g):
            raise RegistryError(
                f"registered generator {g} for n={entry.n} is not in the kernel"
            )
        if len(isobaric_components(g)) > 1:
            raise RegistryError(
                f"registered generator {g} for n={entry.n} is not isobaric"
            )


def regenerate_registry() -> dict[int, KernelEntry]:
    """Re-run the candidate search at the standard depths."""
    from .oracle import kernel_generator_candidates

    out = {}
    for n, degree in SEARCH_DEGREES.items():
        generators = tuple(kernel_generator_candidates(n, degree))
        source = "classical" if n in _CLASSICAL else "derived-candidates"
        out[n] = KernelEntry(n, generators, source, degree)
    return out


def registry_to_json(registry: dict[int, KernelEntry]) -> str:
    return json.dumps(
        {str(n): entry.to_json() for n, entry in sorted(registry.items())},
        indent=2,
        sort_keys=True,
    )


if __name__ == "__main__":  # regenerate the packaged data file
    target = Path(__file__).parent / "data" / "kernel_registry.json"
    if "--write" in sys.argv:
        target.write_text(registry_to_json(regenerate_registry()) + "\n")
        print(f"wrote {target}")
    else:
        print(registry_to_json(regenerate_registry()))
