"""Flat memory model: named arrays of scalars.

The paper's machines access conventional mutable memory through loads
and stores whose ordering has been converted into explicit data
dependencies by the compiler; the memory itself is a simple word-
addressable store per named array.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import MemoryError_


class Memory:
    """Named arrays of Python scalars.

    Behaves like a mapping from array name to list, which is the
    interface the reference interpreter uses, so one memory image can
    be shared across all machine models and the oracle.
    """

    def __init__(self, arrays: Optional[Mapping[str, Iterable]] = None):
        self._arrays: Dict[str, List] = {}
        self._layout: Optional[Dict[str, int]] = None
        self.loads = 0
        self.stores = 0
        if arrays:
            for name, data in arrays.items():
                self.bind(name, data)

    def bind(self, name: str, data: Iterable) -> None:
        """Bind (or rebind) an array's contents."""
        self._arrays[name] = list(data)
        self._layout = None

    def base_of(self, array: str) -> int:
        """Word offset of ``array`` in the flat address space.

        Arrays are laid out contiguously in bind order, so element
        ``index`` of ``array`` lives at flat word address
        ``base_of(array) + index`` -- the address the cache model
        (:mod:`repro.sim.cache`) maps onto lines and sets. The layout
        is computed lazily and invalidated whenever :meth:`bind`
        (re)binds an array.
        """
        layout = self._layout
        if layout is None:
            layout = {}
            base = 0
            for name, data in self._arrays.items():
                layout[name] = base
                base += len(data)
            self._layout = layout
        try:
            return layout[array]
        except KeyError:
            raise MemoryError_(f"array {array!r} not bound") from None

    def get(self, name: str):
        return self._arrays.get(name)

    def __getitem__(self, name: str) -> List:
        try:
            return self._arrays[name]
        except KeyError:
            raise MemoryError_(f"array {name!r} not bound") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def snapshot(self) -> Dict[str, List]:
        """Deep copy of all arrays (for oracle comparison)."""
        return {name: list(data) for name, data in self._arrays.items()}

    def load(self, array: str, index) -> object:
        data = self[array]
        # bool is an int subclass: a stray comparison token flowing
        # into an address must fail loudly, not silently read word 0/1.
        if isinstance(index, bool) or not isinstance(index, int) \
                or not 0 <= index < len(data):
            raise MemoryError_(
                f"load index {index!r} "
                + ("is a bool, not an address"
                   if isinstance(index, bool) else "out of bounds")
                + f" for {array!r} (len {len(data)})"
            )
        self.loads += 1
        return data[index]

    def store(self, array: str, index, value) -> None:
        data = self[array]
        if isinstance(index, bool) or not isinstance(index, int) \
                or not 0 <= index < len(data):
            raise MemoryError_(
                f"store index {index!r} "
                + ("is a bool, not an address"
                   if isinstance(index, bool) else "out of bounds")
                + f" for {array!r} (len {len(data)})"
            )
        self.stores += 1
        data[index] = value
