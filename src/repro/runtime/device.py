"""Device data environment with OpenMP 5.2 reference counting.

This is the semantic core that makes the paper's Listing 3 pitfall
observable in simulation:

    "OpenMP 5.2 uses a reference count mechanism to decide when to copy
    data to and from a device map environment.  The reference count is
    incremented every time a new device map environment is created and
    decremented when exiting a region with the from or release map-type.
    Data is only actually copied from the device to the host when the
    reference count is decremented to zero."

Entering a map region for an already-present object only bumps the
count — no copy; ``to`` copies only on the 0 -> 1 transition; ``from``
copies only on the 1 -> 0 transition; ``target update`` copies
unconditionally (that is its whole point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .profiler import Profiler
from .values import ArrayObject, Cell, StructObject

MappableObject = ArrayObject | Cell | StructObject


@dataclass
class DeviceEntry:
    """Present-table row for one mapped object."""

    host_obj: MappableObject
    device_storage: Any
    refcount: int = 1

    @property
    def nbytes(self) -> int:
        return self.host_obj.byte_size


class DeviceRuntimeError(RuntimeError):
    """Raised on invalid device-data operations (unmapped access, ...)."""


class DeviceDataEnvironment:
    """The device's present table keyed by host object identity."""

    VALID_MAP_TYPES = ("to", "from", "tofrom", "alloc", "release", "delete")

    def __init__(self, profiler: Profiler):
        self.profiler = profiler
        self._table: dict[int, DeviceEntry] = {}
        # Retired device storage, keyed like the present table.  A
        # many-launch program maps the same objects every launch; the
        # pool keeps one zeroed buffer per object so re-entry does not
        # churn the allocator — and, as a load-bearing side effect,
        # keeps storage *identity* stable across map cycles, which is
        # what lets the codegen tier's preflight memo validate a launch
        # with a handful of `is` checks.
        self._pool: dict[int, tuple[MappableObject, Any]] = {}

    # -- queries ---------------------------------------------------------

    def present(self, obj: MappableObject) -> bool:
        return obj.object_id in self._table

    def refcount(self, obj: MappableObject) -> int:
        entry = self._table.get(obj.object_id)
        return entry.refcount if entry else 0

    def device_storage(self, obj: MappableObject) -> Any:
        entry = self._table.get(obj.object_id)
        if entry is None:
            raise DeviceRuntimeError(
                f"device access to unmapped object {getattr(obj, 'name', obj)!r}"
            )
        return entry.device_storage

    # -- structured map semantics -----------------------------------------

    def map_enter(
        self, obj: MappableObject, map_type: str, cause: str = "map",
        *, always: bool = False,
    ) -> None:
        """Entry side of ``map([always,]<type>: obj)``."""
        self._check_type(map_type)
        entry = self._table.get(obj.object_id)
        if entry is not None:
            entry.refcount += 1
            if always and map_type in ("to", "tofrom"):
                # `always` forces the copy even when already present.
                self._copy_h2d(entry, cause=f"{cause}-always-to")
            return
        storage = self._allocate(obj)
        entry = DeviceEntry(obj, storage, refcount=1)
        self._table[obj.object_id] = entry
        if map_type in ("to", "tofrom"):
            self._copy_h2d(entry, cause=f"{cause}-to")

    def map_exit(
        self, obj: MappableObject, map_type: str, cause: str = "map",
        *, always: bool = False,
    ) -> None:
        """Exit side of ``map([always,]<type>: obj)``."""
        self._check_type(map_type)
        entry = self._table.get(obj.object_id)
        if entry is None:
            return  # tolerated, like the spec's "not present" behaviour
        if map_type == "delete":
            del self._table[obj.object_id]
            self._retire(entry)
            return
        entry.refcount -= 1
        if entry.refcount > 0:
            if always and map_type in ("from", "tofrom"):
                self._copy_d2h(entry, cause=f"{cause}-always-from")
            return
        if map_type in ("from", "tofrom"):
            self._copy_d2h(entry, cause=f"{cause}-from")
        del self._table[obj.object_id]
        self._retire(entry)

    # -- target update -----------------------------------------------------

    def update_to(self, obj: MappableObject) -> None:
        """``target update to(obj)``: unconditional refresh of the device."""
        entry = self._table.get(obj.object_id)
        if entry is None:
            return  # spec: no action when not present
        self._copy_h2d(entry, cause="update-to")

    def update_from(self, obj: MappableObject) -> None:
        """``target update from(obj)``: unconditional refresh of the host."""
        entry = self._table.get(obj.object_id)
        if entry is None:
            return
        self._copy_d2h(entry, cause="update-from")

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _check_type(map_type: str) -> None:
        if map_type not in DeviceDataEnvironment.VALID_MAP_TYPES:
            raise DeviceRuntimeError(f"invalid map type {map_type!r}")

    def _retire(self, entry: DeviceEntry) -> None:
        """Park the storage of an unmapped object for reuse.

        Only flat arrays and scalar cells are pooled: struct storage
        nests mutable containers whose stale contents are not cheaply
        resettable, so those keep the fresh-allocation path.
        """
        obj = entry.host_obj
        if isinstance(obj, ArrayObject):
            if not obj.is_struct:
                self._pool[obj.object_id] = (obj, entry.device_storage)
        elif isinstance(obj, Cell):
            self._pool[obj.object_id] = (obj, entry.device_storage)

    def _allocate(self, obj: MappableObject) -> Any:
        """Device storage with *uninitialized* (zeroed) contents.

        Deliberately NOT a copy of the host data: ``alloc``/``from``
        mappings leave device memory undefined until something writes
        it, so a missing ``to`` transfer produces observably wrong
        results — which is how the harness verifies mapping correctness
        (paper section VI's output-comparison check).  Pooled storage
        is zeroed on reuse, preserving exactly that property.
        """
        import numpy as np

        pooled = self._pool.pop(obj.object_id, None)
        if pooled is not None and pooled[0] is obj:
            storage = pooled[1]
            if isinstance(obj, ArrayObject):
                storage.fill(0)
            else:
                storage.value = 0
            return storage
        if isinstance(obj, ArrayObject):
            if obj.is_struct:
                return [StructObject(obj.struct_type) for _ in range(obj.length)]
            return np.zeros_like(obj.data)
        if isinstance(obj, StructObject):
            return StructObject(obj.struct_type)
        return Cell(obj.name, 0, obj.byte_size)

    def _copy_h2d(self, entry: DeviceEntry, cause: str) -> None:
        obj = entry.host_obj
        if isinstance(obj, ArrayObject):
            ArrayObject.assign_storage(entry.device_storage, obj.data)
        elif isinstance(obj, StructObject):
            entry.device_storage.fields = dict(obj.fields)
        else:
            entry.device_storage.value = obj.value
        self.profiler.record_memcpy("HtoD", entry.nbytes, cause)

    def _copy_d2h(self, entry: DeviceEntry, cause: str) -> None:
        obj = entry.host_obj
        if isinstance(obj, ArrayObject):
            ArrayObject.assign_storage(obj.data, entry.device_storage)
        elif isinstance(obj, StructObject):
            obj.fields = dict(entry.device_storage.fields)
        else:
            obj.value = entry.device_storage.value
        self.profiler.record_memcpy("DtoH", entry.nbytes, cause)
