"""Value model of the simulated machine.

* scalars live in mutable :class:`Cell` bindings (ints/floats/pointers);
* arrays are :class:`ArrayObject` — flat numpy storage plus a logical
  shape, so both ``m[i][j]`` and flat pointer indexing work;
* structs are :class:`StructObject` (field dict); arrays of structs use
  an object-dtype backing list with uniform per-element size;
* pointers are :class:`Pointer` values: (object, element offset).

Every object knows its byte size — the unit the profiler accounts
transfers in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..frontend.ctypes_ import QualType, StructType, numpy_dtype_name

_object_ids = itertools.count(1)


class Cell:
    """A mutable scalar binding (int / float / Pointer / StructObject)."""

    __slots__ = ("name", "value", "byte_size", "object_id")

    def __init__(self, name: str, value: Any = 0, byte_size: int = 8):
        self.name = name
        self.value = value
        self.byte_size = byte_size
        self.object_id = next(_object_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cell {self.name}={self.value!r}>"


class StructObject:
    """One struct value: named fields holding scalars or nested arrays."""

    __slots__ = ("struct_type", "fields", "object_id")

    def __init__(self, struct_type: StructType, fields: dict[str, Any] | None = None):
        self.struct_type = struct_type
        self.fields = fields if fields is not None else {
            fname: _default_for(ftype) for fname, ftype in struct_type.fields
        }
        self.object_id = next(_object_ids)

    @property
    def byte_size(self) -> int:
        return self.struct_type.size

    def copy(self) -> "StructObject":
        return StructObject(self.struct_type, dict(self.fields))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Struct {self.struct_type.name} {self.fields}>"


def _default_for(qt: QualType) -> Any:
    if qt.is_floating:
        return 0.0
    return 0


class ArrayObject:
    """Array storage: flat numpy array (or object list for structs)."""

    __slots__ = (
        "name", "shape", "elem_size", "data", "is_struct", "struct_type",
        "object_id",
    )

    def __init__(
        self,
        name: str,
        length: int,
        elem_qt: QualType,
        *,
        shape: tuple[int, ...] | None = None,
    ):
        self.name = name
        self.shape = shape or (length,)
        self.elem_size = elem_qt.size
        self.object_id = next(_object_ids)
        if isinstance(elem_qt.type, StructType):
            self.is_struct = True
            self.struct_type = elem_qt.type
            self.data: Any = [StructObject(elem_qt.type) for _ in range(length)]
        else:
            self.is_struct = False
            self.struct_type = None
            dtype = numpy_dtype_name(elem_qt)
            self.data = np.zeros(length, dtype=dtype)

    @property
    def length(self) -> int:
        return len(self.data)

    @property
    def byte_size(self) -> int:
        return self.length * self.elem_size

    @staticmethod
    def assign_storage(dst: Any, src: Any) -> None:
        """Copy ``src`` storage contents into ``dst`` in place."""
        if isinstance(dst, np.ndarray):
            np.copyto(dst, src)
        else:
            for i, s in enumerate(src):
                dst[i] = s.copy()

    def flat_index(self, indices: tuple[int, ...]) -> int:
        """Row-major flattening of a multi-dimensional index."""
        if len(indices) == 1:
            return indices[0]
        idx = 0
        for k, i in enumerate(indices):
            stride = 1
            for d in self.shape[k + 1:]:
                stride *= d
            idx += i * stride
        return idx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Array {self.name}[{self.length}] {self.elem_size}B/elem>"


@dataclass(frozen=True)
class Pointer:
    """A typed pointer value: target object + element offset."""

    obj: ArrayObject
    offset: int = 0

    def __add__(self, elems: int) -> "Pointer":
        return Pointer(self.obj, self.offset + int(elems))

    def __sub__(self, other: "int | Pointer") -> "int | Pointer":
        if isinstance(other, Pointer):
            if other.obj is not self.obj:
                raise RuntimeError("pointer subtraction across objects")
            return self.offset - other.offset
        return Pointer(self.obj, self.offset - int(other))

    @property
    def byte_size(self) -> int:
        return 8


@dataclass(frozen=True)
class NullPointer:
    """The null pointer constant."""

    def __bool__(self) -> bool:
        return False


NULL = NullPointer()
