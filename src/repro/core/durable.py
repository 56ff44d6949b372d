"""Durable files: one atomic publisher and one CRC-sealed trailer.

Every file kept across a crash is published by :func:`atomic_file`:
the bytes go to ``<name>.tmp-<pid>``, are fsynced, and only then
``os.replace`` the live name, so readers see the old file or the new
one, never a torn one.  The binary formats (RPS1 segments, RPI1
partials, the RSI1 serving index) are also sealed by a :class:`Seal`:
a ``trailer magic | crc32`` over every prior byte, checked on load.
Stdlib only.
"""

from __future__ import annotations

import contextlib
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Union

__all__ = [
    "TRAILER_SIZE",
    "Seal",
    "atomic_file",
    "atomic_write",
    "crc32_of",
    "remove_dead_writers_temp_files",
]

#: Bytes of a sealed trailer: 4 magic bytes and a 4-byte CRC32.
TRAILER_SIZE = 8

PathLike = Union[str, Path]


def crc32_of(*chunks) -> int:
    """CRC32 over a sequence of byte chunks, without concatenating them."""
    value = 0
    for chunk in chunks:
        value = zlib.crc32(chunk, value)
    return value


@contextlib.contextmanager
def atomic_file(
    path: PathLike, *, previous: Optional[PathLike] = None
) -> Iterator[BinaryIO]:
    """A binary stream whose bytes replace ``path`` on a clean exit.

    With ``previous``, the live file (if any) is moved there after the
    fsync, just before the publish.  Any exception removes the temp file.
    """
    path = Path(path)
    temp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with temp.open("wb") as stream:
            yield stream
            stream.flush()
            os.fsync(stream.fileno())
        if previous is not None:
            with contextlib.suppress(FileNotFoundError):
                os.replace(path, previous)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            temp.unlink()
        raise


def atomic_write(
    path: PathLike, chunks: Iterable, *, previous: Optional[PathLike] = None
) -> None:
    """:func:`atomic_file`, written chunk by chunk as ``chunks`` yields."""
    with atomic_file(path, previous=previous) as stream:
        for chunk in chunks:
            stream.write(chunk)


def remove_dead_writers_temp_files(directory: PathLike) -> None:
    """Delete the ``<name>.tmp-<pid>`` files in ``directory`` whose
    writer died (was SIGKILLed) mid-write.

    A temp file whose pid is alive (or was reused) is kept: its writer
    may still be writing it.
    """
    for temp in Path(directory).glob("*.tmp-*"):
        pid = temp.name.rpartition(".tmp-")[2]
        if not pid.isdigit() or not int(pid):
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            with contextlib.suppress(FileNotFoundError):
                temp.unlink()
        except OSError:  # alive, owned by another user
            pass


@dataclass(frozen=True)
class Seal:
    """One sealed format: ``head_magic`` opens a fixed ``header_size``
    header; ``trailer_magic`` and the CRC32 of every prior byte (in
    ``byteorder``) close the file.  Damage raises the format's own
    ``error(reason, path=, offset=)``, with ``noun`` leading the reason."""

    head_magic: bytes
    trailer_magic: bytes
    byteorder: str
    header_size: int
    noun: str
    error: Callable[..., Exception]

    def write(self, path: PathLike, chunks: Iterable) -> int:
        """:func:`atomic_write` ``chunks`` plus the trailer; returns the
        CRC, taken as the chunks pass."""
        crc = 0

        def sealed():
            nonlocal crc
            for chunk in chunks:
                crc = zlib.crc32(chunk, crc)
                yield chunk
            yield self.trailer_magic + crc.to_bytes(4, self.byteorder)

        atomic_write(path, sealed())
        return crc

    def check(self, data, path: PathLike) -> int:
        """Check the size, head magic, trailer magic and CRC of ``data``
        (bytes or an mmap), in that order; returns the length before the
        trailer.  Holds no view of ``data`` once it returns or raises."""
        size = len(data)
        body = size - TRAILER_SIZE
        if size < self.header_size + TRAILER_SIZE:
            raise self._damage(path, size, f"truncated to {size} bytes")
        if data[:4] != self.head_magic:
            raise self._damage(path, 0, f"has bad magic {data[:4]!r}")
        if data[body : body + 4] != self.trailer_magic:
            raise self._damage(path, body, "has no trailer magic (torn?)")
        stored = int.from_bytes(data[body + 4 :], self.byteorder)
        with memoryview(data) as view:
            computed = zlib.crc32(view[:body])
        if stored != computed:
            raise self._damage(
                path,
                body,
                f"CRC mismatch: stored {stored:#010x}, "
                f"computed {computed:#010x}",
            )
        return body

    def _damage(self, path: PathLike, offset: int, problem: str) -> Exception:
        return self.error(f"{self.noun} {problem}", path=path, offset=offset)
