"""Single-bit flips across a v4 index file surface as library errors.

v4 files carry no checksums, so a flipped bit may go unnoticed or change
a ranking; what it must never do is escape the reader as anything but a
:class:`ReproError` (a ``StorageError`` naming the file and offset, or a
``QueryError`` when the damaged index no longer holds a query's terms).
"""

from repro import ContextSearchEngine
from repro.errors import ReproError
from repro.storage import load_index, save_index

QUERIES = [
    "leukemia | Diseases",
    "pancreas transplant | Diseases",
    "transplant outcomes | DigestiveSystem",
]


def _load_and_query(path) -> None:
    with load_index(path) as index:
        engine = ContextSearchEngine(index)
        for query in QUERIES:
            try:
                engine.search(query)
            except ReproError:
                pass


def test_every_flip_loads_or_raises_a_library_error(tmp_path, handmade_index):
    """One flip per byte (the bit cycling with the offset), each in a
    fresh copy: load, then a fixed set of context queries."""
    source = tmp_path / "idx.bin"
    save_index(handmade_index, source)
    data = source.read_bytes()
    flipped = tmp_path / "flipped.bin"
    escaped = []
    for offset in range(len(data)):
        damaged = bytearray(data)
        damaged[offset] ^= 1 << (offset % 8)
        flipped.write_bytes(bytes(damaged))
        try:
            _load_and_query(flipped)
        except ReproError:
            pass
        except Exception as exc:  # noqa: BLE001 - the property under test
            escaped.append((offset, offset % 8, repr(exc)))
    assert not escaped, f"{len(escaped)} flips escaped, first: {escaped[:5]}"
