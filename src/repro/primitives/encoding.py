"""Byte <-> field-element codecs.

Datasets arrive as bytes; circuits, ciphers and commitments work on field
elements.  We pack 31 bytes per element (the largest whole-byte chunk
guaranteed below the 254-bit modulus), with an explicit length prefix so
decoding is unambiguous.
"""

from __future__ import annotations

from repro.errors import ReproError

#: Payload bytes carried by one field element.
CHUNK = 31


def bytes_to_elements(data: bytes) -> list[int]:
    """Encode bytes as field elements; element 0 carries the byte length."""
    out = [len(data)]
    for i in range(0, len(data), CHUNK):
        out.append(int.from_bytes(data[i : i + CHUNK], "little"))
    return out


def elements_to_bytes(elements: list[int]) -> bytes:
    """Decode the output of :func:`bytes_to_elements`, and nothing else:
    an element wider than the payload bytes the length prefix gives it
    is rejected, so no two element lists decode to the same bytes."""
    if not elements:
        raise ReproError("cannot decode an empty element list")
    length = elements[0]
    expected_chunks = (length + CHUNK - 1) // CHUNK
    if length < 0 or len(elements) - 1 != expected_chunks:
        raise ReproError(
            "length prefix %d implies %d chunks, got %d"
            % (length, expected_chunks, len(elements) - 1)
        )
    data = bytearray()
    for i, e in enumerate(elements[1:]):
        width = min(CHUNK, length - i * CHUNK)
        if not 0 <= e < 1 << (8 * width):
            raise ReproError("element %d does not fit its %d payload bytes" % (i + 1, width))
        data += e.to_bytes(width, "little")
    return bytes(data)
