"""Helpers shared by the test modules."""

import struct
import tracemalloc


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc traces while ``fn(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_idx_pair(directory, images, labels):
    """Write uint8 ``images`` (n, rows, cols) and ``labels`` (n,) as the IDX
    training pair in ``directory``; returns the images file's path."""
    images_path = directory / "train-images-idx3-ubyte"
    images_path.write_bytes(struct.pack(">iiii", 0x803, *images.shape) + images.tobytes())
    labels_bytes = struct.pack(">ii", 0x801, len(labels)) + labels.tobytes()
    (directory / "train-labels-idx1-ubyte").write_bytes(labels_bytes)
    return images_path
