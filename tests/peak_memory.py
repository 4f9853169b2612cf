"""Peak traced memory of one call, for the tests' memory bounds."""
import tracemalloc


def traced_peak(fn) -> int:
    """Bytes at the traced peak while fn() runs; tracemalloc sees numpy's
    array data as well as Python objects."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak
