"""The per-request columns of a trace, compared as arrays."""

import numpy as np

# One entry per scheduled request each, in Trace's field order.
REQUEST_COLUMNS = ("client", "scheduled", "issue", "service_start",
                   "completion", "timely", "latency")


def assert_same_requests(a, b):
    """Traces a and b hold the same request columns: equal dtype, shape
    and values, NaN (a timestamp that never happened) equal to NaN."""
    for col in REQUEST_COLUMNS:
        x, y = getattr(a, col), getattr(b, col)
        assert x.dtype == y.dtype, col
        assert x.shape == y.shape, col
        assert np.array_equal(x, y, equal_nan=True), col

