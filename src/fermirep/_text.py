"""Large JSON texts formatted from value tables: each distinct value is
spelled once, and the pieces of every row are joined in one call."""

import numpy as np


def float_reprs(values: np.ndarray, spell=repr) -> np.ndarray:
    """spell of each float64 value, by default repr (json's spelling of a finite
    float), as an object array formatted once per bit pattern, so -0.0 and 0.0
    stay apart."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    table = np.array([spell(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return table[inverse.reshape(values.shape)]


def joined(columns: list) -> str:
    """The rows of a table, each the concatenation of its cells, as one text.
    A column is an object array of one string per row, or one string for all."""
    cells = np.broadcast_arrays(*(np.asarray(column, dtype=object) for column in columns))
    return "".join(np.stack(cells, axis=1).ravel().tolist())
