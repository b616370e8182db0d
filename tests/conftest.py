import numpy as np
import pytest

from simplicial_gap.certificates import assemble

from oracles import stacked


@pytest.fixture(scope="session")
def dense_cert():
    """Session cache of densified certificates and their spectra by (g, n).

    The 1024^2 and 1296^2 eigendecompositions are the slowest things the
    suite does; computing each once keeps the whole run inside its budgets.
    """
    store: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def get(g: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        key = (g, n)
        if key not in store:
            y = stacked(assemble(n, g))
            store[key] = (y, np.linalg.eigvalsh(y))
        return store[key]

    return get


@pytest.fixture(scope="session")
def dense_shifted(dense_cert):
    """Session cache of eigvalsh(Y - J/n^2) for the certificates by (g, n)."""
    store: dict[tuple[int, int], np.ndarray] = {}

    def get(g: int, n: int) -> np.ndarray:
        key = (g, n)
        if key not in store:
            yd, _ = dense_cert(g, n)
            store[key] = np.linalg.eigvalsh(yd - 1.0 / (n * n))
        return store[key]

    return get
