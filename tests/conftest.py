import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__


@pytest.fixture(scope="session")
def skx() -> bool:
    """Whether numpy runs its AVX512_SKX kernels.

    Its float64 sine and log give other last bits on some points below that
    level (its AVX2 kernels and the baseline's agree), so a pin that reads
    them holds one recorded value per level, ``{True: ..., False: ...}[skx]``.
    """
    return bool(__cpu_features__.get("AVX512_SKX", False))
