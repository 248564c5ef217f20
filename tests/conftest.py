import pytest

from hybridwlp import expr


@pytest.fixture
def fresh_kernels():
    """Empty the kernel memo, so that every kernel the test uses is built
    from the test's own terms and its EvalErrors name those subterms."""
    expr.memo_kernel.cache_clear()
