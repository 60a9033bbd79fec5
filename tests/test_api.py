import pytest

import replicability
from replicability import procedures, sim


@pytest.mark.parametrize("module", [replicability, procedures, sim], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a deleted name cannot stay in __all__, where `import *` would fail on it
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
