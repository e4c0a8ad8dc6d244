"""The package namespace: what ``from regenfv import *`` binds."""

from types import ModuleType

import regenfv


def test_star_import_binds_the_api_and_no_submodule():
    namespace = {}
    exec("from regenfv import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, ModuleType)] == []
    assert {"run", "Grid", "rk4_solve", "residual_table", "ConfigError"} <= namespace.keys()
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(regenfv.__all__)
