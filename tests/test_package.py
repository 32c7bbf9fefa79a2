import inspect

import qincompat


def test_all_lists_every_public_import():
    imported = {
        name
        for name, obj in vars(qincompat).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert imported == set(qincompat.__all__)
