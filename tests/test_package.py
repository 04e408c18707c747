import inspect

import cyclesat


def test_all_lists_names_not_modules():
    assert not [n for n in cyclesat.__all__ if inspect.ismodule(getattr(cyclesat, n))]
    assert {"exact_min", "search_stratum", "mine_suitable", "Graph"} <= set(cyclesat.__all__)
