"""The scenario table, in plain Python so that the CLI's parser reads its
choices without loading numpy; homodyne re-exports both names."""

import numbers

# Scenario table: name -> (quadrature axis, short alias, smallest n,
# largest n).  A scenario whose range holds a single n fixes its qubit count.
SCENARIOS = {
    "two_qubit_X": ("X", "two_qubit", 2, 2),
    "three_qubit_P": ("P", "three_qubit", 3, 3),
    "gsum_X": ("X", "gsum", 3, 3),
    "n_qubit_P": ("P", "n_qubit", 2, 20),
}


def resolve_scenario(scenario, n=None):
    """(canonical name, qubit count, quadrature axis) of a scenario or alias.

    Raises ValueError for an unknown name, a missing n where the scenario
    leaves it open, an n that is not an integer (a bool is not one), or an
    n outside the scenario's range.
    """
    for name, (axis, alias, n_min, n_max) in SCENARIOS.items():
        if scenario in (name, alias):
            break
    else:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {tuple(SCENARIOS)}")
    if n is None:
        if n_min != n_max:
            raise ValueError(f"scenario {name} needs an explicit n in "
                             f"{n_min}..{n_max}")
        return name, n_min, axis
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not n_min <= n <= n_max:
        if n_min == n_max:
            raise ValueError(f"scenario {name} fixes n={n_min}, got n={n}")
        raise ValueError(f"scenario {name} takes n in {n_min}..{n_max}, "
                         f"got n={n}")
    return name, n, axis
