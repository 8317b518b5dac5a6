"""The release gates that run a shipped suite, in one table.

Tier-1 (``test_acceptance._suite_gate``) runs each suite through
``verify_suite`` in both types at every rank up to its top rank.  CI runs it
again at the ranks it adds, through the installed ``dtab``; its verify step
reads those rows from ``python tests/suite_gates.py``.  Every rank here must
be one that ``dtab verify`` accepts, at most ``cli.VERIFY_MAX_RANK``, which
``test_acceptance`` checks.  ``test_readme`` checks README's gate table
against this one.

A report checks its own instance count wherever a closed form exists (the
group order, the number of standard tableaux of the rank, or 1), so only the
two suites without one carry pins here: ``{rank: (C, B)}``.

Gates 7 and 9 stop at rank 4, where rank 5 fails on the known annealing
defect (ROADMAP).  The rank-6 rows cost about 7-10 s per type for
``rs-bijection``, 5 s for ``involution-criterion`` and 3.3 s for
``inverse-transpose``, and ``cycle-involution`` about 8 s per type at
rank 7 (2-vCPU VM).  ``rs-bijection`` at rank 6 checks that the left
tableaux are every standard tableau of the rank, the premise of the
``cycle-involution`` and ``surjectivity`` rows.

Run as a script, it prints the CI rows, one per line: type, suite, rank and,
where the suite is pinned at that rank, the instance count.  It imports
nothing from the library, so it runs before the package is installed.
"""

TYPES = ("C", "B")

# gate -> (suite, tier-1 top rank, ranks CI adds, pinned instance counts)
GATES = {
    1: ("rs-bijection", 5, (6,), {}),
    2: ("counting-identities", 5, (6,), {}),
    3: ("involution-criterion", 5, (6,), {}),
    4: ("inverse-transpose", 5, (6,), {}),
    5: (
        "cycle-involution",
        5,
        (6, 7),
        {5: (1868, 2640), 6: (9516, 13660), 7: (50424, 73028)},
    ),
    7: ("pipeline-confluence", 4, (), {}),
    8: ("surjectivity", 5, (6,), {}),
    9: ("operator-cell-compat", 4, (), {4: (754, 760)}),
}


if __name__ == "__main__":
    for suite, _, ci_ranks, pins in GATES.values():
        for n in ci_ranks:
            for i, t in enumerate(TYPES):
                print(t, suite, n, *([pins[n][i]] if n in pins else []))
