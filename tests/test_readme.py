"""The limits README.md states against the constants that set them."""

import re
from pathlib import Path

from discnorm import bounds, cells, integrate, lp, orlicz, pointset

README = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten")

# Where README.md states each figure, how to read it, and the figure the
# code sets, read when the test runs
FIGURES = [
    (r"`integrate\.PIECE_BUDGET` pieces \(2\^(\d+)\)", lambda g: 2 ** int(g),
     lambda: integrate.PIECE_BUDGET),
    (r"`integrate\._PLAN_ELEMENTS` \((\d+)M\)", lambda g: int(g) * 10 ** 6,
     lambda: integrate._PLAN_ELEMENTS),
    (r"about `2\^(\d+)` elements \(`integrate\._BLOCK_ELEMENTS`\)", lambda g: 2 ** int(g),
     lambda: integrate._BLOCK_ELEMENTS),
    (r"above `2\^(\d+)` cells \(`cells\.MAX_CELLS_DEFAULT`\)", lambda g: 2 ** int(g),
     lambda: cells.MAX_CELLS_DEFAULT),
    (r"more than `(\d+)M` evaluations \(`integrate\.MAX_EVAL_ELEMENTS`\)",
     lambda g: int(g) * 10 ** 6, lambda: integrate.MAX_EVAL_ELEMENTS),
    (r"below `(\S+)` \(`lp\.REL_TOL_FLOOR`\)", float, lambda: lp.REL_TOL_FLOOR),
    (r"every even integer `p <= (\d+)`", int, lambda: lp.MOMENT_P_MAX),
    (r"rigorously by `p = (\d+)`", int, lambda: 2 ** orlicz._PHI_X_CAP),
    (r"halve the step (\w+) times", _WORDS.index, lambda: orlicz._PHI_HALVINGS),
    (r"more than `(\d+)` series terms \(`orlicz\._ELL_CAP`\)", int, lambda: orlicz._ELL_CAP),
    (r"saturate at `1e(\d+)`", lambda g: 10 ** int(g), lambda: bounds.NBOUND_SATURATION),
    (r"at most (\d+) for `generate_halton`", int, lambda: len(pointset._HALTON_PRIMES)),
]


def test_readme_guard_figures_match_the_code():
    wrong = []
    for pattern, read, constant in FIGURES:
        found = re.findall(pattern, README)
        if len(found) != 1 or read(found[0]) != constant():
            wrong.append((pattern, found, constant()))
    assert not wrong, wrong
