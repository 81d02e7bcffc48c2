"""The report corpus: zero-timing JSON reports of eight suite configs at
seeds 1, 7 and 42, committed under ``tests/corpus/``.

A change that should leave results alone is diffed against it.  From the
repository root::

    PYTHONPATH=src python tests/report_corpus.py            # rewrite all 24
    PYTHONPATH=src python tests/report_corpus.py --check    # compare all 24

``--check`` prints ``same`` for a report that is byte-identical to the
committed one, ``close`` for one whose residuals moved within the bound
below and nothing else, and ``DIFF`` otherwise; it exits 1 on any ``DIFF``
and lists every difference :func:`differences` finds.
``tests/test_report_corpus.py`` runs the same comparison on the CP(1) and
CP(2) configs.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

from tannolab.verify import SuiteConfig, emit_report, run_suite

CORPUS = pathlib.Path(__file__).with_name("corpus")
SEEDS = (1, 7, 42)

_CP1 = {"name": "fubini_study", "n": 1}
_CP2 = {"name": "fubini_study", "n": 2}
_CP3 = {"name": "fubini_study", "n": 3}

#: The benchmark's cp3_points check list: every default check but the
#: transport ODEs.
_CP3_POINTS_CHECKS = [
    "kahler.residuals", "eq1.residual", "rem1.laplace_identity",
    "sys.residual", "sys.trace_identity", "sys.inverse_roundtrip",
    "op.identity_at_constant", "eq_product.block_identity",
    "lem2.star_power", "cor1.poly_star_closure",
    "cor2.spectrum_constancy", "lem3.minimal_polynomial",
    "lem4.two_real_eigenvalues", "lem5.projector", "lem6.eigenstructure",
    "eq_mu.hessian", "thm3.positivity", "oracle.derivatives",
]

#: name -> config without its seed.  CP(1) at c = 0.3, CP(2) quadratic:3
#: and flat(1,1) quadratic:3 at c = 1 are suites that must FAIL.
CONFIGS = {
    "cp1_default": {"chart": _CP1, "solution": "height:0", "c": 0.25},
    "cp1_wrong_c": {"chart": _CP1, "solution": "height:0", "c": 0.3},
    "cp1_constant": {"chart": _CP1, "solution": "constant:-0.5", "c": 0.25},
    "cp2_height1": {"chart": _CP2, "solution": "height:1", "c": 0.25},
    "cp2_quadratic3": {"chart": _CP2, "solution": "quadratic:3", "c": 0.25},
    "cp3_height0": {"chart": _CP3, "solution": "height:0", "c": 0.25},
    "cp3_points": {"chart": _CP3, "solution": "height:0", "c": 0.25,
                   "samples": 200, "checks": _CP3_POINTS_CHECKS},
    "flat11_quadratic3": {"chart": {"name": "flat", "p": 1, "q": 1},
                          "solution": "quadratic:3", "c": 1.0},
}

#: How far a residual may move before it counts as a difference:
#: |new - old| <= RESIDUAL_ATOL + RESIDUAL_RTOL |old|.  RESIDUAL_ATOL is
#: 1 % of the smallest nonzero check tolerance (1e-10), room for rounding
#: on residuals that are themselves rounding (up to ~1e-11 here); a residual
#: moved by 1e-9 of itself is a difference once it exceeds 1e-3.
RESIDUAL_ATOL = 1e-12
RESIDUAL_RTOL = 1e-12


def path(name: str, seed: int) -> pathlib.Path:
    return CORPUS / f"{name}_seed{seed}.json"


def entries():
    """Every (name, seed) of the corpus."""
    return [(name, seed) for name in CONFIGS for seed in SEEDS]


def report(name: str, seed: int) -> str:
    """The zero-timing JSON report of one corpus entry, run now."""
    config = SuiteConfig.from_dict({**CONFIGS[name], "seed": seed})
    return emit_report(run_suite(config), "json", zero_timing=True)


def _residual_moved(old: float, new: float) -> bool:
    if math.isnan(old) or math.isnan(new):
        return not (math.isnan(old) and math.isnan(new))
    if old == new:
        return False
    return not abs(new - old) <= RESIDUAL_ATOL + RESIDUAL_RTOL * abs(old)


def differences(old: dict, new: dict) -> list[str]:
    """What differs between two reports: any field but a check's
    ``max_residual`` must be equal, and a residual may move within the
    bound above."""
    out = [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
           for key in sorted(set(old) | set(new))
           if key != "checks" and old.get(key) != new.get(key)]
    a, b = old.get("checks", []), new.get("checks", [])
    if [r["name"] for r in a] != [r["name"] for r in b]:
        return out + ["the check lists differ"]
    for ra, rb in zip(a, b):
        for key in sorted(set(ra) | set(rb)):
            x, y = ra.get(key), rb.get(key)
            if key == "max_residual" and _residual_moved(x, y):
                out.append(f"{ra['name']}.max_residual: {x!r} -> {y!r}")
            elif key != "max_residual" and x != y:
                out.append(f"{ra['name']}.{key}: {x!r} -> {y!r}")
    return out


def compare(old: str, new: str) -> tuple[str, list[str]]:
    """(label, differences) of two report texts: ``same`` when they are
    byte-identical, ``close`` when :func:`differences` finds none, else
    ``DIFF``."""
    if old == new:
        return "same", []
    diff = differences(json.loads(old), json.loads(new))
    return ("DIFF" if diff else "close"), diff


def check(name: str, seed: int) -> list[str]:
    """:func:`differences` between the committed report and one run now."""
    return compare(path(name, seed).read_text(), report(name, seed))[1]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    failed = 0
    for name, seed in entries():
        if argv:
            label, diff = compare(path(name, seed).read_text(),
                                  report(name, seed))
            failed += bool(diff)
            print(f"{label:<5s} {name} seed {seed}")
            for line in diff:
                print(f"      {line}")
        else:
            CORPUS.mkdir(exist_ok=True)
            path(name, seed).write_text(report(name, seed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
