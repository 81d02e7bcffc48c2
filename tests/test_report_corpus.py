"""The committed report corpus (tests/corpus/) against the current code.

The CP(1) and CP(2) entries run here; ``tests/report_corpus.py --check``
runs all 24.  Verdicts, statuses, ``passed`` flags, point counts and notes
must match exactly, and each residual within the corpus bound.
"""

import json

import pytest

import report_corpus as corpus
from tannolab.verify import CheckContext, SuiteConfig, run_suite

FAST = [(name, seed) for name, seed in corpus.entries()
        if name.startswith(("cp1_", "cp2_"))]


def test_the_corpus_is_complete():
    assert sorted(p.name for p in corpus.CORPUS.glob("*.json")) == sorted(
        corpus.path(name, seed).name for name, seed in corpus.entries())
    assert len(FAST) == 15


@pytest.mark.parametrize("name, seed", FAST)
def test_reports_match_the_corpus(name, seed):
    assert corpus.check(name, seed) == []


def _record(report, name):
    return next(r for r in report["checks"] if r["name"] == name)


def test_a_moved_residual_or_note_is_a_difference():
    wrong_c = json.loads(corpus.path("cp1_wrong_c", 7).read_text())
    moved = json.loads(json.dumps(wrong_c))
    rec = _record(moved, "sys.residual")
    assert rec["max_residual"] > 0.1
    rec["max_residual"] *= 1 + 1e-9
    assert len(corpus.differences(wrong_c, moved)) == 1
    old = json.loads(corpus.path("cp1_default", 7).read_text())
    new = json.loads(json.dumps(old))
    rec = _record(new, "eq1.residual")
    rec["max_residual"] += corpus.RESIDUAL_ATOL / 2
    assert corpus.differences(old, new) == []
    rec["max_residual"] += 2 * corpus.RESIDUAL_ATOL + corpus.RESIDUAL_RTOL
    assert [d.split(":")[0] for d in corpus.differences(old, new)] == [
        "eq1.residual.max_residual"]
    new = json.loads(json.dumps(old))
    _record(new, "thm3.positivity")["note"] += " "
    _record(new, "lem1.transport_match")["points"] += 1
    new["verdict"] = "fail"
    assert len(corpus.differences(old, new)) == 3


@pytest.mark.parametrize("name", sorted(corpus.CONFIGS))
def test_negating_the_metric_and_c_keeps_every_record(name, monkeypatch):
    # (g, c) -> (-g, -c) leaves the third-order equation and the c = 1
    # normalization as they are, so at the same samples every record is
    # the same: status, residual bits, points and note.
    config = SuiteConfig.from_dict({**corpus.CONFIGS[name], "seed": 7})
    build, seen = CheckContext.from_config.__func__, []

    def negated(cls, cfg):
        ctx = build(cls, cfg)
        seen.append(ctx.P)
        return cls(ctx.chart.with_negated_metric(), ctx.f, -ctx.c, ctx.P,
                   ctx.seed)

    def key(record):
        return (record.name, record.status, repr(record.max_residual),
                record.points, record.note)

    own = [key(r) for r in run_suite(config).checks]
    monkeypatch.setattr(CheckContext, "from_config", classmethod(negated))
    assert [key(r) for r in run_suite(config).checks] == own
    assert len(seen) == 1
