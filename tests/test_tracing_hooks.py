"""The benchmark tracer (perfbench/tracing.py) wraps library names from
outside.  Every name it patches must exist, and leaving its context must
restore each original, so a renamed or deleted hook fails here."""

import importlib.util
from pathlib import Path

from sichash import cuckoo, phf, retrieval, succinct

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# every module and class the tracer patches names of
OWNERS = (
    phf,
    cuckoo,
    phf.SicHashPhf,
    cuckoo.RattleTable,
    retrieval.RetrievalStore,
    succinct.EliasFanoSeq,
    succinct.GolombRiceSeq,
)


def _snapshot() -> list[dict]:
    return [dict(vars(owner)) for owner in OWNERS]


def test_instrument_patches_and_restores_every_hook():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _snapshot()
    with tracing.instrument(tracing.Tracer("t")):
        during = _snapshot()
    after = _snapshot()
    patched = {
        (i, name)
        for i, names in enumerate(before)
        for name, value in names.items()
        if during[i][name] is not value
    }
    assert {i for i, _ in patched} == set(range(len(OWNERS)))
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[name] is value for name, value in old.items())
