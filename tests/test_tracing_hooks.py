"""The benchmark tracer (perfbench/tracing.py) wraps library names from
outside.  Every name it patches must exist, and leaving its context must
restore each original, so a renamed or deleted hook fails here."""

import importlib.util
from pathlib import Path

from sichash import _native, cuckoo, phf, retrieval, succinct
from sichash.cli import generate_keys

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


def test_fallback_query_reaches_the_scalar_hooks(monkeypatch):
    # without the native module, evaluate composes the scalar derivations
    # that the tracer wraps, so each query counts once in every one of them
    keys = generate_keys(1000, seed=2)
    fn = phf.build(keys, phf.PhfConfig(alpha=0.97, minimal=True))
    monkeypatch.setattr(_native, "lib", None)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.instrument(tracing.Tracer("t")) as tracer:
        for key in keys[:300]:
            fn.evaluate(key)
    hooks = ("hashing.master_hash", "hashing.bucket_of", "hashing.cell_of", "retrieval.query")
    assert {name: tracer.calls[name] for name in hooks} == dict.fromkeys(hooks, 300)
