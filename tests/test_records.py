"""The record types: validation, equality and hashing, pickling; and what
importing the package loads."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ggq
from ggq.cli import CliConfig
from ggq.partitions import Family, ResidueFamilyConfig, _listed_to
from ggq.registry import Corruption, VerificationReport, run_check
from ggq.series import FactorSpec, inv_poch_finite


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: a site hook (a .pth file) may import typing before ggq does
    code = "import sys, ggq, ggq.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(ggq.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "ggq.cli" in out
    assert not {"dataclasses", "inspect", "typing"} & set(out)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((0, 2, 2), {}),
        ((1, -1, 2), {}),
        ((1, 2, 0), {}),
        ((1, 2, 2), {"dz": -1}),
        ((1, 2, 2), {"dw": -1}),
    ],
    ids=["sign", "e2", "step2", "dz", "dw"],
)
def test_factor_spec_rules_raise(args, kwargs):
    with pytest.raises(ValueError):
        FactorSpec(*args, **kwargs)


def test_factor_spec_is_the_value_of_its_fields():
    f = FactorSpec(-1, 6, 10)
    assert f == FactorSpec(sign=-1, e2=6, step2=10, dz=0, dw=0)
    assert hash(f) == hash((-1, 6, 10, 0, 0))
    assert repr(f) == "FactorSpec(sign=-1, e2=6, step2=10, dz=0, dw=0)"
    with pytest.raises(AttributeError):
        f.sign = 1
    with pytest.raises(AttributeError):
        f.other = 1


def test_equal_factor_specs_share_one_cache_entry():
    before = inv_poch_finite.cache_info()
    a = inv_poch_finite(FactorSpec(1, 6, 10), 7, order2=37)
    b = inv_poch_finite(FactorSpec(sign=1, e2=6, step2=10, dz=0, dw=0), 7, order2=37)
    after = inv_poch_finite.cache_info()
    assert a is b
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_families_of_one_step_are_distinct_keys():
    def step(last, p):
        return (p, 1) if p > last else None

    f, g = Family(step), Family(step)
    assert f != g and f == f
    # each keeps its own listing: listing f leaves g's empty
    assert len(_listed_to(f, 9)) == 10 and g._listing == []
    assert _listed_to(g, 9) == f._listing and g._listing is not f._listing
    assert repr(f) == f"Family(step={step!r}, bits=0)"
    with pytest.raises(AttributeError):
        f.bits = 1
    with pytest.raises(AttributeError):
        del f.step


@pytest.mark.parametrize(
    "make",
    [
        lambda: run_check("1.1", order2=41, counts_max=16),
        lambda: run_check("thm1", n_max=10, corrupt=Corruption(key=3, delta=-1)),
        lambda: Corruption(),
        lambda: Corruption(key=(4, 0, 0), delta=2),
        lambda: ResidueFamilyConfig(8, frozenset({1, 7}), frozenset({1}), 4),
        lambda: CliConfig(7, 2, "csv", "out.json"),
    ],
    ids=["pass", "fail", "corruption", "corruption-key", "residue-config", "cli-config"],
)
def test_records_survive_a_pickle_round_trip(make):
    record = make()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record


def test_records_keep_their_positional_and_keyword_forms():
    r = VerificationReport("1.1", {}, 41, "pass", None, 3)
    assert r.failed_facet is None
    assert r == VerificationReport(
        id="1.1", parameters={}, order2=41, status="pass", first_mismatch=None, elapsed_ms=3
    )
    assert repr(Corruption()) == "Corruption(key=None, delta=1)"
    cfg = ResidueFamilyConfig(4, frozenset({1, 2}))
    assert (cfg.distinct_residues, cfg.sub_modulus) == (frozenset(), None)
    assert CliConfig() == CliConfig(None, 1, "text", None)
