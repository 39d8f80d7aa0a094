"""Byte-identical output: every invocation in the benchmark's CLI catalogue,
and the exact calU and W tables at every order the benchmark asks, must
still give what the stored digests in perfbench/golden.json record; so must
the exact tables the tests pin in tests/pins.json."""

import json
import sys
from pathlib import Path

import pins
from pendnf import normal_form

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import make_golden  # noqa: E402
from worker import digest  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def test_cli_digests_match_golden():
    golden = GOLDEN["cli"]
    digests = make_golden.cli_digests()
    assert digests.keys() == golden.keys()
    changed = [argv for argv, entry in digests.items() if entry != golden[argv]]
    assert not changed, f"{len(changed)} of {len(golden)} outputs changed, e.g. {changed[:3]}"


def test_table_digests_match_golden():
    assert make_golden.tables() == GOLDEN["tables"]


def test_direct_tables_match_golden():
    # make_golden.tables() asks the lower orders after order 110, which the
    # series store answers by truncation; the undecorated functions compute
    # the reversion and composition at exactly these orders
    for n in make_golden.DIRECT:
        calu = normal_form.normal_energy_series.__wrapped__(n)
        w = normal_form.stable_bundle.__wrapped__(n).normal_energy
        assert (calu.order, w.order) == (n, n)
        assert digest(calu.coeffs) == GOLDEN["tables"]["calU"][str(n)]
        assert digest(w.coeffs) == GOLDEN["tables"]["W"][str(n)]


def test_order_200_digests():
    # where the block kernels run with m = 14; recorded from the cubic power
    # loop and Horner composition they replaced
    for name in ("calU", "W"):
        pins.check(f"{name}/200")


def test_product_digests():
    # recorded from the binomial-loop expansion with repeated squaring that
    # the log-derivative power recurrence replaced
    for name in ("g0_series", "energy_series"):
        for order in (240, 400):
            pins.check(f"{name}/{order}")


def test_every_pin_has_a_producer():
    assert sorted(pins.PRODUCERS) == sorted(json.loads(pins.STORE.read_text()))
