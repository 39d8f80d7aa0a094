"""Byte-identical output: every invocation in the benchmark's CLI catalogue,
and the exact calU and W tables at every order the benchmark asks, must
still give what the stored digests in perfbench/golden.json record."""

import hashlib
import json
import sys
from pathlib import Path

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


# SHA-256 of ",".join(str(c) for c in coeffs) at order 200, where the block
# kernels run with m = 14; recorded from the cubic power loop and Horner
# composition they replaced
ORDER_200 = {
    "calU": "9c073abb927c7927d2324865bfbf60ef24c9caf1439a691c76737f6794fb47dc",
    "W": "cd738a33a5331198d59e323c87b958ebedf698484ecaa38e0e2a7eee1c17b1d7",
}


def test_order_200_digests():
    calu = normal_form.normal_energy_series.__wrapped__(200)
    w = normal_form.stable_bundle.__wrapped__(200).normal_energy
    for name, s in (("calU", calu), ("W", w)):
        text = ",".join(str(c) for c in s.coeffs)
        assert s.order == 200
        assert hashlib.sha256(text.encode()).hexdigest() == ORDER_200[name]


# SHA-256 of ",".join(str(c) for c in coeffs) of the two q-products, recorded
# from the binomial-loop expansion with repeated squaring that the
# log-derivative power recurrence replaced
PRODUCTS = {
    ("g0_series", 240): "9ba2a3cd341fb3bd678800f50ab66688d74965e0d313bdf198a752300bec8f90",
    ("g0_series", 400): "5bf2d2e713d34a55c79a52380215c955792aa9a08325a3e19157351371ae4a92",
    ("energy_series", 240): "48f4b5c28c51bf97245df1d796ece4f5a463f794072c041dda3d31f7aa118fae",
    ("energy_series", 400): "e39e60c8e565ebecc7a0319b2e2f9bf1c44e23c2b893c9ad5c1368abcd6d9141",
}


def test_product_digests():
    for (name, order), want in PRODUCTS.items():
        s = getattr(normal_form, name).__wrapped__(order)
        text = ",".join(str(c) for c in s.coeffs)
        assert s.order == order
        assert hashlib.sha256(text.encode()).hexdigest() == want, (name, order)
