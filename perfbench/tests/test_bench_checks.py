"""The benchmark's own inputs, output checks and declared metrics."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import widthitems

ROOT = Path(run.__file__).resolve().parents[1]


def test_item_spec_is_deterministic_per_seed():
    assert widthitems.item_spec(7) == widthitems.item_spec(7)
    assert widthitems.item_spec(7) != widthitems.item_spec(8)


def test_built_items_are_deterministic_per_seed():
    from widthcert import deltacert

    model = deltacert.build_delta_model(check=False)

    def snapshot(seed):
        return [(base, K.vertices, L.origin, L.basis)
                for base, K, L in widthitems.build_items(seed, model)]

    assert snapshot(3) == snapshot(3)
    assert snapshot(3) != snapshot(4)


def test_seeded_rebasing_keeps_invariants():
    from widthcert import deltacert
    from widthcert.polyfile import format_scalar
    from widthcert.widthlab import hollow_check, lattice_width

    model = deltacert.build_delta_model(check=False)
    for seed in (11, 12):
        # the first items are the cheap ones: two Delta images and two needles
        for base, K, L in widthitems.build_items(seed, model)[:4]:
            wr = lattice_width(K, L)
            out = {"width": format_scalar(wr.width), "minimizers": len(wr.minimizers),
                   "hollow": hollow_check(K, L).hollow}
            assert widthitems.check_item(base, out) is None


@pytest.mark.parametrize("name", [name for name, _ in run.CLI_CALLS])
def test_cli_check_rejects_tampered_output(name):
    out, rc = run.golden(name)
    assert run.check_cli(name, rc, out) is None
    assert run.check_cli(name, rc + 1, out) is not None
    assert run.check_cli(name, rc, out.replace(b"=", b":", 1)) is not None
    assert run.check_cli(name, rc, out + b"\n") is not None


def test_hessian_check_rejects_tampered_output():
    good = dict(run.HESSIAN_EXPECTED)
    assert run.check_hessian(good) is None
    for key, bad in (("display", "0.03478"), ("certified", "173860/5000000"),
                     ("terms", good["terms"] - 1)):
        assert run.check_hessian({**good, key: bad}) is not None
    assert run.check_hessian({"error": "ValueError()"}) is not None


def test_width_check_rejects_tampered_output():
    width, count, hollow = widthitems.EXPECTED["delta"]
    good = {"width": width, "minimizers": count, "hollow": hollow}
    assert run.check_width("delta", good) is None
    for key, bad in (("width", "2 + 1*sqrt2 "), ("minimizers", count + 1), ("hollow", not hollow)):
        assert run.check_width("delta", {**good, key: bad}) is not None
    assert run.check_width("delta", {"error": "AssertionError()"}) is not None


def test_benchmark_json_declares_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_percentile_interpolates():
    assert run.percentile([5.0], 0.95) == 5.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert run.percentile([0.0, 10.0], 0.95) == pytest.approx(9.5)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "width-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
