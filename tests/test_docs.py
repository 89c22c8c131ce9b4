"""The figures and rules README.md quotes are the ones the modules use."""

import re
from pathlib import Path

import pytest

from admmq import analysis, experiments, solvers
from admmq.experiments import InstanceSpec, ProtocolSpec, generate_instance, run_protocol

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def readme() -> str:
    if not README.exists():
        pytest.skip("no README.md beside the tests")
    return " ".join(README.read_text().split())  # a phrase may break across lines


@pytest.mark.parametrize("phrase", [
    f"one {analysis._EVAL_CHUNK}-row chunk at a time",
    f"in blocks of at most {analysis._BLOCK_ROWS} rows",
    f"draw their masks {solvers._MASK_BLOCK} iterations at a time",
    f"each block holds at least {experiments._MIN_BLOCK_WORK} of work",
])
def test_readme_quotes_the_constants(readme, phrase):
    assert phrase in readme


class Planned(Exception):
    """Raised by the spy once the sweep has counted its blocks."""


@pytest.mark.parametrize("n, d", [(17, 16), (64, 16), (9, 128), (5, 256)])
def test_readme_block_rule_is_the_code(readme, monkeypatch, n, d):
    rule, work = re.search(r"`(n \* d[^`]*) // (\d+)` \(`_MIN_BLOCK_WORK`", readme).groups()
    assert int(work) == experiments._MIN_BLOCK_WORK
    counted = []

    def deal(runs, blocks):
        counted.append((len(runs), blocks))
        raise Planned

    monkeypatch.setattr(experiments, "_deal", deal)
    inst = generate_instance(InstanceSpec(d=d, seed=1))
    with pytest.raises(Planned):  # gd-proj runs once per init
        run_protocol(inst, ["gd-proj"], ProtocolSpec(n_inits=n), max_workers=10**6)
    quoted = eval(rule, {"__builtins__": {}, "max": max}, {"n": n, "d": d}) // int(work)
    assert counted == [(n, quoted)]
