"""``consistency --coarse-grainings`` against a copy of its earlier renderer.

The CLI renders each distinct block's text once and each row from one
template.  The renderer below is the one it replaced: one dict per
partition, then ``json.dumps(sort_keys=True, allow_nan=False)``, and
``_blocks_label`` for text.  Both read the same library calls, so the test
compares bytes on seeded scenario files with 1-6 branches of mixed rank and
dims up to 24, under both criteria, three tolerances and both output modes.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import ablkit.cli
from ablkit.cli import main
from ablkit.abl import PrePostContext
from ablkit.histories import (HistoryFamily, coarse_graining_table, disturbance_check,
                              is_consistent)
from ablkit.linalg import Ket
from ablkit.scenario_io import dump_scenario, load_scenario
from ablkit.scenarios import Scenario

from conftest import make_context, mixed_rank_decomposition


def _blocks_label(blocks: list[list[float]]) -> str:
    return "".join("{" + ",".join(f"{e:g}" for e in block) + "}" for block in blocks)


def _reference(path: str, criterion: str, tol: float, as_json: bool) -> str:
    scenario = load_scenario(path)
    name = scenario.default_observable
    observable = scenario.observables[name]
    family = HistoryFamily.from_context(scenario.context, observable)
    report = is_consistent(family, criterion=criterion, tol=tol)
    disturbance = disturbance_check(family, tol=tol)
    payload = {
        "command": "consistency",
        "scenario": path,
        "dim": scenario.dim,
        "observable": name,
        "criterion": report.criterion,
        "tolerance": tol if math.isfinite(tol) else None,
        "consistent": report.consistent,
        "max_violation": report.max_violation,
        "decoherence": [[[z.real, z.imag] for z in row] for row in report.matrix],
        "disturbance": asdict(disturbance),
    }
    eigenvalues = observable.eigenvalues
    partitions, _, violations, consistent, _, holds = coarse_graining_table(
        family, criterion=criterion, tol=tol)
    payload["coarse_grainings"] = [
        {"blocks": [[eigenvalues[i] for i in block] for block in partition],
         "consistent": c, "max_violation": v, "disturbance_holds": h}
        for partition, v, c, h in zip(partitions, violations, consistent, holds)
    ]
    if as_json:
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    lines = [
        f"scenario: {scenario.name} (dim {scenario.dim})",
        f"observable: {name}",
        f"consistent: {'yes' if report.consistent else 'no'}  "
        f"(criterion {report.criterion}, max violation {ablkit.cli._fmt(report.max_violation)}, "
        f"tolerance {tol:g})",
        f"undisturbed final probability: {ablkit.cli._fmt(disturbance.undisturbed)}",
        f"disturbed final probability:   {ablkit.cli._fmt(disturbance.disturbed)}",
        f"measurement leaves postselection undisturbed: {'yes' if disturbance.holds else 'no'}",
        "coarse-grainings:",
    ]
    for row in payload["coarse_grainings"]:
        lines.append(f"  {_blocks_label(row['blocks'])}: "
                     f"{'consistent' if row['consistent'] else 'inconsistent'}  "
                     f"max violation {ablkit.cli._fmt(row['max_violation'])}  "
                     f"disturbance identity {'holds' if row['disturbance_holds'] else 'fails'}")
    return "\n".join(lines) + "\n"


#: (ranks, eigenvalues): 1-6 branches, dims 1-24, labels that print
#: differently under repr and %g.
_OBSERVABLES = [
    ([1], [0.5]),
    ([3, 1], [-1.0, 1e-07]),
    ([1, 1, 1], [1.0, 2.0, 3.0]),
    ([2, 1, 3, 1], [2.5, -0.0, 1e20, 7.0]),
    ([1, 4, 1, 2, 1], [0.1, 0.2, 0.30000000000000004, -3.0, 123456789.0]),
    ([4, 4, 4, 4, 4, 4], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    ([1, 2, 1, 3, 2, 1], [-2.0, 1.5, 1e-300, 33.0, 0.0, 9.75]),
]


@pytest.fixture(scope="module")
def scenario_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("coarse")
    paths = []
    for k, (ranks, eigenvalues) in enumerate(_OBSERVABLES):
        observable = mixed_rank_decomposition(k, ranks, eigenvalues)
        # Every third context puts the preselection inside one branch, so
        # that every coarse-graining is consistent and some verdicts hold.
        rng = np.random.default_rng([k, 32])
        context = make_context(rng, observable.dim)
        if k % 3 == 0:
            inside = observable.stack[k % len(observable)] @ (
                rng.standard_normal(observable.dim) + 1j * rng.standard_normal(observable.dim))
            context = PrePostContext(Ket.normalized(inside), context.postselection)
        path = directory / f"mixed-{k}.json"
        path.write_text(dump_scenario(Scenario(f"mixed-{k}", "seeded", context,
                                               {"M": observable}, "M")))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_report_is_byte_identical_to_the_per_partition_renderer(capsys, scenario_files, as_json):
    for path in scenario_files:
        for criterion in ("medium", "weak"):
            for tolerance in ("1e-09", "0", "inf"):
                argv = ["consistency", "--scenario", path, "--coarse-grainings",
                        "--criterion", criterion, "--tolerance", tolerance]
                code = main(argv + ["--json"] * as_json)
                out = capsys.readouterr().out
                assert code == 0
                assert out == _reference(path, criterion, float(tolerance), as_json), argv


def test_a_non_finite_violation_raises_what_json_dumps_raises(capsys, monkeypatch,
                                                               scenario_files):
    def with_nan(family, **kwargs):
        partitions, d, violations, *rest = coarse_graining_table(family, **kwargs)
        return (partitions, d, violations[:-1] + [math.nan], *rest)

    monkeypatch.setattr(ablkit.cli, "coarse_graining_table", with_nan, raising=False)
    with pytest.raises(ValueError) as want:
        json.dumps([math.nan], allow_nan=False)
    with pytest.raises(ValueError) as got:
        main(["consistency", "--scenario", scenario_files[2], "--coarse-grainings", "--json"])
    assert str(got.value) == str(want.value)
    assert capsys.readouterr().out == ""
