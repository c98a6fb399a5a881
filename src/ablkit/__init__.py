"""Probabilities for pre- and postselected quantum systems.

Core pieces: the ABL rule for intermediate-measurement probabilities
conditioned on both a preselection and a postselection, decoherence-
functional consistency checks for the associated history families, the
counterfactual-use diagnostics that mix ABL conditionals over a final
basis, and a seeded Monte Carlo simulator that reproduces the same numbers
by frequency counting.

Submodules load on first use (PEP 562): ``ablkit.X`` or ``from ablkit import
X`` imports the submodule that defines ``X``, so a command loads only the
modules it runs.
"""

from importlib import import_module as _import_module

#: The public names, by the submodule that defines them.
_SUBMODULES = {
    "abl": """DIV_TOL AblDistribution PrePostContext abl_distribution abl_probabilities
              born_distribution disturbed_final_probability joint_probability luders_update""",
    "counterfactual": """Counterexample MixingReport find_counterexample mixing_report
                         sharp_shanks_total vaidman_total""",
    "errors": """AblkitError DegenerateSpanError DimensionMismatchError
                 ImpossiblePostselectionError NoPostselectedTrialsError ScenarioParseError
                 TooManyBranchesError UndefinedTermError ValidationError ZeroProjectionError""",
    "histories": """CONSISTENCY_TOL ConsistencyReport DisturbanceCheck HistoryFamily
                    coarse_graining_table coarse_graining_verdicts decoherence_functional
                    decoherence_matrix disturbance_check enumerate_coarse_grainings
                    is_consistent""",
    "linalg": """ALG_TOL NORM_TOL SPAN_TOL Branch Ket ObservableDecomposition Projector
                 apply_operator basis_containing complete_basis inner orthonormalize
                 projector_from_kets trace_product""",
    "sampling": "random_basis random_ket substream",
    "scenario_io": """counterexample_scenario dump_scenario load_scenario parse_scenario
                      scenario_to_jsonable""",
    "scenarios": "BUILTIN_NAMES Scenario builtin",
    "simulate": "EnsembleStats TrialRecord estimate_abl estimate_final_probability run_trial",
}
# Each public name, and each submodule under its own name, to its submodule.
_HOME = {name: module for module, names in _SUBMODULES.items()
         for name in (module, *names.split())}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
