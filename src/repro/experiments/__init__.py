"""The paper's evaluation, declared as registered studies.

Each figure module (Figures 1 and 8-12), the two ablations, the machine
scaling sweep, and the per-phase scenario figure registers a
:class:`~repro.studies.spec.StudySpec` whose ``build`` hook returns a
result object; that object's ``format()`` method prints the rows/series
the paper's figure plots.  Run one with
:func:`repro.studies.run_study` (``run_study("figure8", settings)``, or a
spec from :func:`scaling_study`, :func:`scenario_study`,
:func:`store_buffer_study`, :func:`cov_timeout_study`) or from the
command line with ``repro figure N`` / ``repro study run``.
``ExperimentSettings`` controls the scale (cores, trace length, seeds);
the defaults reproduce the full 16-core setup, while
``ExperimentSettings.quick()`` is used by the test-suite and the
benchmark harness.
"""

# Import order fixes the study registry's presentation order: figures,
# ablations, then the scaling and scenario studies.
from .common import ExperimentSettings, make_config
from .figure1 import Figure1Result
from .figure8 import Figure8Result
from .figure9 import Figure9Result
from .figure10 import Figure10Result
from .figure11 import Figure11Result
from .figure12 import Figure12Result
from .ablation import (
    CovTimeoutAblationResult,
    StoreBufferAblationResult,
    cov_timeout_study,
    store_buffer_study,
)
from .scaling import (
    SCALING_CONFIGS,
    SCALING_CORE_COUNTS,
    SCALING_SCENARIOS,
    ScalingResult,
    scaling_study,
)
from .scenarios import (
    SCENARIO_CONFIGS,
    ScenarioFigureResult,
    scenario_study,
)
from .tables import (
    figure2_table,
    figure4_table,
    figure5_table,
    figure6_table,
    figure7_table,
)

__all__ = [
    "ExperimentSettings",
    "make_config",
    "StoreBufferAblationResult",
    "CovTimeoutAblationResult",
    "Figure1Result",
    "Figure8Result",
    "Figure9Result",
    "Figure10Result",
    "Figure11Result",
    "Figure12Result",
    "SCENARIO_CONFIGS",
    "ScenarioFigureResult",
    "SCALING_CONFIGS",
    "SCALING_CORE_COUNTS",
    "SCALING_SCENARIOS",
    "ScalingResult",
    "scaling_study",
    "scenario_study",
    "store_buffer_study",
    "cov_timeout_study",
    "figure2_table",
    "figure4_table",
    "figure5_table",
    "figure6_table",
    "figure7_table",
]
