"""Declarative registry of machine-configuration factories.

The paper's evaluation names ten machine configurations (``sc``,
``invisi_rmo``, ...).  Instead of a hard-coded if/elif chain, each
short-name maps to a *factory* -- a callable taking the experiment
settings (anything exposing ``num_cores`` and ``cov_timeout``, in
practice :class:`~repro.experiments.common.ExperimentSettings`) and
returning a :class:`~repro.config.SystemConfig`.

New machine variants are one-line registrations::

    from repro.campaign import DEFAULT_REGISTRY, derived

    DEFAULT_REGISTRY.register("invisi_cont_cov_1k",
                              derived("invisi_cont_cov", cov_timeout=1000))

(``derived`` applies :class:`~repro.config.SpeculationConfig` overrides when
the keyword matches a speculation field, and ``SystemConfig`` overrides
otherwise.)  Registered names are immediately usable by the CLI's
``sweep``/``simulate`` commands, the study runner, and the figure
drivers.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, Optional, Tuple, TYPE_CHECKING

from ..config import (
    ConsistencyModel,
    SpeculationConfig,
    SpeculationMode,
    SystemConfig,
    ViolationPolicy,
    paper_config,
)
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..experiments.common import ExperimentSettings

#: A factory builds the SystemConfig for one short-name at a given scale.
ConfigFactory = Callable[["ExperimentSettings"], SystemConfig]


class ConfigRegistry:
    """Mapping of configuration short-names to config factories.

    Iteration order is registration order, so sweeps over ``names()`` are
    deterministic.

    A registry may *overlay* a ``parent``: lookups fall back to the parent
    (live, so names registered in the parent later are still visible), while
    registrations stay local.  The study framework uses overlays to give a
    study private configuration variants (e.g. the ablation sweeps' swept
    store-buffer sizes) without polluting :data:`DEFAULT_REGISTRY`.
    """

    def __init__(self, factories: Optional[Dict[str, ConfigFactory]] = None,
                 parent: Optional["ConfigRegistry"] = None) -> None:
        self._factories: Dict[str, ConfigFactory] = dict(factories or {})
        self._parent = parent
        for name in self._factories:
            if parent is not None and name in parent:
                raise ConfigurationError(
                    f"configuration {name!r} would shadow the parent "
                    f"registry's registration")

    # -- registration --------------------------------------------------------

    def register(self, name: str,
                 factory: Optional[ConfigFactory] = None) -> ConfigFactory:
        """Register ``factory`` under ``name`` (usable as a decorator)."""
        if factory is None:
            return lambda f: self.register(name, f)
        if not name:
            raise ConfigurationError("configuration name must be non-empty")
        if name in self:
            raise ConfigurationError(
                f"configuration {name!r} is already registered"
            )
        self._factories[name] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests and ad-hoc sweeps)."""
        if name not in self._factories:
            raise ConfigurationError(f"configuration {name!r} is not registered")
        del self._factories[name]

    # -- lookup --------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        """Registered short-names, parent's (live) first."""
        if self._parent is None:
            return tuple(self._factories)
        return self._parent.names() + tuple(self._factories)

    def factory(self, name: str) -> ConfigFactory:
        """The factory registered under ``name`` (here or in the parent)."""
        if name in self._factories:
            return self._factories[name]
        if self._parent is not None:
            return self._parent.factory(name)
        raise ConfigurationError(
            f"unknown configuration {name!r}; known: {', '.join(self.names())}")

    def __contains__(self, name: object) -> bool:
        if name in self._factories:
            return True
        return self._parent is not None and name in self._parent

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())

    def make(self, name: str, settings: "ExperimentSettings") -> SystemConfig:
        """Build the :class:`SystemConfig` registered under ``name``."""
        return self.factory(name)(settings)


# ---------------------------------------------------------------------------
# Default factories: the paper's ten configurations (see experiments/common.py
# for the short-name glossary).

def _conventional(consistency: ConsistencyModel) -> ConfigFactory:
    def factory(settings: "ExperimentSettings") -> SystemConfig:
        return paper_config(consistency, num_cores=settings.num_cores)
    return factory


def _speculative(consistency: ConsistencyModel, mode: SpeculationMode,
                 num_checkpoints: int = 1,
                 violation_policy: ViolationPolicy = ViolationPolicy.ABORT,
                 settings_cov_timeout: bool = False) -> ConfigFactory:
    def factory(settings: "ExperimentSettings") -> SystemConfig:
        kwargs: Dict[str, object] = dict(mode=mode, num_checkpoints=num_checkpoints,
                                         violation_policy=violation_policy)
        if settings_cov_timeout:
            kwargs["cov_timeout"] = settings.cov_timeout
        return paper_config(consistency, SpeculationConfig(**kwargs),
                            num_cores=settings.num_cores)
    return factory


_SPECULATION_FIELDS = frozenset(
    f.name for f in dataclasses.fields(SpeculationConfig))


def derived(base: str, registry: Optional[ConfigRegistry] = None,
            **changes: object) -> ConfigFactory:
    """Factory for a variant of an already-registered configuration.

    Keywords naming :class:`SpeculationConfig` fields (``num_checkpoints``,
    ``cov_timeout``, ...) are applied to the speculation sub-config; the
    rest are applied to the :class:`SystemConfig` itself.
    """
    spec_changes = {k: v for k, v in changes.items() if k in _SPECULATION_FIELDS}
    system_changes = {k: v for k, v in changes.items() if k not in _SPECULATION_FIELDS}

    def factory(settings: "ExperimentSettings") -> SystemConfig:
        config = (registry or DEFAULT_REGISTRY).make(base, settings)
        if spec_changes:
            speculation = dataclasses.replace(config.speculation, **spec_changes)
            config = config.replace(speculation=speculation)
        if system_changes:
            config = config.replace(**system_changes)
        return config

    return factory


#: The registry used by default throughout the experiment and CLI layers.
DEFAULT_REGISTRY = ConfigRegistry({
    "sc": _conventional(ConsistencyModel.SC),
    "tso": _conventional(ConsistencyModel.TSO),
    "rmo": _conventional(ConsistencyModel.RMO),
    "invisi_sc": _speculative(ConsistencyModel.SC, SpeculationMode.SELECTIVE),
    "invisi_tso": _speculative(ConsistencyModel.TSO, SpeculationMode.SELECTIVE),
    "invisi_rmo": _speculative(ConsistencyModel.RMO, SpeculationMode.SELECTIVE),
    "invisi_sc_2ckpt": _speculative(ConsistencyModel.SC, SpeculationMode.SELECTIVE,
                                    num_checkpoints=2),
    "aso_sc": _speculative(ConsistencyModel.SC, SpeculationMode.ASO,
                           num_checkpoints=2),
    "invisi_cont": _speculative(ConsistencyModel.SC, SpeculationMode.CONTINUOUS,
                                num_checkpoints=2),
    "invisi_cont_cov": _speculative(ConsistencyModel.SC, SpeculationMode.CONTINUOUS,
                                    num_checkpoints=2,
                                    violation_policy=ViolationPolicy.COMMIT_ON_VIOLATE,
                                    settings_cov_timeout=True),
})
