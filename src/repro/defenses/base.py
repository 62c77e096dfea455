"""Defense abstraction.

The paper's three defenses act at two different places in the design:

* **A-type** (always predict) and **R-type** (randomly predict within
  a window) change *what the predictor returns* — implemented as
  predictor wrappers.
* **D-type** (delay side effects) and the InvisiSpec-like baseline
  change *when speculative cache fills become visible* — implemented
  as :class:`~repro.pipeline.config.CoreConfig` adjustments consumed
  by the pipeline.

:class:`Defense` unifies both: a defense may wrap the predictor,
adjust the core config, or both, and defenses compose via
:class:`~repro.defenses.composite.DefenseStack`.
"""

from __future__ import annotations

import abc
import dataclasses

from repro.pipeline.config import CoreConfig
from repro.vp.base import ValuePredictor


class Defense(abc.ABC):
    """One security technique applied to a value-predicting core."""

    #: Short name used in reports (e.g. ``"R(3)"``).
    name: str = "defense"

    def wrap_predictor(self, predictor: ValuePredictor) -> ValuePredictor:
        """Return the (possibly wrapped) predictor.  Default: unchanged."""
        return predictor

    def adjust_config(self, config: CoreConfig) -> CoreConfig:
        """Return the (possibly modified) core config.  Default: unchanged."""
        return config

    @staticmethod
    def _replace_config(config: CoreConfig, **changes) -> CoreConfig:
        """Non-destructively override fields of a core config."""
        return dataclasses.replace(config, **changes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
