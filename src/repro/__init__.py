"""Reproduction of *Software Profiling for Hot Path Prediction: Less is
More* (Duesterwald & Bala, ASPLOS 2000).

The library provides:

* :mod:`repro.cfg` — control-flow graph substrate (blocks, procedures,
  programs, analyses, Ball–Larus numbering);
* :mod:`repro.isa` — a small register machine whose interpreter emits
  branch-event traces from real programs;
* :mod:`repro.trace` — branch events, the interprocedural forward-path
  definition, extraction and recorded path traces;
* :mod:`repro.profiling` — Ball–Larus, bit-tracing and k-bounded path
  profilers plus edge/block baselines and overhead accounting;
* :mod:`repro.prediction` — online hot-path predictors: path-profile
  based and the paper's NET (Next Executing Tail) scheme;
* :mod:`repro.metrics` — the paper's abstract prediction-quality metrics
  (hit rate, noise, missed opportunity cost);
* :mod:`repro.workloads` — calibrated SPECint95/deltablue surrogates and
  phased workloads;
* :mod:`repro.dynamo` — a cost-model simulator of the Dynamo dynamic
  optimizer;
* :mod:`repro.experiments` — drivers regenerating every table and figure
  of the paper's evaluation.

Quickstart::

    from repro.workloads import load_benchmark
    from repro.prediction import NETPredictor
    from repro.metrics import evaluate_prediction, hot_path_set

    trace = load_benchmark("compress").trace()
    hot = hot_path_set(trace, fraction=0.001)
    outcome = NETPredictor(delay=50).run(trace)
    quality = evaluate_prediction(trace, hot, outcome)
    print(quality.hit_rate, quality.noise_rate)

Most packages re-export their public names lazily (see
:func:`lazy_exports`): importing a package runs none of its modules, so
a process loads only the modules whose names it reads.
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """A PEP 562 module ``__getattr__``, ``__dir__`` and ``__all__`` for
    ``package``.

    ``exports`` maps each submodule, relative to ``package``, to the
    public names the package re-exports from it.  Reading one of those
    names imports its submodule and binds the value in the package, so
    the next read is a plain attribute lookup.  The third value is the
    table's names sorted, the package's ``__all__``: ``from package
    import *`` reads every one of them.
    """
    origins = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str):
        try:
            origin = origins[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(origin), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | origins.keys())

    return __getattr__, __dir__, sorted(origins)
