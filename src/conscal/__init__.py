"""conscal: distill repeated-sampling agreement into a calibrated
single-pass confidence score.

The workflow: log k sampled responses per query offline, measure how often
each query's modal answer recurs (`consistency`), train a small pipeline
from response features to that agreement rate (`calibrator`), then at
deployment score one response with one forward pass.  Baselines, metrics,
evaluation protocols, and a ground-truth synthetic generator round out the
benchmark; `cli` wires it all into the `conscal` command.

Import names from their modules (`from conscal.records import
load_queries`); the package itself binds only its modules and `__version__`.
"""

from . import baselines, calibrator, consistency, errors, evaluation, metrics, records, synth

__version__ = "0.1.0"
