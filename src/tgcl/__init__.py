"""Selective replay for temporal graph continual learning.

The modules are the API; the package root re-exports nothing:
:mod:`tgcl.graph` (data model and generation), :mod:`tgcl.backbone`
(embedding model), :mod:`tgcl.kernels` (RBF/MMD), :mod:`tgcl.selector`
(subset selection), :mod:`tgcl.trainer` (per-period training and
strategies), :mod:`tgcl.metrics` (AP/AF), :mod:`tgcl.harness` (experiment
orchestration) and :mod:`tgcl.cli` (the ``tgcl`` command).
"""

__version__ = "0.1.0"
