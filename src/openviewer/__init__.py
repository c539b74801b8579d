"""Openness-aware multi-view learning toolkit.

Library and CLI for an interpretable layer-unrolled sparse-coding network
over multiple feature views, a matching non-learned alternating solver used
as a numerical reference, pseudo-unknown sample generation, open-set
training losses, and OSCR-style open-set evaluation.
"""

__version__ = "0.1.0"

CHECKPOINT_SCHEMA_VERSION = "4"
