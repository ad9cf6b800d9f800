"""queryflip: minimal query edits that flip a pairwise search ranking.

Given a query and two documents where the first outranks the second, the
editor rewrites as few query tokens as possible so the second document
strictly outranks the first, together with the metric suite and
baselines used to judge such edits.
"""

__version__ = "0.1.0"
