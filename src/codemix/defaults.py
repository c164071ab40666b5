"""Default settings of the scorer, defined once.

``langid`` and ``detector`` take these as their keyword defaults and the
CLI shows them as its flags' defaults, so the CLI can build its parser
without loading the scorer.
"""

DEFAULT_N_MIN = 1
DEFAULT_N_MAX = 4
DEFAULT_ALPHA = 0.5
DEFAULT_MIN_CHARS = 3
DEFAULT_CHUNKS = 4
