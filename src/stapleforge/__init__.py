"""stapleforge: weighted macro-F1 translation-set scoring and generation.

Library surface, by module:

- :mod:`stapleforge.corpus`: a sentence's canonical form, gold/prediction/prompt
  file parsing and writing
- :mod:`stapleforge.textproc`: whitespace tokenization of canonical text and
  byte-pair encoding
- :mod:`stapleforge.metrics`: per-prompt and corpus-level weighted F1
- :mod:`stapleforge.translator`: EM toy translator, exact k-best
  lattice decoding, checkpoints
- :mod:`stapleforge.methods`: n-best / paraphrase / ensemble prediction
- :mod:`stapleforge.cli`: the ``stapleforge`` command
"""

__version__ = "0.1.0"
