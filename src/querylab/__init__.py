"""querylab: exact and Monte Carlo experiments on forward-vs-inverse query access.

Library layout:

- ``phases``: biased distributions over order-q roots of unity, their moments and moment table.
- ``linalg``: the checked density matrix, trace distance, the unitarity check, two unitaries.
- ``ensembles``: diagonal-oracle ensembles and their normalized-trace statistics.
- ``biased_fourier``: lemma quantities of the near-orthonormal frames built from biased
  phase columns, read from their Toeplitz moment Gram.
- ``query_sim``: query circuits and exact purified averaging.
- ``families``: probe pieces and circuit generators (amplification probes, random circuits).
- ``amplitude``: amplitude estimation and amplification against black-box preparations.
- ``experiments``: parameter sweeps behind the CLI subcommands, and the advantage profile.
- ``blas``: pins the OpenBLAS that numpy links to one thread while a sweep runs.
- ``errors``: the package's exception classes.
- ``config``: experiment configs and their key=value file format.
- ``cli``: the ``querylab`` command-line harness.
"""

__version__ = "0.1.0"
