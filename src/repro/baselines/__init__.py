"""Baseline systems the paper compares against, plus a ground-truth oracle.

- :mod:`repro.baselines.naive` -- exhaustive tree-walk twig matcher; the
  correctness oracle for every engine in this repository.
- :mod:`repro.baselines.region` -- region (containment) encoding streams.
- :mod:`repro.baselines.structjoin` -- binary structural joins
  (Al-Khalifa et al., ICDE 2002): the decomposition approach the paper's
  introduction argues against.
- :mod:`repro.baselines.twigstack` -- the holistic stack join of Bruno
  et al. (SIGMOD 2002): one loop, run over region stream cursors.
- :mod:`repro.baselines.xbtree` / :mod:`repro.baselines.twigstackxb` --
  the XB-tree variant: the same loop over pointers that skip input-list
  regions.
- :mod:`repro.baselines.vist` -- the structure-encoded sequence index of
  Wang et al. (SIGMOD 2003), including its false-alarm behaviour.
"""

from repro.baselines.naive import naive_match_count, naive_matches
from repro.baselines.structjoin import binary_twig_join, structural_join
from repro.baselines.twigstack import twig_stack
from repro.baselines.twigstackxb import twig_stack_xb

__all__ = ["binary_twig_join", "naive_match_count", "naive_matches",
           "structural_join", "twig_stack", "twig_stack_xb"]
