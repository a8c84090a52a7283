"""Hypothesis profiles.

``ci`` draws the same examples on every run (``derandomize``) and prints
the blob that reproduces a failure; select it with
``--hypothesis-profile=ci``.  Without it, local runs draw afresh.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
