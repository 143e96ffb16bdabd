"""The benchmark's traced mode finds every function it wraps.

``perfbench.tracing.Tracer`` looks each target up by the name its caller
uses; a renamed or moved function makes ``Tracer()`` raise ``KeyError``,
which breaks ``perfbench/run.py --trace 1`` without failing any other
test. This guard only reads ``perfbench``.
"""
from perfbench.tracing import Tracer

from repro.core import postings, searcher


def test_every_trace_target_resolves():
    Tracer()


def test_searcher_calls_the_postings_kernels():
    # the traced postings.* spans measure these functions only if the
    # searcher looks them up under these names
    assert searcher.decode_postings is postings.decode_postings
    assert searcher.intersect is postings.intersect
    assert searcher.union is postings.union
