"""REG001 trigger fixture: a mega adapter with a bespoke extra parameter."""

from repro.experiments.registry import register_mega_algorithm


@register_mega_algorithm("bad_fused")
def _run_bad_fused(mctx, extra_knob):
    return [[{"extra": extra_knob}]]
