"""REG001 clean fixture: a mega adapter taking only its run context."""

from repro.experiments.registry import register_mega_algorithm


@register_mega_algorithm("good_fused")
def _run_good_fused(mctx):
    return [[{}]]
