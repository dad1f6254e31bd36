"""Golden POSITIVE example: every emitted name is in the registry.

The ``phase.*`` span wildcard is added to the registry by the test
that installs this file.
"""


def instrument(tr, sp, cycle, tid, cause, hit, which):
    if tr.enabled:
        tr.emit(cycle, tid, "spill", addr=4, cause=cause)
        tr.emit(cycle, tid, "tag_hit" if hit else "tag_miss", reg=1)
    with sp.span("detailed"):
        sp.begin("phase." + which)      # matches phase.*
